// Package experiments regenerates the paper's evaluation (§5): Table 1's
// throughput and round-trip comparison between the structured Fox Net TCP
// and the x-kernel-style baseline, Table 2's execution profile, and the
// in-text GC experiment. cmd/foxbench prints the paper-shaped tables;
// bench_test.go exposes the same runs as Go benchmarks.
//
// The methodology follows the paper exactly where the simulation allows:
// "The test consists of sending 10^6 bytes of data between a designated
// sender and a designated receiver on an isolated 10 Mb/s ethernet. The
// receiver starts a timer, sends the designated sender a small packet
// specifying the amount of data desired, and stops the timer after all
// the specified data has been received. The received data is discarded
// when it is received at the application level." TCP windows are
// standardized to 4096 bytes. Time is the virtual clock, advanced by the
// measured CPU time of the protocol code (scaled to 1994 hardware by
// Config.CPUScale) plus wire serialization — see DESIGN.md §3.
package experiments

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/foxnet"
	"repro/internal/baseline"
	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Impl selects which TCP implementation a run measures.
type Impl int

const (
	// Structured is the paper's quasi-synchronous Fox Net TCP.
	Structured Impl = iota
	// XKernelBaseline is the monolithic direct-call comparator.
	XKernelBaseline
)

func (i Impl) String() string {
	if i == Structured {
		return "Fox Net"
	}
	return "x-kernel (baseline)"
}

// Options parameterizes a run; zero values reproduce the paper's setup.
type Options struct {
	Bytes     int     // transfer size; default 1e6
	Window    int     // TCP window; default 4096
	CPUScale  float64 // virtual-time CPU multiplier; default 1000
	ChargeCPU bool    // default true (set NoChargeCPU to disable)
	NoCharge  bool    // disable CPU charging (deterministic runs)
	Profile   bool    // instrument with Table 2 counters
	Rounds    int     // round trips for RTT runs; default 100
	Loss      float64 // wire loss probability
	Seed      uint64
	TCPConfig *tcp.Config // extra structured-TCP overrides (ablations)
	// FlightSinks turns on the flight recorder for the structured hosts:
	// index 0 journals the sender, index 1 the receiver. Each host gets
	// its own Recorder (the cause stack is per-host state). Nil entries —
	// and a nil slice, the default — leave recording off, which is the
	// single-nil-check hot path. The recorder-overhead experiment feeds
	// counting writers through here.
	FlightSinks []io.Writer
	// Telemetry attaches observation planes to the structured hosts:
	// index 0 the sender, index 1 the receiver, same positional
	// convention as FlightSinks. Nil entries leave that host
	// unobserved. foxbench -telemetry feeds fresh planes through here
	// and reads back histograms, the executor profile, and cwnd traces.
	Telemetry []*telemetry.Telemetry
	// PriorityScheduler switches the coroutine ready queue from
	// round-robin FIFO to the priority discipline the paper proposes
	// for latency-critical actions (§4's closing paragraph).
	PriorityScheduler bool
	// SMLFactor multiplies all CPU charged by the structured (Fox) hosts,
	// modeling the SML/NJ code generation of 1994 (the paper measured
	// its compiled copy loop ~5× slower than bcopy). 0 means 1.
	SMLFactor float64
	// SMLEra charges the paper's own measured per-KB data-touching
	// costs on top of the structural CPU: copy 300 µs/KB and checksum
	// 343 µs/KB for the SML stack (§5), bcopy's 61 µs/KB and the
	// x-kernel checksum's 375 µs/KB for the baseline. Without it the
	// comparison isolates pure structure; with it the comparison also
	// carries the 1994 code-generation gap the paper's Table 1 folds in.
	SMLEra bool
	// Fault names a built-in fault scenario (flap, partition, burst,
	// squeeze) or a .fsched file path; the schedule starts against the
	// wire when a throughput run begins, so the benchmark measures the
	// stack degrading and recovering under scripted faults. Resolve
	// with FaultSchedule to validate before running.
	Fault string
	// FaultMIB, when non-nil, counts the applied transitions.
	FaultMIB *stats.FaultMIB
}

// FaultSchedule resolves Options.Fault: a built-in scenario name first,
// else a path to a .fsched file.
func FaultSchedule(name string) (fault.Schedule, error) {
	if sc, ok := fault.Named(name); ok {
		return sc, nil
	}
	if strings.ContainsAny(name, "/.") {
		return fault.ParseFile(name)
	}
	return fault.Schedule{}, fmt.Errorf("unknown fault scenario %q (built-ins: %s)",
		name, strings.Join(fault.Names(), ", "))
}

func (o *Options) fill() {
	if o.Bytes == 0 {
		o.Bytes = 1_000_000
	}
	if o.Window == 0 {
		o.Window = 4096
	}
	if o.CPUScale == 0 {
		o.CPUScale = 1000
	}
	if o.Rounds == 0 {
		o.Rounds = 100
	}
}

// TransferResult reports one one-way bulk transfer.
type TransferResult struct {
	Impl           Impl
	Bytes          int
	Elapsed        sim.Duration // virtual, request to last byte
	ThroughputMbps float64
	Retransmits    uint64
	SegsSent       uint64
	Sender         profile.Report // zero unless Options.Profile
	Receiver       profile.Report
	NumGC          uint32
}

// RTTResult reports a ping-pong run on an established connection.
type RTTResult struct {
	Impl    Impl
	Rounds  int
	MeanRTT sim.Duration
	MinRTT  sim.Duration
	MaxRTT  sim.Duration
}

// reqPort is where the designated sender listens for transfer requests.
const reqPort = 5001

// Throughput runs the Table 1 throughput experiment for one
// implementation.
func Throughput(impl Impl, o Options) TransferResult {
	o.fill()
	if impl != Structured {
		o.SMLFactor = 0 // the code-generation penalty is the SML stack's
	}
	res := TransferResult{Impl: impl, Bytes: o.Bytes}
	// Resolve the fault schedule outside the scheduler: ParseFile does
	// real file I/O, which has no business inside a coroutine body.
	var faultSched fault.Schedule
	if o.Fault != "" {
		sc, err := FaultSchedule(o.Fault)
		if err != nil {
			panic(fmt.Sprintf("experiment fault schedule: %v", err))
		}
		faultSched = sc
	}
	s := sim.New(sim.Config{ChargeCPU: !o.NoCharge, CPUScale: o.CPUScale, Priority: o.PriorityScheduler})
	s.Run(func() {
		net, profs := buildHosts(s, o)
		sender, receiver := net.Host(0), net.Host(1)
		if o.Fault != "" {
			net.StartFault(faultSched, o.FaultMIB)
		}

		var start, stop sim.Time
		received := 0
		done := sim.NewCond(s)

		switch impl {
		case Structured:
			sender.TCP.Listen(reqPort, func(c *tcp.Conn) tcp.Handler {
				return tcp.Handler{Data: func(c *tcp.Conn, d []byte) {
					want := int(binary.BigEndian.Uint32(d))
					s.Fork("bulk-sender", func() {
						c.Write(make([]byte, want))
					})
				}}
			})
			conn, err := receiver.TCP.Open(sender.Addr, reqPort, tcp.Handler{
				Data: func(c *tcp.Conn, d []byte) {
					received += len(d) // data discarded at application level
					if received >= o.Bytes {
						stop = s.Now()
						done.Signal()
					}
				},
			})
			if err != nil {
				panic(fmt.Sprintf("experiment open failed: %v", err))
			}
			start = s.Now()
			var req [4]byte
			binary.BigEndian.PutUint32(req[:], uint32(o.Bytes))
			conn.Write(req[:])
			done.Wait()
			conn.Close()
		case XKernelBaseline:
			blCfg := baseline.Config{InitialWindow: o.Window}
			if o.SMLEra {
				blCfg.CopyPerKB = 61 * time.Microsecond
				blCfg.ChecksumPerKB = 375 * time.Microsecond
			}
			bsCfg, brCfg := blCfg, blCfg
			bsCfg.Prof, brCfg.Prof = profs[0], profs[1]
			blSender := baseline.New(s, sender.IP.Network(6), bsCfg)
			blReceiver := baseline.New(s, receiver.IP.Network(6), brCfg)
			blSender.Listen(reqPort, func(c *baseline.Conn) baseline.Handler {
				return baseline.Handler{Data: func(c *baseline.Conn, d []byte) {
					want := int(binary.BigEndian.Uint32(d))
					s.Fork("bulk-sender", func() {
						c.Write(make([]byte, want))
					})
				}}
			})
			conn, err := blReceiver.Open(sender.Addr, reqPort, baseline.Handler{
				Data: func(c *baseline.Conn, d []byte) {
					received += len(d)
					if received >= o.Bytes {
						stop = s.Now()
						done.Signal()
					}
				},
			})
			if err != nil {
				panic(fmt.Sprintf("experiment open failed: %v", err))
			}
			start = s.Now()
			var req [4]byte
			binary.BigEndian.PutUint32(req[:], uint32(o.Bytes))
			conn.Write(req[:])
			done.Wait()
			res.Retransmits = blSender.Stats().Retransmits
			res.SegsSent = blSender.Stats().SegsSent
		}

		if impl == Structured {
			res.Retransmits = sender.TCP.Stats().Retransmits
			res.SegsSent = sender.TCP.Stats().SegsSent
		}
		res.Elapsed = sim.Duration(stop - start)
		if o.Profile {
			res.Sender = profs[0].Report()
			res.Receiver = profs[1].Report()
			res.NumGC = res.Sender.NumGC
		}
	})
	if res.Elapsed > 0 {
		res.ThroughputMbps = float64(res.Bytes) * 8 / res.Elapsed.Seconds() / 1e6
	}
	return res
}

// RoundTrip runs the Table 1 round-trip experiment: small request, small
// reply, over an established connection.
func RoundTrip(impl Impl, o Options) RTTResult {
	o.fill()
	if impl != Structured {
		o.SMLFactor = 0
	}
	res := RTTResult{Impl: impl, Rounds: o.Rounds, MinRTT: time.Hour}
	s := sim.New(sim.Config{ChargeCPU: !o.NoCharge, CPUScale: o.CPUScale, Priority: o.PriorityScheduler})
	s.Run(func() {
		net, profs := buildHosts(s, o)
		sender, receiver := net.Host(0), net.Host(1)
		_ = profs

		gotReply := sim.NewCond(s)
		replied := false

		echoStructured := func() *tcp.Conn {
			sender.TCP.Listen(reqPort, func(c *tcp.Conn) tcp.Handler {
				return tcp.Handler{Data: func(c *tcp.Conn, d []byte) {
					c.Write(append([]byte(nil), d...)) //foxvet:boundary-copy echo: Data only borrows d, and Write queues by reference until the window admits the bytes
				}}
			})
			conn, err := receiver.TCP.Open(sender.Addr, reqPort, tcp.Handler{
				Data: func(c *tcp.Conn, d []byte) { replied = true; gotReply.Signal() },
			})
			if err != nil {
				panic(err)
			}
			return conn
		}

		var write func(b []byte)
		switch impl {
		case Structured:
			conn := echoStructured()
			write = func(b []byte) { conn.Write(b) }
		case XKernelBaseline:
			blCfg := baseline.Config{InitialWindow: o.Window}
			if o.SMLEra {
				blCfg.CopyPerKB = 61 * time.Microsecond
				blCfg.ChecksumPerKB = 375 * time.Microsecond
			}
			blSender := baseline.New(s, sender.IP.Network(6), blCfg)
			blReceiver := baseline.New(s, receiver.IP.Network(6), blCfg)
			blSender.Listen(reqPort, func(c *baseline.Conn) baseline.Handler {
				return baseline.Handler{Data: func(c *baseline.Conn, d []byte) { c.Write(d) }}
			})
			conn, err := blReceiver.Open(sender.Addr, reqPort, baseline.Handler{
				Data: func(c *baseline.Conn, d []byte) { replied = true; gotReply.Signal() },
			})
			if err != nil {
				panic(err)
			}
			write = func(b []byte) { conn.Write(b) }
		}

		msg := []byte{0xfb}
		var total sim.Duration
		for i := 0; i < o.Rounds; i++ {
			replied = false
			t0 := s.Now()
			write(msg)
			for !replied {
				gotReply.Wait()
			}
			rtt := sim.Duration(s.Now() - t0)
			total += rtt
			if rtt < res.MinRTT {
				res.MinRTT = rtt
			}
			if rtt > res.MaxRTT {
				res.MaxRTT = rtt
			}
		}
		res.MeanRTT = total / sim.Duration(o.Rounds)
	})
	return res
}

// buildHosts assembles the two-host benchmark network: 10 Mb/s wire,
// standardized window, optional profiling, MSL shortened so runs finish.
func buildHosts(s *sim.Scheduler, o Options) (*foxnet.Network, [2]*profile.Profile) {
	wcfg := wire.Config{Loss: o.Loss, Seed: o.Seed}
	tcfg := tcp.Config{InitialWindow: o.Window, MSL: 5 * time.Second}
	if o.SMLEra {
		tcfg.DataPath = tcp.DataPathCosts{
			CopyPerKB:     300 * time.Microsecond,
			ChecksumPerKB: 343 * time.Microsecond,
		}
	}
	if o.TCPConfig != nil {
		dp := tcfg.DataPath
		tcfg = *o.TCPConfig
		if tcfg.InitialWindow == 0 {
			tcfg.InitialWindow = o.Window
		}
		if tcfg.MSL == 0 {
			tcfg.MSL = 5 * time.Second
		}
		if tcfg.DataPath == (tcp.DataPathCosts{}) {
			tcfg.DataPath = dp
		}
	}
	hc := [2]*foxnet.HostConfig{
		{TCP: tcfg, Profile: o.Profile, ChargeFactor: o.SMLFactor},
		{TCP: tcfg, Profile: o.Profile, ChargeFactor: o.SMLFactor},
	}
	for i := range hc {
		if i < len(o.FlightSinks) && o.FlightSinks[i] != nil {
			hc[i].TCP.Flight = flight.NewRecorder(o.FlightSinks[i])
		}
		if i < len(o.Telemetry) && o.Telemetry[i] != nil {
			hc[i].TCP.Telemetry = o.Telemetry[i]
		}
	}
	net := foxnet.NewNetwork(s, wcfg, 2, hc[0], hc[1])
	return net, [2]*profile.Profile{net.Host(0).Prof, net.Host(1).Prof}
}

// Table1 runs both implementations and formats the paper's Table 1.
func Table1(o Options) (TransferResult, TransferResult, RTTResult, RTTResult, string) {
	foxT := Throughput(Structured, o)
	xkT := Throughput(XKernelBaseline, o)
	foxR := RoundTrip(Structured, o)
	xkR := RoundTrip(XKernelBaseline, o)
	return foxT, xkT, foxR, xkR, table1Text(foxT, xkT, foxR, xkR)
}

// table1Text formats the paper's Table 1 from the four measurements, so
// Table1Report can rerun the structured arm with telemetry attached and
// still print the identical table.
func table1Text(foxT, xkT TransferResult, foxR, xkR RTTResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Speed Comparison of TCP Implementations\n")
	fmt.Fprintf(&b, "  %-20s %10s %10s %8s   (paper)\n", "", "Fox Net", "x-kernel", "ratio")
	fmt.Fprintf(&b, "  %-20s %10.2f %10.2f %8.2f   (0.6 / 2.5 / 0.24)\n",
		"Throughput (Mb/s)", foxT.ThroughputMbps, xkT.ThroughputMbps,
		foxT.ThroughputMbps/xkT.ThroughputMbps)
	fmt.Fprintf(&b, "  %-20s %10.1f %10.1f %8.1f   (36 / 4.9 / 9.4)\n",
		"Round-Trip (ms)",
		float64(foxR.MeanRTT)/float64(time.Millisecond),
		float64(xkR.MeanRTT)/float64(time.Millisecond),
		float64(foxR.MeanRTT)/float64(xkR.MeanRTT))
	return b.String()
}

// Table2 runs the profiled structured transfer and formats the paper's
// Table 2 (sender and receiver execution profiles).
func Table2(o Options) (TransferResult, string) {
	o.Profile = true
	r := Throughput(Structured, o)
	var b strings.Builder
	b.WriteString("Table 2: Execution Profile (Percent of Total Time) of the TCP/IP stack\n")
	b.WriteString(r.Sender.Format("Sender"))
	b.WriteString(r.Receiver.Format("Receiver"))
	b.WriteString(paperTable2)
	return r, b.String()
}

const paperTable2 = `Paper's Table 2 for comparison (sender / receiver %):
  TCP 29.0/27.5  IP 7.8/9.7  eth+Mach-interface 11.2/11.9
  copy 10.5/6.3  checksum 5.1/5.6  Mach-send 7.5/6.0  packet-wait 15.8/9.3
  g.c. 3.4/5.0  misc 4.7/7.3  counters-est. 5.2/5.4  total 100.2/94.0
`

// GCResult is the §5 garbage-collection experiment: longer runs trigger
// major collections yet throughput holds or improves.
type GCResult struct {
	Short, Long TransferResult
	Text        string
}

// GCExperiment compares a 1 MB and a 5 MB transfer.
func GCExperiment(o Options) GCResult {
	o.fill()
	short := o
	short.Bytes = 1_000_000
	short.Profile = true
	long := o
	long.Bytes = 5_000_000
	long.Profile = true
	r := GCResult{Short: Throughput(Structured, short), Long: Throughput(Structured, long)}
	var b strings.Builder
	fmt.Fprintf(&b, "GC experiment (paper §5: ≥5 MB runs see major GCs, same-or-better throughput)\n")
	fmt.Fprintf(&b, "  %-8s %12s %10s %6s\n", "run", "throughput", "elapsed", "GCs")
	fmt.Fprintf(&b, "  %-8s %9.2f Mb/s %10v %6d\n", "1 MB", r.Short.ThroughputMbps, r.Short.Elapsed.Round(time.Millisecond), r.Short.NumGC)
	fmt.Fprintf(&b, "  %-8s %9.2f Mb/s %10v %6d\n", "5 MB", r.Long.ThroughputMbps, r.Long.Elapsed.Round(time.Millisecond), r.Long.NumGC)
	r.Text = b.String()
	return r
}

// SweepPoint is one row of the window-size parameter sweep.
type SweepPoint struct {
	Window int
	Fox    float64 // Mb/s
	XK     float64 // Mb/s
}

// WindowSweep measures throughput against window size for both
// implementations. The paper standardizes on 4096 bytes "used by many
// implementations" and notes that Maeda & Bershad's faster TCP raised
// window and buffer sizes; the sweep shows where each implementation
// stops being window-limited and becomes processing- or wire-limited.
func WindowSweep(o Options, windows []int) ([]SweepPoint, string) {
	o.fill()
	if len(windows) == 0 {
		windows = []int{1024, 2048, 4096, 8192, 16384, 32768, 65535}
	}
	var pts []SweepPoint
	var b strings.Builder
	fmt.Fprintf(&b, "Window sweep (%d-byte transfers)\n", o.Bytes)
	fmt.Fprintf(&b, "  %8s %14s %14s\n", "window", "Fox Net", "x-kernel")
	for _, w := range windows {
		opt := o
		opt.Window = w
		fox := Throughput(Structured, opt)
		xk := Throughput(XKernelBaseline, opt)
		pts = append(pts, SweepPoint{Window: w, Fox: fox.ThroughputMbps, XK: xk.ThroughputMbps})
		fmt.Fprintf(&b, "  %8d %9.2f Mb/s %9.2f Mb/s\n", w, fox.ThroughputMbps, xk.ThroughputMbps)
	}
	return pts, b.String()
}

// LossPoint is one row of the loss-rate sweep.
type LossPoint struct {
	Loss    float64
	Fox, XK float64 // Mb/s
	FoxRex  uint64
	XKRex   uint64
}

// LossSweep measures throughput and retransmissions against wire loss for
// both implementations — the recovery-machinery robustness curve.
func LossSweep(o Options, rates []float64) ([]LossPoint, string) {
	o.fill()
	if len(rates) == 0 {
		rates = []float64{0, 0.01, 0.03, 0.05, 0.10}
	}
	var pts []LossPoint
	var b strings.Builder
	fmt.Fprintf(&b, "Loss sweep (%d-byte transfers, seed %d)\n", o.Bytes, o.Seed)
	fmt.Fprintf(&b, "  %6s %20s %20s\n", "loss", "Fox Net (rexmits)", "x-kernel (rexmits)")
	for _, r := range rates {
		opt := o
		opt.Loss = r
		fox := Throughput(Structured, opt)
		xk := Throughput(XKernelBaseline, opt)
		pts = append(pts, LossPoint{Loss: r, Fox: fox.ThroughputMbps, XK: xk.ThroughputMbps,
			FoxRex: fox.Retransmits, XKRex: xk.Retransmits})
		fmt.Fprintf(&b, "  %5.0f%% %10.2f Mb/s (%3d) %10.2f Mb/s (%3d)\n",
			r*100, fox.ThroughputMbps, fox.Retransmits, xk.ThroughputMbps, xk.Retransmits)
	}
	return pts, b.String()
}

// Ablation describes one design-choice toggle from DESIGN.md §5.
type Ablation struct {
	Name string
	Cfg  tcp.Config
}

// Ablations returns the standard set.
func Ablations() []Ablation {
	return []Ablation{
		{Name: "paper defaults", Cfg: tcp.Config{}},
		{Name: "direct dispatch (no to_do queue)", Cfg: tcp.Config{DirectDispatch: true}},
		{Name: "fast path off", Cfg: tcp.Config{FastPath: tcp.Disable}},
		{Name: "delayed acks off", Cfg: tcp.Config{DelayedAcks: tcp.Disable}},
		{Name: "nagle off", Cfg: tcp.Config{Nagle: tcp.Disable}},
		{Name: "congestion control off", Cfg: tcp.Config{CongestionControl: tcp.Disable}},
	}
}

// RunAblations measures throughput for each toggle and formats a table.
func RunAblations(o Options) string {
	o.fill()
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations (structured TCP, %d-byte transfer)\n", o.Bytes)
	fmt.Fprintf(&b, "  %-36s %12s %8s\n", "variant", "throughput", "segs")
	for _, a := range Ablations() {
		opt := o
		cfg := a.Cfg
		opt.TCPConfig = &cfg
		r := Throughput(Structured, opt)
		fmt.Fprintf(&b, "  %-36s %9.2f Mb/s %8d\n", a.Name, r.ThroughputMbps, r.SegsSent)
	}
	// The scheduler-discipline ablation the paper proposes in §4: a
	// priority ready queue instead of round-robin. Throughput is
	// insensitive (one flow); the RTT experiment is where priorities
	// would matter, so report both.
	prio := o
	prio.PriorityScheduler = true
	rp := Throughput(Structured, prio)
	fmt.Fprintf(&b, "  %-36s %9.2f Mb/s %8d\n", "priority ready queue", rp.ThroughputMbps, rp.SegsSent)
	rttFIFO := RoundTrip(Structured, o)
	rttPrio := RoundTrip(Structured, prio)
	fmt.Fprintf(&b, "  RTT: fifo %v vs priority %v\n",
		rttFIFO.MeanRTT.Round(10*time.Microsecond), rttPrio.MeanRTT.Round(10*time.Microsecond))
	return b.String()
}
