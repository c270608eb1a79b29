// Package foxnet is the public face of the Fox Net reproduction: it
// assembles protocol stacks the way the paper's Figure 3 does with SML
// functors —
//
//	structure Device = ...
//	structure Eth    = Eth (structure Lower = Device ...)
//	structure Ip     = Ip  (structure Lower = Eth ...)
//	structure Standard_Tcp = Tcp (structure Lower = Ip  ...)
//	structure Special_Tcp  = Tcp (structure Lower = Eth,
//	                              val do_checksums = false ...)
//
// NewNetwork builds a simulated Ethernet segment and any number of hosts
// running the standard stack (Device → Eth → Arp/Ip → Icmp/Udp/Tcp);
// (*Host).TCPOverEthernet instantiates the non-standard Special_Tcp
// composition, TCP directly over the link layer with checksums off.
//
// Everything runs in virtual time on a cooperative scheduler; see
// DESIGN.md for the substitutions that replace the paper's DECstations,
// Mach 3.0, and 10 Mb/s Ethernet.
package foxnet

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/arp"
	"repro/internal/basis"
	"repro/internal/ethernet"
	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/flight/seal"
	"repro/internal/icmp"
	"repro/internal/ip"
	"repro/internal/profile"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/udp"
	"repro/internal/wire"
)

// Re-exported names so that users of the public API never import the
// internal packages directly.
type (
	// Scheduler is the cooperative virtual-time scheduler.
	Scheduler = sim.Scheduler
	// SchedulerConfig parameterizes it.
	SchedulerConfig = sim.Config
	// Time is a virtual instant; Duration a virtual interval.
	Time = sim.Time
	// WireConfig parameterizes the simulated Ethernet segment.
	WireConfig = wire.Config
	// TCPConfig is the paper's Figure 4 functor-parameter record.
	TCPConfig = tcp.Config
	// UDPConfig parameterizes the UDP functor.
	UDPConfig = udp.Config
	// Handler is the connection upcall set.
	Handler = tcp.Handler
	// Conn is an established TCP connection.
	Conn = tcp.Conn
	// Listener answers SYNs on a port.
	Listener = tcp.Listener
	// Addr is an IPv4 address.
	Addr = ip.Addr
	// HWAddr is an Ethernet address.
	HWAddr = ethernet.Addr
	// Packet is the single-copy packet buffer.
	Packet = basis.Packet
	// Tracer is the do_prints/do_traces facility.
	Tracer = basis.Tracer
	// Profile is the Table 2 counter set.
	Profile = profile.Profile
	// Registry aggregates one host's metric groups.
	Registry = stats.Registry
	// ConnStats is a per-connection statistics snapshot.
	ConnStats = tcp.ConnStats
	// FlightRecorder journals per-action TCB evolution (see
	// HostConfig.FlightDir and cmd/foxreplay).
	FlightRecorder = flight.Recorder
	// Telemetry is a host's latency plane: hot-path latency histograms
	// and the executor profile (see HostConfig.Telemetry and cmd/foxstat
	// -serve).
	Telemetry = telemetry.Telemetry
	// Address is any layer's peer address.
	Address = protocol.Address
	// FaultSchedule is a deterministic fault-injection script (see
	// Network.StartFault and internal/fault's .fsched format).
	FaultSchedule = fault.Schedule
	// FaultRunner applies a FaultSchedule in virtual time.
	FaultRunner = fault.Runner
	// FaultMIB counts applied fault transitions.
	FaultMIB = stats.FaultMIB
)

// NewScheduler returns a deterministic virtual-time scheduler.
func NewScheduler(cfg SchedulerConfig) *Scheduler { return sim.New(cfg) }

// NewTracer returns a trace sink for stack assembly.
var NewTracer = basis.NewTracer

// NewRegistry returns a fresh metrics registry (see HostConfig.Metrics and
// Network.RegisterSubstrateMetrics).
var NewRegistry = stats.NewRegistry

// NewFlightRecorder returns a flight recorder journaling to w (see
// TCPConfig.Flight).
var NewFlightRecorder = flight.NewRecorder

// NewTelemetry returns a telemetry plane; every field a live exporter
// reads is atomic, so it may be scraped while the simulation runs (see
// HostConfig.Telemetry).
var NewTelemetry = telemetry.New

// NamedFault returns a built-in fault scenario by name (flap,
// partition, burst, squeeze); FaultScenarios lists the names and
// ParseFaultFile loads a custom .fsched script.
var (
	NamedFault     = fault.Named
	FaultScenarios = fault.Names
	ParseFaultFile = fault.ParseFile
)

// HostConfig customizes one host in a network.
type HostConfig struct {
	// TCP carries the Figure 4 parameters; zero values take the
	// defaults the paper's benchmarks use (4096-byte window, checksums
	// on).
	TCP TCPConfig
	// UDP parameterizes the UDP layer.
	UDP UDPConfig
	// Profile, when true, instruments this host's stack with the
	// execution-profile counters behind Table 2.
	Profile bool
	// ChargeFactor multiplies the CPU time this host's threads charge to
	// the virtual clock (0 means 1.0). The experiments use it to model
	// the 1994 SML/NJ code-generation penalty on Fox hosts.
	ChargeFactor float64
	// Netmask and Gateway override the host's IP configuration (defaults
	// /24 and no gateway); Forward makes the host a router.
	Netmask Addr
	Gateway Addr
	Forward bool
	// Trace, when non-nil, receives do_traces output for every layer.
	Trace *Tracer
	// Metrics, when non-nil, is the registry this host's counter groups
	// are installed into; when nil, addHost creates one.
	// Either way it ends up in Host.Stats.
	Metrics *stats.Registry
	// FlightDir, when non-empty, turns on the flight recorder for this
	// host's TCP: every action, TCB delta and point event is journaled to
	// <FlightDir>/<hostname>.fjl, replayable with cmd/foxreplay. The
	// directory is created if missing. An explicit TCP.Flight recorder
	// takes precedence.
	FlightDir string
	// FlightSeal seals the FlightDir journal with a SHA-256 hash chain
	// (internal/flight/seal): a seal record closes every 256 records,
	// and `foxreplay -verify` locates any altered byte or cut tail. The
	// seal counters appear as the registry's "seal" group. Call
	// Host.SyncFlight before reading the journal: a sealed journal's
	// writes are buffered, and its final partial batch is sealed only
	// on sync.
	FlightSeal bool
	// Telemetry, when non-nil, attaches the latency plane to this host's
	// TCP: latency histograms and the executor profile — all atomic,
	// live-scrapable mid-run. An explicit
	// TCP.Telemetry takes precedence. Pure observation: virtual results
	// are bit-identical with or without it.
	Telemetry *Telemetry
}

// Host is one simulated machine running the standard stack.
type Host struct {
	Name string
	MAC  HWAddr
	Addr Addr

	Port *wire.Port
	Eth  *ethernet.Ethernet
	ARP  *arp.ARP
	IP   *ip.IP
	ICMP *icmp.ICMP
	UDP  *udp.UDP
	TCP  *tcp.TCP
	Prof *Profile
	// Stats aggregates this host's MIB counter groups (tcp, ip, icmp,
	// udp, arp, eth — and seal, when FlightSeal is on). Snapshot it any
	// time; the groups are atomic. Point events are in the journal.
	Stats *stats.Registry
	// Flight is this host's flight recorder, nil unless FlightDir (or an
	// explicit TCP.Flight) was configured.
	Flight *FlightRecorder
	// Telemetry is this host's observation plane, nil unless configured.
	Telemetry *Telemetry
}

// SyncFlight seals a sealed journal's partial batch, flushes the
// journal file and syncs it to disk. Call it after the scenario ends and
// before verifying or replaying the journal; a sealed journal that skips
// this loses its buffered tail (that is the durability seam, not a bug).
// Safe to call on hosts with no recorder.
func (h *Host) SyncFlight() error { return h.Flight.Sync() }

// Network is a simulated Ethernet segment with attached hosts.
type Network struct {
	S       *Scheduler
	Segment *wire.Segment
	Hosts   []*Host
}

// NewNetwork builds a segment and n hosts with addresses 10.0.0.1…n,
// each running the standard stack. cfgs customizes hosts positionally; a
// missing or nil entry takes defaults. Must be called inside s.Run.
func NewNetwork(s *Scheduler, wireCfg WireConfig, n int, cfgs ...*HostConfig) *Network {
	var wireTrace *Tracer
	for _, c := range cfgs {
		if c != nil && c.Trace != nil {
			wireTrace = c.Trace.Sub("wire")
			break
		}
	}
	net := &Network{S: s, Segment: wire.NewSegment(s, wireCfg, wireTrace)}
	for i := 0; i < n; i++ {
		var hc HostConfig
		if i < len(cfgs) && cfgs[i] != nil {
			hc = *cfgs[i]
		}
		net.Hosts = append(net.Hosts, net.addHost(byte(i+1), hc))
	}
	return net
}

func (n *Network) addHost(id byte, hc HostConfig) *Host {
	s := n.S
	if hc.ChargeFactor != 0 {
		prev := s.ChargeFactor()
		s.SetChargeFactor(hc.ChargeFactor)
		defer s.SetChargeFactor(prev)
	}
	h := &Host{
		Name: fmt.Sprintf("host%d", id),
		MAC:  ethernet.HostAddr(id),
		Addr: ip.HostAddr(id),
	}
	if hc.Profile {
		h.Prof = profile.New(s, true)
	}
	reg := hc.Metrics
	if reg == nil {
		reg = stats.NewRegistry(h.Name)
	}
	h.Stats = reg
	mib := struct {
		tcp  *stats.TCPMIB
		hard *stats.HardenMIB
		ip   *stats.IPMIB
		icmp *stats.ICMPMIB
		udp  *stats.UDPMIB
		arp  *stats.ARPMIB
		eth  *stats.EthMIB
	}{new(stats.TCPMIB), new(stats.HardenMIB), new(stats.IPMIB), new(stats.ICMPMIB),
		new(stats.UDPMIB), new(stats.ARPMIB), new(stats.EthMIB)}
	reg.Register("tcp", mib.tcp)
	reg.Register("hard", mib.hard)
	reg.Register("ip", mib.ip)
	reg.Register("icmp", mib.icmp)
	reg.Register("udp", mib.udp)
	reg.Register("arp", mib.arp)
	reg.Register("eth", mib.eth)
	sub := func(name string) *Tracer {
		if hc.Trace == nil {
			return nil
		}
		t := hc.Trace.Sub(fmt.Sprintf("%s/%s", h.Name, name))
		t.Stamp = s.Stamp
		return t
	}
	h.Port = n.Segment.NewPort(h.Name, h.Prof)
	h.Eth = ethernet.New(h.Port, h.MAC, ethernet.Config{Trace: sub("eth"), Prof: h.Prof, Metrics: mib.eth})
	h.ARP = arp.New(s, h.Eth, h.Addr, arp.Config{Trace: sub("arp"), Metrics: mib.arp})
	h.IP = ip.New(s, h.Eth, h.ARP, ip.Config{
		Local:   h.Addr,
		Netmask: hc.Netmask,
		Gateway: hc.Gateway,
		Forward: hc.Forward,
		Trace:   sub("ip"),
		Prof:    h.Prof,
		Metrics: mib.ip,
	})
	h.ICMP = icmp.New(s, h.IP, icmp.Config{Trace: sub("icmp"), Metrics: mib.icmp})

	ucfg := hc.UDP
	if ucfg.Trace == nil {
		ucfg.Trace = sub("udp")
	}
	ucfg.Prof = h.Prof
	ucfg.Metrics = mib.udp
	h.UDP = udp.New(h.IP.Network(ip.ProtoUDP), ucfg)
	// Datagrams for closed ports answer with ICMP port-unreachable, as
	// a standard stack does.
	h.UDP.NoListenerUpcall = func(src protocol.Address, original []byte) {
		if a, ok := src.(ip.Addr); ok {
			h.ICMP.SendUnreachable(a, icmp.CodePortUnreachable, original)
		}
	}

	tcfg := hc.TCP
	if tcfg.Trace == nil {
		tcfg.Trace = sub("tcp")
	}
	tcfg.Prof = h.Prof
	if tcfg.Metrics == nil {
		tcfg.Metrics = mib.tcp
	}
	if tcfg.Harden == nil {
		tcfg.Harden = mib.hard
	}
	if tcfg.Flight == nil && hc.FlightDir != "" {
		var jw io.Writer = &flightSink{dir: hc.FlightDir, name: h.Name, buffered: hc.FlightSeal}
		if hc.FlightSeal {
			sw := seal.NewWriter(jw)
			reg.Register("seal", sw.MIB())
			jw = sw
		}
		tcfg.Flight = flight.NewRecorder(jw)
	}
	if tcfg.Telemetry == nil {
		tcfg.Telemetry = hc.Telemetry
	}
	h.Flight = tcfg.Flight
	h.Telemetry = tcfg.Telemetry
	h.TCP = tcp.New(s, h.IP.Network(ip.ProtoTCP), tcfg)
	return h
}

// flightSink is the journal file behind HostConfig.FlightDir,
// <dir>/<name>.fjl, sealed or not. Creation is deferred to the first
// journal write so stack assembly itself does no OS I/O from a
// coroutine (noblock); like the Tracer's output, the file then sits
// behind the io.Writer seam, which is the sanctioned place for
// diagnostics I/O. A failed open sticks: the recorder sees the error
// once and drops further records. A plain journal writes each record
// straight to the file, so it is readable without a sync; a buffered
// (sealed) one reaches the file in 64 KB writes and on Sync.
type flightSink struct {
	dir, name string
	buffered  bool
	f         *os.File
	w         io.Writer // f, or a buffer over it
	err       error
}

func (w *flightSink) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.f == nil {
		if w.err = os.MkdirAll(w.dir, 0o755); w.err != nil {
			return 0, w.err
		}
		if w.f, w.err = os.Create(filepath.Join(w.dir, w.name+".fjl")); w.err != nil {
			return 0, w.err
		}
		w.w = w.f
		if w.buffered {
			w.w = bufio.NewWriterSize(w.f, 64<<10)
		}
	}
	return w.w.Write(p)
}

// Sync flushes any buffered records and syncs the journal file to disk
// (the Recorder's Sync seam).
func (w *flightSink) Sync() error {
	if w.err != nil || w.f == nil {
		return w.err
	}
	if bw, ok := w.w.(*bufio.Writer); ok {
		if err := bw.Flush(); err != nil {
			return err
		}
	}
	return w.f.Sync()
}

// RegisterSubstrateMetrics adds "sched" and "wire" groups — scheduler
// fork/switch/timer counts and segment delivery statistics — to r. These
// sources keep plain counters that the simulation mutates, so snapshot r
// only after Run returns (or from inside the simulation), never from a
// concurrent goroutine.
func (n *Network) RegisterSubstrateMetrics(r *stats.Registry) {
	s := n.S
	r.RegisterFunc("sched", func() []stats.Sample {
		return []stats.Sample{
			{Name: "Forks", Value: float64(s.Forks())},
			{Name: "Switches", Value: float64(s.Switches())},
			{Name: "TimerFires", Value: float64(s.TimerFires())},
			{Name: "ReadyHighWater", Value: float64(s.ReadyHighWater())},
		}
	})
	seg := n.Segment
	r.RegisterFunc("wire", func() []stats.Sample {
		ws := seg.Stats()
		return []stats.Sample{
			{Name: "Sent", Value: float64(ws.Sent)},
			{Name: "Delivered", Value: float64(ws.Delivered)},
			{Name: "Lost", Value: float64(ws.Lost)},
			{Name: "Duplicated", Value: float64(ws.Duplicated)},
			{Name: "Corrupted", Value: float64(ws.Corrupted)},
			{Name: "Jittered", Value: float64(ws.Jittered)},
			{Name: "Oversize", Value: float64(ws.Oversize)},
			{Name: "Cut", Value: float64(ws.Cut)},
		}
	})
}

// StartFault begins applying a fault schedule to the network's segment,
// offsets measured from now. Schedule port names "A", "B", "C", …
// resolve positionally to hosts 1, 2, 3, … (the built-in scenarios are
// written against that convention); literal port names pass through.
// Every applied transition increments mib (pass nil to discard the
// counts — register it as a "fault" group to surface them) and is
// journaled into every host's flight recorder as an observer-only
// record, so sealed journals carry the fault timeline. Must be called
// inside the scheduler's Run.
func (n *Network) StartFault(sc FaultSchedule, mib *FaultMIB) *FaultRunner {
	alias := make(map[string]string, len(n.Hosts))
	for i, h := range n.Hosts {
		if i < 26 {
			alias[string(rune('A'+i))] = h.Name // the segment port's name
		}
	}
	var recs []*flight.Recorder
	for _, h := range n.Hosts {
		if h.Flight != nil {
			recs = append(recs, h.Flight)
		}
	}
	return fault.Start(n.S, n.Segment, sc, fault.Options{
		MIB:       mib,
		Recorders: recs,
		PortAlias: alias,
	})
}

// Host returns host i (zero-based).
func (n *Network) Host(i int) *Host { return n.Hosts[i] }

// Tap installs a passive frame observer on the segment (see
// wire.Segment.SetTap); cmd/foxtrace uses it with internal/decode for
// tcpdump-style raw output.
func (n *Network) Tap(tap func(from string, data []byte)) { n.Segment.SetTap(tap) }

// TCPOverEthernet instantiates the paper's Special_Tcp: the same TCP
// functor applied directly to the Ethernet layer, with checksums off
// because the link's CRC-32 already protects the segment (the paper's
// footnote 1 caveat — a link that really computes its CRC — holds by
// construction on the simulated device). The returned endpoint addresses
// peers by their hardware address.
func (h *Host) TCPOverEthernet(s *Scheduler, cfg TCPConfig) *tcp.TCP {
	if cfg.ComputeChecksums == nil {
		cfg.ComputeChecksums = tcp.Disable // val do_checksums = false
	}
	return tcp.New(s, h.Eth.Transport(ethernet.TypeFoxTCP), cfg)
}

// Ping sends one ICMP echo and blocks until the reply or a timeout,
// returning the round-trip time.
func (h *Host) Ping(s *Scheduler, dst Addr, payload []byte) (sim.Duration, bool) {
	var rtt sim.Duration
	ok, done := false, false
	c := sim.NewCond(s)
	h.ICMP.Ping(dst, 1, 1, payload, func(o bool, r sim.Duration) {
		ok, rtt, done = o, r, true
		c.Signal()
	})
	for !done {
		c.Wait()
	}
	return rtt, ok
}
