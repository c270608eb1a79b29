// Command foxstat runs a scenario on the simulated stack and prints the
// stack-wide statistics the metrics registry collected: RFC 2011/2012-style
// MIB counter groups for every layer of every host, per-connection TCP
// statistics out of the TCB, scheduler and wire substrate counters, and the
// structured event ring (state transitions, retransmissions, RTO backoff,
// zero windows, RSTs).
//
//	foxstat                      handshake, transfer, close on a lossless wire
//	foxstat -scenario lossy      the same transfer on a 10% lossy wire (seed 7)
//	foxstat -scenario hostile    the transfer with an attacker host flooding the
//	                             server (SYN flood, junk, blind RSTs); the server's
//	                             "hard" counter group shows the defenses working
//	foxstat -scenario flap       the transfer on a slightly lossy wire while a
//	                             scripted fault schedule runs: flap drops the
//	                             client's carrier twice; partition splits the
//	                             hosts and heals; burst switches to Gilbert–
//	                             Elliott bursty loss plus a corruption storm;
//	                             squeeze collapses bandwidth to 56 kb/s with a
//	                             delay spike. The "fault" counter group records
//	                             every applied transition, and -flight journals
//	                             carry the fault timeline as observer records
//	foxstat -json                machine-readable output
//	foxstat -json -o stats.json  written to a file
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/foxnet"
	"repro/internal/adversary"
	"repro/internal/flight/seal"
	"repro/internal/ip"
	"repro/internal/stats"
)

type connJSON struct {
	Name          string `json:"name"`
	State         string `json:"state"`
	BytesIn       uint64 `json:"bytes_in"`
	BytesOut      uint64 `json:"bytes_out"`
	SegsIn        uint64 `json:"segs_in"`
	SegsOut       uint64 `json:"segs_out"`
	Retransmits   uint64 `json:"retransmits"`
	DupAcks       uint64 `json:"dup_acks"`
	SRTTNS        int64  `json:"srtt_ns"`
	RTTVarNS      int64  `json:"rttvar_ns"`
	RTONS         int64  `json:"rto_ns"`
	SendWindow    uint32 `json:"send_window"`
	CongWindow    uint32 `json:"cong_window"`
	Ssthresh      uint32 `json:"ssthresh"`
	FlightSize    uint32 `json:"flight_size"`
	RecvWindow    uint32 `json:"recv_window"`
	ToDoHighWater int    `json:"to_do_high_water"`
}

// connStatsJSON snapshots one connection's TCB statistics.
func connStatsJSON(c *foxnet.Conn) connJSON {
	st := c.Stats()
	return connJSON{
		Name:    c.Name(),
		State:   st.State.String(),
		BytesIn: st.BytesIn, BytesOut: st.BytesOut,
		SegsIn: st.SegsIn, SegsOut: st.SegsOut,
		Retransmits: st.Retransmits, DupAcks: st.DupAcks,
		SRTTNS: int64(st.SRTT), RTTVarNS: int64(st.RTTVar), RTONS: int64(st.RTO),
		SendWindow: st.SendWindow, CongWindow: st.CongWindow,
		Ssthresh: st.Ssthresh, FlightSize: st.FlightSize,
		RecvWindow:    st.RecvWindow,
		ToDoHighWater: st.ToDoHighWater,
	}
}

type hostJSON struct {
	Snapshot    json.RawMessage `json:"snapshot"`
	Connections []connJSON      `json:"connections"`
	Events      []stats.Event   `json:"events"`
}

type docJSON struct {
	Scenario  string                  `json:"scenario"`
	Bytes     int                     `json:"bytes"`
	Hosts     []hostJSON              `json:"hosts"`
	Substrate json.RawMessage         `json:"substrate"`
	Seals     map[string]*seal.Report `json:"seals,omitempty"`
}

func main() {
	scenario := flag.String("scenario", "transfer",
		"transfer | lossy | hostile | "+strings.Join(foxnet.FaultScenarios(), " | "))
	bytes := flag.Int("bytes", 64_000, "payload size for the transfer")
	jsonOut := flag.Bool("json", false, "emit JSON instead of text")
	outPath := flag.String("o", "", "write output to this file instead of stdout")
	ringN := flag.Int("ring", 0, "event-ring capacity per host (0 takes the default)")
	flightDir := flag.String("flight", "", "record per-host flight journals into this directory (replay with foxreplay)")
	sealed := flag.Bool("seal", false, "route -flight journals through the Merkle batcher: tamper-evident rotated segments (verify with foxreplay -verify)")
	sealList := flag.Bool("seals", false, "after the run, list each sealed segment with its root hash and leaf coverage (implies -seal)")
	serveAddr := flag.String("serve", "", "serve live telemetry over HTTP on this address (/metrics, /conns, /series/<conn>, /profile); keeps serving after the run until interrupted")
	watch := flag.Duration("watch", 0, "print periodic telemetry snapshots to stderr at this interval while the scenario runs")
	scrapePath := flag.String("scrape", "", "after the run, render the Prometheus /metrics payload to this file")
	flag.Parse()
	if *sealList {
		*sealed = true
	}
	if *sealed && *flightDir == "" {
		fmt.Fprintln(os.Stderr, "foxstat: -seal requires -flight DIR")
		os.Exit(2)
	}

	wcfg := foxnet.WireConfig{}
	hosts := 2
	hostCfgs := []*foxnet.HostConfig{nil, nil}
	var faultSched foxnet.FaultSchedule
	var faultMIB *foxnet.FaultMIB
	switch *scenario {
	case "transfer":
	case "lossy":
		wcfg.Loss = 0.10
		wcfg.Seed = 7
	case "hostile":
		wcfg.Loss = 0.05
		wcfg.Seed = 7
		hosts = 3
		// A small SYN backlog makes the flood's evictions visible in the
		// hard group; the third host carries the attacker.
		hostCfgs = []*foxnet.HostConfig{nil, {TCP: foxnet.TCPConfig{MaxSynBacklog: 32}}, nil}
	default:
		sc, ok := foxnet.NamedFault(*scenario)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown scenario: %s (want transfer, lossy, hostile, %s)\n",
				*scenario, strings.Join(foxnet.FaultScenarios(), ", "))
			os.Exit(2)
		}
		// A mildly lossy wire keeps the fault schedule honest: recovery
		// happens under background loss, not on a perfect medium.
		faultSched = sc
		faultMIB = &foxnet.FaultMIB{}
		wcfg.Loss = 0.02
		wcfg.Seed = 7
	}
	if faultMIB != nil {
		// Unless the user sized the payload, make the transfer long
		// enough to still be in flight when the schedule starts hurting
		// the wire — a 64 KB default finishes before the first fault.
		bytesSet := false
		flag.Visit(func(f *flag.Flag) { bytesSet = bytesSet || f.Name == "bytes" })
		if !bytesSet {
			*bytes = 2_000_000
		}
	}
	telemetered := *serveAddr != "" || *watch > 0 || *scrapePath != ""
	if *ringN > 0 || *flightDir != "" || telemetered {
		for i := range hostCfgs {
			if hostCfgs[i] == nil {
				hostCfgs[i] = &foxnet.HostConfig{}
			}
			if *ringN > 0 {
				hostCfgs[i].Metrics = foxnet.NewRegistrySized(fmt.Sprintf("host%d", i+1), *ringN)
			}
			hostCfgs[i].FlightDir = *flightDir
			hostCfgs[i].FlightSeal = *sealed
			if telemetered {
				hostCfgs[i].Telemetry = foxnet.NewTelemetry(foxnet.TelemetryOptions{})
			}
		}
	}
	var planes []*foxnet.Telemetry
	var planeNames []string
	if telemetered {
		for i, hc := range hostCfgs {
			planes = append(planes, hc.Telemetry)
			planeNames = append(planeNames, fmt.Sprintf("host%d", i+1))
		}
	}

	s := foxnet.NewScheduler(foxnet.SchedulerConfig{})
	var net *foxnet.Network
	var conns []*foxnet.Conn
	var openErr error
	substrate := foxnet.NewRegistry("net")
	if faultMIB != nil {
		substrate.Register("fault", faultMIB)
	}

	// The exporter and the watcher run on OS goroutines concurrent with
	// the simulation; until finish() flips the done flag they read only
	// the planes' atomics.
	var srv *liveServer
	if telemetered {
		srv = newLiveServer(planes, planeNames)
	}
	if *serveAddr != "" {
		go func() {
			if err := http.ListenAndServe(*serveAddr, srv.mux()); err != nil {
				fmt.Fprintln(os.Stderr, "foxstat: serve:", err)
				os.Exit(1)
			}
		}()
		fmt.Fprintf(os.Stderr, "foxstat: serving telemetry on %s (/metrics /conns /series/<conn> /profile)\n", *serveAddr)
	}
	var watchStop chan struct{}
	if *watch > 0 {
		watchStop = make(chan struct{})
		go watchLoop(os.Stderr, planes, planeNames, *watch, watchStop)
	}

	s.Run(func() {
		net = foxnet.NewNetwork(s, wcfg, hosts, hostCfgs...)
		net.RegisterSubstrateMetrics(substrate)
		a, b := net.Host(0), net.Host(1)

		b.TCP.Listen(80, func(c *foxnet.Conn) foxnet.Handler {
			conns = append(conns, c)
			return foxnet.Handler{
				Data:       func(c *foxnet.Conn, d []byte) {},
				PeerClosed: func(c *foxnet.Conn) { c.Shutdown() },
			}
		})
		conn, err := a.TCP.Open(b.Addr, 80, foxnet.Handler{})
		if err != nil {
			// Exiting belongs to the OS side of the program; the
			// coroutine only records the failure (foxvet noblock).
			openErr = err
			return
		}
		conns = append(conns, conn)
		if *scenario == "hostile" {
			// conns[0] is the server-side connection: its accept upcall
			// ran during the handshake Open just completed.
			attack(s, net, conns[0], conn.LocalPort())
		}
		if faultMIB != nil {
			// The schedule's offsets count from the established
			// connection, so the faults hit the transfer itself.
			net.StartFault(faultSched, faultMIB)
		}
		conn.Write(make([]byte, *bytes))
		conn.Close()
		// Long enough for retransmissions and TIME-WAIT on the lossy wire.
		s.Sleep(30 * time.Second)
	})
	if watchStop != nil {
		close(watchStop)
		// One final snapshot so a short run still shows its end state.
		writeWatch(os.Stderr, planes, planeNames)
	}
	if srv != nil {
		srv.finish(net, conns, substrate)
	}
	if openErr != nil {
		fmt.Fprintln(os.Stderr, "open:", openErr)
		os.Exit(1)
	}
	if *scrapePath != "" {
		f, err := os.Create(*scrapePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "foxstat:", err)
			os.Exit(1)
		}
		srv.writeMetrics(f)
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "foxstat:", err)
			os.Exit(1)
		}
	}

	// Seal the partial batch and flush the journals: segment writes are
	// buffered, and an unsynced sealed journal fails verification by
	// design (its tail is not attested).
	if *flightDir != "" {
		for _, h := range net.Hosts {
			if err := h.SyncFlight(); err != nil {
				fmt.Fprintf(os.Stderr, "foxstat: %s: flight sync: %v\n", h.Name, err)
				os.Exit(1)
			}
		}
	}
	var sealReports map[string]*seal.Report
	if *sealList {
		var err error
		if sealReports, err = seal.VerifyDir(*flightDir, nil); err != nil {
			fmt.Fprintf(os.Stderr, "foxstat: seal verify: %v\n", err)
			os.Exit(1)
		}
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "foxstat:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}

	if *jsonOut {
		writeJSON(out, net, conns, substrate, *scenario, *bytes, sealReports)
	} else {
		writeText(out, net, conns, substrate)
		writeSeals(out, sealReports)
	}

	if *serveAddr != "" {
		fmt.Fprintln(os.Stderr, "foxstat: run complete; still serving (Ctrl-C to stop)")
		select {}
	}
}

// writeSeals prints the -seals listing: every sealed segment with its
// size, record/leaf coverage, and the last Merkle root and chain hash
// it carries.
func writeSeals(out io.Writer, reports map[string]*seal.Report) {
	if len(reports) == 0 {
		return
	}
	prefixes := make([]string, 0, len(reports))
	for p := range reports {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)
	for _, p := range prefixes {
		rep := reports[p]
		fmt.Fprintf(out, "sealed journal %s: %d segments, %d batches, %d records sealed, chain head %s\n",
			p, len(rep.Segments), rep.Batches, rep.Leaves, shortHash(rep.LastSeal))
		for _, s := range rep.Segments {
			fmt.Fprintf(out, "  %-18s %8d B  records %-5d seals %-3d leaves %d..%d  root %s  seal %s\n",
				s.Name, s.Bytes, s.Records, s.Seals,
				s.FirstLeaf, s.FirstLeaf+uint64(s.Leaves),
				shortHash(s.LastRoot), shortHash(s.LastSeal))
		}
	}
}

// shortHash abbreviates a hex hash for the listing.
func shortHash(h string) string {
	if len(h) > 16 {
		return h[:16] + "…"
	}
	if h == "" {
		return "-"
	}
	return h
}

// attack aims the hostile scenario's adversary at the server (host 1)
// from the attacker machine (host 2): a SYN flood and junk flood from
// the attacker's own address, plus spoofed in-window SYN sweeps and
// blind RST bursts from a second IP layer forging the client's address —
// the RFC 5961 threat model. Every probe lands in the server's "hard"
// counter group.
func attack(s *foxnet.Scheduler, net *foxnet.Network, serverConn *foxnet.Conn, clientPort uint16) {
	server, atk := net.Host(1), net.Host(2)
	// A fresh IP layer takes over the attacker's inbound demux and
	// answers nothing, so flood SYN-ACKs die exactly as they would at a
	// spoofing attacker.
	own := ip.New(s, atk.Eth, atk.ARP, ip.Config{Local: atk.Addr})
	adv := adversary.New(s, own.Network(ip.ProtoTCP), 7)
	forged := ip.New(s, atk.Eth, atk.ARP, ip.Config{Local: net.Host(0).Addr})
	spoof := adversary.New(s, forged.Network(ip.ProtoTCP), 7^0x9e3779b97f4a7c15)

	s.Fork("syn-flood", func() {
		adv.SynFlood(server.Addr, 80, 300, 2*time.Millisecond)
	})
	s.Fork("junk-flood", func() {
		adv.JunkFlood(server.Addr, 400, time.Millisecond)
	})
	target := adversary.Target{Addr: server.Addr, SrcPort: clientPort, DstPort: 80}
	s.Fork("syn-sweep", func() {
		// In-window SYNs, aimed with the live left window edge: each one
		// must draw a challenge ACK, never a reset (RFC 5961 §4.2).
		for i := 0; i < 20; i++ {
			st := serverConn.Stats()
			spoof.Sweep(target, adversary.SYN, st.RcvNxt, int(st.RecvWindow), 256, nil, 0)
			s.Sleep(20 * time.Millisecond)
		}
	})
	s.Fork("blind-rst", func() {
		for i := 0; i < 20; i++ {
			spoof.Sweep(target, adversary.RST, spoof.Rand().Uint32(), 64, 1, nil, 0)
			s.Sleep(20 * time.Millisecond)
		}
	})
}

// connsOf returns the connections whose endpoint lives on h's TCP.
func connsOf(h *foxnet.Host, conns []*foxnet.Conn) []*foxnet.Conn {
	var out []*foxnet.Conn
	for _, c := range conns {
		if c.Endpoint() == h.TCP {
			out = append(out, c)
		}
	}
	return out
}

func writeText(out io.Writer, net *foxnet.Network, conns []*foxnet.Conn, substrate *foxnet.Registry) {
	for _, h := range net.Hosts {
		fmt.Fprint(out, h.Stats.Snapshot().Text())
		for _, c := range connsOf(h, conns) {
			st := c.Stats()
			fmt.Fprintf(out, "conn %s\n", c.Name())
			fmt.Fprintf(out, "  state %v  in %d B / %d segs  out %d B / %d segs\n",
				st.State, st.BytesIn, st.SegsIn, st.BytesOut, st.SegsOut)
			fmt.Fprintf(out, "  srtt %v  rttvar %v  rto %v\n", st.SRTT, st.RTTVar, st.RTO)
			fmt.Fprintf(out, "  rexmits %d  dupacks %d  snd_wnd %d  cwnd %d  ssthresh %d  flight %d  rcv_wnd %d  to_do hw %d\n",
				st.Retransmits, st.DupAcks, st.SendWindow, st.CongWindow,
				st.Ssthresh, st.FlightSize, st.RecvWindow, st.ToDoHighWater)
		}
		ring := h.Stats.Ring()
		if n := ring.Len(); n > 0 {
			fmt.Fprintf(out, "events (%d of %d recorded)\n", n, ring.Total())
			for _, e := range ring.Events() {
				fmt.Fprintf(out, "  %s\n", e)
			}
		}
		fmt.Fprintln(out)
	}
	fmt.Fprint(out, substrate.Snapshot().Text())
}

func writeJSON(out io.Writer, net *foxnet.Network, conns []*foxnet.Conn, substrate *foxnet.Registry, scenario string, bytes int, seals map[string]*seal.Report) {
	doc := docJSON{Scenario: scenario, Bytes: bytes, Seals: seals}
	for _, h := range net.Hosts {
		snap, err := h.Stats.Snapshot().JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "foxstat:", err)
			os.Exit(1)
		}
		hj := hostJSON{Snapshot: snap, Events: h.Stats.Ring().Events()}
		for _, c := range connsOf(h, conns) {
			hj.Connections = append(hj.Connections, connStatsJSON(c))
		}
		doc.Hosts = append(doc.Hosts, hj)
	}
	snap, err := substrate.Snapshot().JSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, "foxstat:", err)
		os.Exit(1)
	}
	doc.Substrate = snap
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "foxstat:", err)
		os.Exit(1)
	}
	fmt.Fprintln(out, strings.TrimRight(string(b), "\n"))
}
