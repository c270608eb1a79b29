// Command foxstat runs a scenario on the simulated stack and prints the
// stack-wide statistics the metrics registry collected: RFC 2011/2012-style
// MIB counter groups for every layer of every host, per-connection TCP
// statistics out of the TCB, scheduler and wire substrate counters, and
// every point event (state transitions, retransmissions, RTO backoff,
// zero windows, RSTs). Every host is journaled — into -flight DIR, or
// into memory — and the events, the per-connection series and the
// fox_conn_* gauges are read from the journals after the run.
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
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/foxnet"
	"repro/internal/adversary"
	"repro/internal/flight"
	"repro/internal/flight/seal"
	"repro/internal/ip"
	"repro/internal/tcp"
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

// eventJSON is one point event in foxstat's output, rendered from its
// journal record.
type eventJSON struct {
	At     int64  `json:"at_ns"`
	Kind   string `json:"kind"`
	Conn   string `json:"conn,omitempty"`
	Detail string `json:"detail,omitempty"`
}

func eventOf(r *flight.Record) eventJSON {
	return eventJSON{At: r.At, Kind: r.EvKind, Conn: r.Conn, Detail: tcp.DescribeEvent(r.EvKind, r.EvA, r.EvB)}
}

// String renders the event as one aligned report line.
func (e eventJSON) String() string {
	conn := e.Conn
	if conn == "" {
		conn = "-"
	}
	return fmt.Sprintf("%12v %-8s %-24s %s", time.Duration(e.At), e.Kind, conn, e.Detail)
}

type hostJSON struct {
	Snapshot    json.RawMessage `json:"snapshot"`
	Connections []connJSON      `json:"connections"`
	Events      []eventJSON     `json:"events"`
}

type docJSON struct {
	Scenario  string                  `json:"scenario"`
	Bytes     int                     `json:"bytes"`
	Hosts     []hostJSON              `json:"hosts"`
	Substrate json.RawMessage         `json:"substrate"`
	Seals     map[string]*seal.Report `json:"seals,omitempty"`
}

// scenario is one named setup: the wire, the hosts, and an optional
// fault schedule.
type scenario struct {
	name     string
	wire     foxnet.WireConfig
	hosts    []*foxnet.HostConfig
	fault    foxnet.FaultSchedule
	faultMIB *foxnet.FaultMIB
}

func newScenario(name string) (*scenario, bool) {
	sc := &scenario{name: name, hosts: []*foxnet.HostConfig{{}, {}}}
	switch name {
	case "transfer":
	case "lossy":
		sc.wire = foxnet.WireConfig{Loss: 0.10, Seed: 7}
	case "hostile":
		sc.wire = foxnet.WireConfig{Loss: 0.05, Seed: 7}
		// A small SYN backlog makes the flood's evictions visible in the
		// hard group; the third host carries the attacker.
		sc.hosts = []*foxnet.HostConfig{{}, {TCP: foxnet.TCPConfig{MaxSynBacklog: 32}}, {}}
	default:
		f, ok := foxnet.NamedFault(name)
		if !ok {
			return nil, false
		}
		// A mildly lossy wire keeps the fault schedule honest: recovery
		// happens under background loss, not on a perfect medium.
		sc.fault, sc.faultMIB = f, &foxnet.FaultMIB{}
		sc.wire = foxnet.WireConfig{Loss: 0.02, Seed: 7}
	}
	return sc, true
}

// result is one finished run, with every host's journal read back.
type result struct {
	net       *foxnet.Network
	conns     []*foxnet.Conn
	substrate *foxnet.Registry
	journals  []hostJournal // index-aligned with net.Hosts
	seals     map[string]*seal.Report
}

// hostJournal is what one host's flight journal says about the run: its
// point events and every connection's series.
type hostJournal struct {
	host   string
	events []eventJSON
	series []connSeries
}

type connSeries struct {
	conn string
	pts  []flight.Point
}

func newHostJournal(host string, recs []flight.Record) hostJournal {
	hj := hostJournal{host: host}
	evs := flight.Events(recs)
	for i := range evs {
		hj.events = append(hj.events, eventOf(&evs[i]))
	}
	seen := map[string]bool{}
	for i := range recs {
		if c := recs[i].Conn; recs[i].Kind == flight.KindOpen && !seen[c] {
			seen[c] = true
			hj.series = append(hj.series, connSeries{c, flight.Series(recs, c)})
		}
	}
	return hj
}

// run plays the scenario with every host journaled — into flightDir
// when one is given, sealed if asked, and otherwise into memory — and
// reads the journals back.
func (sc *scenario) run(n int, flightDir string, sealed bool) (*result, error) {
	journals := make([]bytes.Buffer, len(sc.hosts))
	for i, hc := range sc.hosts {
		if flightDir != "" {
			hc.FlightDir, hc.FlightSeal = flightDir, sealed
		} else {
			hc.TCP.Flight = foxnet.NewFlightRecorder(&journals[i])
		}
	}

	s := foxnet.NewScheduler(foxnet.SchedulerConfig{})
	res := &result{substrate: foxnet.NewRegistry("net"), seals: map[string]*seal.Report{}}
	if sc.faultMIB != nil {
		res.substrate.Register("fault", sc.faultMIB)
	}
	var openErr error
	s.Run(func() {
		net := foxnet.NewNetwork(s, sc.wire, len(sc.hosts), sc.hosts...)
		res.net = net
		net.RegisterSubstrateMetrics(res.substrate)
		a, b := net.Host(0), net.Host(1)

		b.TCP.Listen(80, func(c *foxnet.Conn) foxnet.Handler {
			res.conns = append(res.conns, c)
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
		res.conns = append(res.conns, conn)
		if sc.name == "hostile" {
			// conns[0] is the server-side connection: its accept upcall
			// ran during the handshake Open just completed.
			attack(s, net, res.conns[0], conn.LocalPort())
		}
		if sc.faultMIB != nil {
			// The schedule's offsets count from the established
			// connection, so the faults hit the transfer itself.
			net.StartFault(sc.fault, sc.faultMIB)
		}
		conn.Write(make([]byte, n))
		conn.Close()
		// Long enough for retransmissions and TIME-WAIT on the lossy wire.
		s.Sleep(30 * time.Second)
	})
	if openErr != nil {
		return nil, fmt.Errorf("open: %w", openErr)
	}

	// Seal the partial batch and flush the journals: sealed journal
	// writes are buffered, and an unsynced sealed journal fails
	// verification by design (its tail is not attested).
	for i, h := range res.net.Hosts {
		if err := h.SyncFlight(); err != nil {
			return nil, fmt.Errorf("%s: flight sync: %w", h.Name, err)
		}
		data := journals[i].Bytes()
		if flightDir != "" {
			var err error
			if data, err = os.ReadFile(filepath.Join(flightDir, h.Name+".fjl")); err != nil {
				return nil, err
			}
		}
		if sealed {
			rep, err := seal.Verify(bytes.NewReader(data))
			if err != nil {
				return nil, fmt.Errorf("%s: seal verify: %w", h.Name, err)
			}
			res.seals[h.Name] = rep
		}
		recs, err := flight.ReadAll(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("%s: journal: %w", h.Name, err)
		}
		res.journals = append(res.journals, newHostJournal(h.Name, recs))
	}
	return res, nil
}

func main() {
	name := flag.String("scenario", "transfer",
		"transfer | lossy | hostile | "+strings.Join(foxnet.FaultScenarios(), " | "))
	bytes := flag.Int("bytes", 64_000, "payload size for the transfer")
	jsonOut := flag.Bool("json", false, "emit JSON instead of text")
	outPath := flag.String("o", "", "write output to this file instead of stdout")
	flightDir := flag.String("flight", "", "record per-host flight journals into this directory (replay with foxreplay); without it the journals stay in memory")
	sealed := flag.Bool("seal", false, "seal the -flight journals with a SHA-256 hash chain and, after the run, verify each and print its chain head (foxreplay -verify checks them later)")
	serveAddr := flag.String("serve", "", "serve telemetry over HTTP on this address (/metrics live; /conns, /series/<conn> and the MIB once the run ends; /profile); keeps serving after the run until interrupted")
	watch := flag.Duration("watch", 0, "print periodic telemetry snapshots to stderr at this interval while the scenario runs")
	scrapePath := flag.String("scrape", "", "after the run, render the Prometheus /metrics payload to this file")
	flag.Parse()
	if *sealed && *flightDir == "" {
		fmt.Fprintln(os.Stderr, "foxstat: -seal requires -flight DIR")
		os.Exit(2)
	}
	sc, ok := newScenario(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scenario: %s (want transfer, lossy, hostile, %s)\n",
			*name, strings.Join(foxnet.FaultScenarios(), ", "))
		os.Exit(2)
	}
	if sc.faultMIB != nil {
		// Unless the user sized the payload, make the transfer long
		// enough to still be in flight when the schedule starts hurting
		// the wire — a 64 KB default finishes before the first fault.
		bytesSet := false
		flag.Visit(func(f *flag.Flag) { bytesSet = bytesSet || f.Name == "bytes" })
		if !bytesSet {
			*bytes = 2_000_000
		}
	}
	// The exporter and the watcher run on OS goroutines concurrent with
	// the simulation; until finish() flips the done flag they read only
	// the planes' atomics.
	srv := &liveServer{}
	if *serveAddr != "" || *watch > 0 || *scrapePath != "" {
		for i, hc := range sc.hosts {
			hc.Telemetry = foxnet.NewTelemetry()
			srv.planes = append(srv.planes, hc.Telemetry)
			srv.names = append(srv.names, fmt.Sprintf("host%d", i+1))
		}
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
		go watchLoop(os.Stderr, srv.planes, srv.names, *watch, watchStop)
	}

	res, err := sc.run(*bytes, *flightDir, *sealed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "foxstat:", err)
		os.Exit(1)
	}
	if watchStop != nil {
		close(watchStop)
		// One final snapshot so a short run still shows its end state.
		writeWatch(os.Stderr, srv.planes, srv.names, res.journals)
	}
	srv.finish(res)
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
		writeJSON(out, res, *name, *bytes)
	} else {
		writeText(out, res)
		writeSeals(out, res.seals)
	}

	if *serveAddr != "" {
		fmt.Fprintln(os.Stderr, "foxstat: run complete; still serving (Ctrl-C to stop)")
		select {}
	}
}

// writeSeals prints the -seal summary: one chain line per host.
func writeSeals(out io.Writer, reports map[string]*seal.Report) {
	hosts := make([]string, 0, len(reports))
	for h := range reports {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		rep := reports[h]
		fmt.Fprintf(out, "sealed journal %s: %d records in %d batches, chain head %s\n",
			h, rep.Records, rep.Batches, shortHash(rep.Head))
	}
}

// shortHash abbreviates a hex hash for the summary.
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

func writeText(out io.Writer, res *result) {
	for i, h := range res.net.Hosts {
		fmt.Fprint(out, h.Stats.Snapshot().Text())
		for _, c := range connsOf(h, res.conns) {
			st := c.Stats()
			fmt.Fprintf(out, "conn %s\n", c.Name())
			fmt.Fprintf(out, "  state %v  in %d B / %d segs  out %d B / %d segs\n",
				st.State, st.BytesIn, st.SegsIn, st.BytesOut, st.SegsOut)
			fmt.Fprintf(out, "  srtt %v  rttvar %v  rto %v\n", st.SRTT, st.RTTVar, st.RTO)
			fmt.Fprintf(out, "  rexmits %d  dupacks %d  snd_wnd %d  cwnd %d  ssthresh %d  flight %d  rcv_wnd %d  to_do hw %d\n",
				st.Retransmits, st.DupAcks, st.SendWindow, st.CongWindow,
				st.Ssthresh, st.FlightSize, st.RecvWindow, st.ToDoHighWater)
		}
		if evs := res.journals[i].events; len(evs) > 0 {
			fmt.Fprintf(out, "events (%d)\n", len(evs))
			for _, e := range evs {
				fmt.Fprintf(out, "  %s\n", e)
			}
		}
		fmt.Fprintln(out)
	}
	fmt.Fprint(out, res.substrate.Snapshot().Text())
}

func writeJSON(out io.Writer, res *result, scenario string, bytes int) {
	doc := docJSON{Scenario: scenario, Bytes: bytes, Seals: res.seals}
	for i, h := range res.net.Hosts {
		snap, err := h.Stats.Snapshot().JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "foxstat:", err)
			os.Exit(1)
		}
		hj := hostJSON{Snapshot: snap, Events: res.journals[i].events}
		for _, c := range connsOf(h, res.conns) {
			hj.Connections = append(hj.Connections, connStatsJSON(c))
		}
		doc.Hosts = append(doc.Hosts, hj)
	}
	snap, err := res.substrate.Snapshot().JSON()
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
