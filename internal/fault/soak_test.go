package fault_test

// Partition soak: the full stack transfers data through scripted fault
// schedules — flaps, splits, bursty loss, bandwidth collapse — at fixed
// seeds, and every connection must either complete or abort with the
// progress timeout inside a computable bound. Afterward the endpoint
// memory accounts must have drained to zero and both hosts' sealed
// journals must verify and replay divergence-free with the fault
// timeline present as observer records.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/arp"
	"repro/internal/ethernet"
	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/flight/seal"
	"repro/internal/ip"
	"repro/internal/pcap"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/wire"
)

type soakHost struct {
	TCP *tcp.TCP
	A   ip.Addr
	H   *stats.HardenMIB
}

// buildPair assembles client (host 1) and server (host 2) on one
// segment with static ARP, mirroring the adversary soak's rig minus the
// attacker — here the wire itself is the adversary.
func buildPair(s *sim.Scheduler, seg *wire.Segment, ccfg, scfg tcp.Config) (client, server soakHost) {
	mk := func(n byte, cfg tcp.Config) soakHost {
		addr := ip.HostAddr(n)
		port := seg.NewPort(addr.String(), nil)
		eth := ethernet.New(port, ethernet.HostAddr(n), ethernet.Config{})
		res := arp.New(s, eth, addr, arp.Config{})
		res.AddStatic(ip.HostAddr(1), ethernet.HostAddr(1))
		res.AddStatic(ip.HostAddr(2), ethernet.HostAddr(2))
		ipl := ip.New(s, eth, res, ip.Config{Local: addr})
		return soakHost{TCP: tcp.New(s, ipl.Network(ip.ProtoTCP), cfg), A: addr, H: cfg.Harden}
	}
	return mk(1, ccfg), mk(2, scfg)
}

func hardened(over tcp.Config) tcp.Config {
	over.Harden = &stats.HardenMIB{}
	return over
}

// TestKeepalivePartitionAborts: a partitioned *idle* connection has no
// retransmission timer to notice the dead peer, so keepalive is the
// only way out. The client must send exactly KeepaliveCount probes,
// abort with ErrTimeout (the keepalive path keeps the classic timeout
// error; ErrProgressTimeout is reserved for stalled *transfers*), free
// its memory-account charge, and leave the connection tables clean.
func TestKeepalivePartitionAborts(t *testing.T) {
	const idle, count = 2 * time.Second, 3
	s := sim.New(sim.Config{})
	s.Run(func() {
		seg := wire.NewSegment(s, wire.Config{}, nil)
		ccfg := hardened(tcp.Config{Keepalive: true, KeepaliveIdle: idle, KeepaliveCount: count})
		scfg := hardened(tcp.Config{})
		client, server := buildPair(s, seg, ccfg, scfg)

		got := 0
		server.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler {
			return tcp.Handler{Data: func(c *tcp.Conn, d []byte) { got += len(d) }}
		})
		var cerrs []error
		conn, err := client.TCP.Open(server.A, 80, tcp.Handler{
			Error: func(c *tcp.Conn, err error) { cerrs = append(cerrs, err) },
		})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		payload := make([]byte, 64<<10)
		if err := conn.Write(payload); err != nil {
			t.Fatalf("write: %v", err)
		}
		for got < len(payload) {
			s.Sleep(10 * time.Millisecond)
		}
		// Idle means *fully* quiescent: wait until the server's (possibly
		// delayed) final ACK lands and the client releases its last send
		// charge, or a leftover retransmission would pollute the exact
		// frame counts below.
		for client.H.MemBytes.Load() > 0 {
			s.Sleep(10 * time.Millisecond)
		}
		s.Sleep(500 * time.Millisecond)
		// The sender charges queued-but-unacked bytes; the receiver hands
		// in-order data straight to the upcall, so only the client side
		// is guaranteed a non-zero high-water to make the drain real.
		if client.H.MemBytes.High() == 0 {
			t.Fatal("transfer never charged the memory account; drain assertion would be vacuous")
		}

		// Split the pair. The connection is idle: no data in flight, no
		// rexmit timer, so only the keepalive clock is running.
		sent, cut := seg.Stats().Sent, seg.Stats().Cut
		seg.Partition(map[string]int{client.A.String(): 0, server.A.String(): 1})
		s.Sleep(sim.Duration(count+3) * idle)

		// Exactly KeepaliveCount probes, then the abort's RST — nothing
		// else touches the wire while the pair is idle and split, and
		// every one of those frames is suppressed by the partition.
		if d := seg.Stats().Sent - sent; d != count+1 {
			t.Errorf("%d frames sent during the partition, want %d probes + 1 RST", d, count)
		}
		if d := seg.Stats().Cut - cut; d != count+1 {
			t.Errorf("partition cut %d deliveries, want %d", d, count+1)
		}
		if len(cerrs) != 1 || cerrs[0] != tcp.ErrTimeout {
			t.Errorf("client errors = %v, want exactly [ErrTimeout]", cerrs)
		}
		// A keepalive abort is not a user-timeout abort: the hard group's
		// ProgressTimeouts counts only the latter, on either side.
		if n := client.H.ProgressTimeouts.Load() + server.H.ProgressTimeouts.Load(); n != 0 {
			t.Errorf("hard.ProgressTimeouts = %d after a keepalive abort, want 0", n)
		}
		if got := conn.State(); got != tcp.StateClosed {
			t.Errorf("client state %v after keepalive gave up, want Closed", got)
		}
		if err := conn.Write([]byte("x")); err != tcp.ErrTimeout {
			t.Errorf("Write after abort = %v, want the sticky ErrTimeout", err)
		}
		if n := client.TCP.ActiveConns(); n != 0 {
			t.Errorf("client demux table holds %d connections, want 0", n)
		}
		// The aborted connection's charges are released; the server
		// delivered everything it received, so its account is empty too.
		if m := client.H.MemBytes.Load(); m != 0 {
			t.Errorf("client memory account holds %d bytes after abort, want 0", m)
		}
		if m := server.H.MemBytes.Load(); m != 0 {
			t.Errorf("server memory account holds %d bytes, want 0", m)
		}
		if h := client.H.HalfOpen.Load() + server.H.HalfOpen.Load(); h != 0 {
			t.Errorf("half-open tables hold %d entries, want 0", h)
		}
	})
}

// recoverSchedule hurts the wire in every scripted way but clears each
// condition well inside the user timeout, so the transfer must survive
// and complete. abortSchedule splits the pair and never heals, so the
// client's transfer must die with ErrProgressTimeout.
const recoverSchedule = `# scenario: soak-recover — flap, burst, split, squeeze; all healed
200ms linkdown C
700ms linkup C
1s burstloss 0.05 0.25 0.01 0.6
3s burstend
4s partition C | S
9s heal
10s ratelimit 1000000
11s delayspike 20ms
12s delayclear
13s rateclear
`

const abortSchedule = `# scenario: soak-abort — a partition that never heals
1s partition C | S
`

// runPartitionSoak drives one seed through one arm. In the recover arm
// the 1 MiB transfer must complete within Horizon + Outage +
// UserTimeout (the computable bound: after the horizon the wire is
// healthy, no stall outlives one capped RTO, and a transfer that could
// not progress would have aborted at the user timeout). In the abort
// arm the client must surface ErrProgressTimeout within UserTimeout +
// 2×BackoffCeiling of the split, and the server's keepalive must reap
// its half of the connection, so both memory accounts drain to zero.
func runPartitionSoak(t *testing.T, seed uint64, heal bool) {
	t.Helper()
	const userTimeout = 30 * time.Second
	const ceiling = 2 * time.Second
	name, text := "soak-recover", recoverSchedule
	if !heal {
		name, text = "soak-abort", abortSchedule
	}
	sc, err := fault.Parse(name, strings.NewReader(text))
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}

	var capture bytes.Buffer
	csink := &seal.MemSink{Prefix: "client"}
	ssink := &seal.MemSink{Prefix: "server"}
	sealOpts := seal.Options{BatchSize: 64, SegmentBytes: 256 << 10}
	crec := flight.NewRecorder(seal.NewWriter(csink, sealOpts))
	srec := flight.NewRecorder(seal.NewWriter(ssink, sealOpts))
	pw := pcap.NewWriter(&capture)
	mib := &stats.FaultMIB{}

	s := sim.New(sim.Config{})
	s.Run(func() {
		seg := wire.NewSegment(s, wire.Config{Seed: seed, Loss: 0.02}, nil)
		seg.SetTap(func(from string, data []byte) { pw.WritePacket(s.Now(), data) })
		ccfg := hardened(tcp.Config{InitialWindow: 32 << 10,
			UserTimeout: userTimeout, BackoffCeiling: ceiling})
		ccfg.Flight = crec
		scfg := hardened(tcp.Config{InitialWindow: 32 << 10, MemoryLimit: 1 << 20,
			UserTimeout: userTimeout, BackoffCeiling: ceiling})
		scfg.Flight = srec
		if !heal {
			// The server side of a never-healed partition has no
			// retransmissions pending, so only keepalive can reap it
			// (and its reassembly-buffer charges) — see
			// TestKeepalivePartitionAborts for the focused version.
			scfg.Keepalive = true
			scfg.KeepaliveIdle = 8 * time.Second
			scfg.KeepaliveCount = 3
		}
		client, server := buildPair(s, seg, ccfg, scfg)

		var rcv bytes.Buffer
		server.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler {
			return tcp.Handler{
				Data:       func(c *tcp.Conn, d []byte) { rcv.Write(d) },
				PeerClosed: func(c *tcp.Conn) { c.Shutdown() },
			}
		})

		var cerrs []error
		var abortAt sim.Time
		conn, err := client.TCP.Open(server.A, 80, tcp.Handler{
			Error: func(c *tcp.Conn, err error) { cerrs = append(cerrs, err); abortAt = s.Now() },
		})
		if err != nil {
			t.Errorf("seed %d open: %v", seed, err)
			return
		}
		// The schedule's offsets are measured from an established
		// connection: the faults stress the transfer, not the handshake.
		runner := fault.Start(s, seg, sc, fault.Options{
			MIB:       mib,
			Recorders: []*flight.Recorder{crec, srec},
			PortAlias: map[string]string{"C": client.A.String(), "S": server.A.String()},
		})
		start := s.Now()
		werr := conn.Write(payload)
		if heal {
			if werr != nil {
				t.Errorf("seed %d write: %v", seed, werr)
				return
			}
			if err := conn.Close(); err != nil {
				t.Errorf("seed %d close: %v", seed, err)
				return
			}
			bound := sim.Time(sc.Horizon()) + sim.Time(sc.Outage()) + sim.Time(userTimeout)
			deadline := start + bound
			for rcv.Len() < len(payload) && s.Now() < deadline {
				s.Sleep(5 * time.Millisecond)
			}
			elapsed := sim.Duration(s.Now() - start)
			if !bytes.Equal(rcv.Bytes(), payload) {
				t.Errorf("seed %d: delivered %d/%d bytes or corrupt stream within the %v bound",
					seed, rcv.Len(), len(payload), sim.Duration(bound))
			}
			if len(cerrs) != 0 {
				t.Errorf("seed %d: connection errors %v on a fully-healed schedule", seed, cerrs)
			}
			healAt := sim.Time(9 * time.Second) // the schedule's heal offset
			recovery := sim.Duration(0)
			if done := s.Now(); done > start+healAt && rcv.Len() == len(payload) {
				recovery = sim.Duration(done - (start + healAt))
			}
			t.Logf("seed %d recover: elapsed %v (bound %v), post-heal recovery %v, retransmits %d",
				seed, elapsed, sim.Duration(bound), recovery, conn.Stats().Retransmits)
			s.Sleep(5 * time.Second) // drain FINs and delayed ACKs
		} else {
			// A writer blocked on buffer space is woken by the abort and
			// gets the progress-timeout error straight from Write — the
			// distinguishable ETIMEDOUT-style surface the fault plane
			// promises. A small payload could also be fully buffered
			// before the split, in which case Write returns nil and the
			// error arrives through the handler instead.
			if werr != nil && werr != tcp.ErrProgressTimeout {
				t.Errorf("seed %d write: %v, want nil or ErrProgressTimeout", seed, werr)
				return
			}
			// The split at 1s strands unacked data in the client's
			// retransmission queue; the progress timeout must fire.
			partitionAt := start + sim.Time(time.Second)
			deadline := partitionAt + sim.Time(userTimeout) + 2*sim.Time(ceiling) + sim.Time(2*time.Second)
			for len(cerrs) == 0 && s.Now() < deadline {
				s.Sleep(10 * time.Millisecond)
			}
			if len(cerrs) == 0 || cerrs[0] != tcp.ErrProgressTimeout {
				t.Errorf("seed %d: client errors %v by %v, want [ErrProgressTimeout]",
					seed, cerrs, sim.Duration(deadline-start))
			} else {
				t.Logf("seed %d abort: progress timeout after %v of partition (bound %v)",
					seed, sim.Duration(abortAt-partitionAt), sim.Duration(deadline-partitionAt))
			}
			if err := conn.Write([]byte("x")); err != tcp.ErrProgressTimeout {
				t.Errorf("seed %d: Write after abort = %v, want sticky ErrProgressTimeout", seed, err)
			}
			// The abort shows in the registry's hard group, not only in
			// the error: exactly one, on the client; the server's half
			// dies by keepalive, which is not a progress timeout.
			if c, sv := client.H.ProgressTimeouts.Load(), server.H.ProgressTimeouts.Load(); c != 1 || sv != 0 {
				t.Errorf("seed %d: hard.ProgressTimeouts client %d server %d, want 1 and 0", seed, c, sv)
			}
			// Keepalive reaps the server's half within its own bound.
			srvDeadline := s.Now() + sim.Time(time.Minute)
			for server.TCP.ActiveConns() > 0 && s.Now() < srvDeadline {
				s.Sleep(50 * time.Millisecond)
			}
			if n := server.TCP.ActiveConns(); n != 0 {
				t.Errorf("seed %d: server still holds %d connections after keepalive bound", seed, n)
			}
		}

		// Memory accounts drain to zero on both sides — a partition
		// storm must not pin the endpoint at its MemoryLimit ceiling.
		if client.H.MemBytes.High() == 0 {
			t.Errorf("seed %d: client account never charged; drain assertion vacuous", seed)
		}
		if m := client.H.MemBytes.Load(); m != 0 {
			t.Errorf("seed %d: client memory account holds %d bytes after soak, want 0", seed, m)
		}
		if m := server.H.MemBytes.Load(); m != 0 {
			t.Errorf("seed %d: server memory account holds %d bytes after soak, want 0", seed, m)
		}

		if !runner.Done() || runner.Applied() != len(sc.Transitions) {
			t.Errorf("seed %d: schedule applied %d/%d transitions (done=%v)",
				seed, runner.Applied(), len(sc.Transitions), runner.Done())
		}
		if got := mib.Transitions.Load(); got != uint64(len(sc.Transitions)) {
			t.Errorf("seed %d: FaultMIB.Transitions = %d, want %d", seed, got, len(sc.Transitions))
		}
		if heal {
			if a := mib.Active.Load(); a != 0 {
				t.Errorf("seed %d: %d fault conditions still active after a fully-cleared schedule", seed, a)
			}
		}
	})

	if err := crec.Sync(); err != nil {
		t.Errorf("seed %d client journal sync: %v", seed, err)
	}
	if err := srec.Sync(); err != nil {
		t.Errorf("seed %d server journal sync: %v", seed, err)
	}
	auditFaultJournal(t, seed, name, "client", csink, len(sc.Transitions))
	auditFaultJournal(t, seed, name, "server", ssink, len(sc.Transitions))

	if t.Failed() {
		files := map[string][]byte{
			"wire.pcap":      capture.Bytes(),
			name + ".fsched": []byte(text),
		}
		for _, sink := range []*seal.MemSink{csink, ssink} {
			for i, b := range sink.Segs {
				files[seal.SegmentName(sink.Prefix, i)] = b.Bytes()
			}
		}
		dumpArtifacts(t, seed, name, files)
	}
}

// auditFaultJournal: the sealed chain verifies, the journal carries the
// full fault timeline as observer records, and the sharded parallel
// replay reproduces every recorded TCB delta with those records present.
func auditFaultJournal(t *testing.T, seed uint64, arm, who string, sink *seal.MemSink, wantFaults int) {
	t.Helper()
	id := fmt.Sprintf("seed %d %s %s", seed, arm, who)
	if _, err := seal.Verify(sink.Sources(), nil); err != nil {
		t.Errorf("%s verify: %v", id, err)
		return
	}
	var recs []flight.Record
	for i, b := range sink.Segs {
		part, err := flight.ReadAll(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Errorf("%s segment %d: %v", id, i, err)
			return
		}
		recs = append(recs, part...)
	}
	faults := 0
	for _, r := range recs {
		if r.Kind == flight.KindFault {
			faults++
		}
	}
	if faults != wantFaults {
		t.Errorf("%s: journal carries %d fault records, want %d", id, faults, wantFaults)
	}
	res, err := tcp.ReplayJournalParallel(recs, 4)
	if err != nil {
		t.Errorf("%s replay: %v", id, err)
		return
	}
	for _, d := range res.Divergences {
		t.Errorf("%s replay divergence: %v", id, d)
	}
}

// dumpArtifacts writes a failing run's schedule, sealed journal
// segments, and pcap into $CHAOS_OUT for the CI job to upload.
func dumpArtifacts(t *testing.T, seed uint64, arm string, files map[string][]byte) {
	t.Helper()
	dir := os.Getenv("CHAOS_OUT")
	if dir == "" {
		return
	}
	sub := filepath.Join(dir, fmt.Sprintf("fault_seed%d_%s", seed, arm))
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Logf("chaos artifacts: %v", err)
		return
	}
	for name, data := range files {
		path := filepath.Join(sub, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Logf("chaos artifacts: %v", err)
			continue
		}
		t.Logf("chaos artifact: %s (%d bytes)", path, len(data))
	}
}

// TestPartitionSoak: both arms at every fixed seed.
func TestPartitionSoak(t *testing.T) {
	for _, seed := range []uint64{1, 3, 5, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runPartitionSoak(t, seed, true)
			runPartitionSoak(t, seed, false)
		})
	}
}
