package adversary_test

// Soak tests: a three-host network (client, server, attacker) where the
// adversary package drives the hostile traffic the hardening in
// internal/tcp exists to absorb. Everything — wire loss, attack pacing,
// sequence guessing — derives from one seed, so every run of a given
// seed replays identically and the assertions can be exact.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/arp"
	"repro/internal/ethernet"
	"repro/internal/flight"
	"repro/internal/flight/seal"
	"repro/internal/ip"
	"repro/internal/pcap"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/wire"
)

type host struct {
	TCP *tcp.TCP
	A   ip.Addr
	H   *stats.HardenMIB
}

type rig struct {
	client, server host
	// adv speaks from the attacker's own address (10.0.0.3): floods and
	// junk whose replies it swallows. spoof forges the client's address
	// (10.0.0.1), the blind-injection threat model of RFC 5961.
	adv   *adversary.Attacker
	spoof *adversary.Attacker
}

// build assembles client (host 1), server (host 2), and attacker
// (host 3) on one wire segment with static ARP all around.
func build(s *sim.Scheduler, seg *wire.Segment, ccfg, scfg tcp.Config, seed uint64) rig {
	statics := func(res *arp.ARP) {
		for n := byte(1); n <= 3; n++ {
			res.AddStatic(ip.HostAddr(n), ethernet.HostAddr(n))
		}
	}
	mk := func(n byte, cfg tcp.Config) host {
		addr := ip.HostAddr(n)
		port := seg.NewPort(addr.String(), nil)
		eth := ethernet.New(port, ethernet.HostAddr(n), ethernet.Config{})
		res := arp.New(s, eth, addr, arp.Config{})
		statics(res)
		ipl := ip.New(s, eth, res, ip.Config{Local: addr})
		return host{TCP: tcp.New(s, ipl.Network(ip.ProtoTCP), cfg), A: addr, H: cfg.Harden}
	}
	r := rig{client: mk(1, ccfg), server: mk(2, scfg)}

	addr := ip.HostAddr(3)
	port := seg.NewPort(addr.String(), nil)
	eth := ethernet.New(port, ethernet.HostAddr(3), ethernet.Config{})
	res := arp.New(s, eth, addr, arp.Config{})
	statics(res)
	own := ip.New(s, eth, res, ip.Config{Local: addr})
	r.adv = adversary.New(s, own.Network(ip.ProtoTCP), seed)
	// A second IP layer on the same interface with the client's address
	// forges the source of every packet it sends. It also takes over
	// inbound demux for the interface, where it drops everything (the
	// datagrams are addressed to host 3, not its forged identity) — so
	// the attacker never answers a SYN-ACK, exactly like a real flood.
	forged := ip.New(s, eth, res, ip.Config{Local: ip.HostAddr(1)})
	r.spoof = adversary.New(s, forged.Network(ip.ProtoTCP), seed^0x9e3779b97f4a7c15)
	return r
}

func hardenCfg(over tcp.Config) tcp.Config {
	over.Harden = &stats.HardenMIB{}
	return over
}

// TestSynFloodBoundsHalfOpen: 1000 SYNs against a 32-entry backlog. The
// table must never exceed its bound, every overflow must evict (and be
// counted), a legitimate client must still get in afterward, and the
// flood's half-open residue must be reclaimed once it times out.
func TestSynFloodBoundsHalfOpen(t *testing.T) {
	s := sim.New(sim.Config{})
	s.Run(func() {
		seg := wire.NewSegment(s, wire.Config{}, nil)
		r := build(s, seg, hardenCfg(tcp.Config{}), hardenCfg(tcp.Config{MaxSynBacklog: 32}), 1)
		r.server.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { return tcp.Handler{} })

		// 50µs pacing is right at the wire's serialization rate, so the
		// flood queues behind the victim's own SYN-ACKs; give the medium
		// a full second to drain before reading the counters.
		r.adv.SynFlood(r.server.A, 80, 1000, 50*time.Microsecond)
		s.Sleep(time.Second)

		h := r.server.H
		if got := h.HalfOpen.High(); got > 32 {
			t.Fatalf("half-open high-water %d exceeds backlog 32", got)
		}
		if got := h.SynQueueOverflows.Load(); got != 968 {
			t.Fatalf("SynQueueOverflows = %d, want 968", got)
		}
		// The flood does not lock out a real client: its SYN evicts the
		// oldest half-open and completes normally.
		conn, err := r.client.TCP.Open(r.server.A, 80, tcp.Handler{})
		if err != nil {
			t.Fatalf("legitimate open during flood residue: %v", err)
		}
		if conn.State() != tcp.StateEstab {
			t.Fatalf("legitimate conn state %v", conn.State())
		}
		// The 32 stranded half-opens give up at the user timeout and are
		// reclaimed; only the real connection remains.
		s.Sleep(2 * time.Minute)
		if n := r.server.TCP.ActiveConns(); n != 1 {
			t.Fatalf("server holds %d connections after flood residue expired, want 1", n)
		}
	})
}

// TestBlindRstSweepKillsNothing: a spoofed attacker sweeps RSTs across
// the server's entire receive window. RFC 5961 demands the connection
// survive every probe, each answered (or rate-limit-suppressed) by a
// challenge ACK — and that the one exact-sequence RST still resets.
func TestBlindRstSweepKillsNothing(t *testing.T) {
	s := sim.New(sim.Config{})
	s.Run(func() {
		seg := wire.NewSegment(s, wire.Config{}, nil)
		r := build(s, seg, hardenCfg(tcp.Config{}), hardenCfg(tcp.Config{}), 2)
		var serverConn *tcp.Conn
		got := 0
		r.server.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler {
			serverConn = c
			return tcp.Handler{Data: func(c *tcp.Conn, d []byte) { got += len(d) }}
		})
		conn, err := r.client.TCP.Open(r.server.A, 80, tcp.Handler{})
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Write(make([]byte, 20<<10)); err != nil {
			t.Fatal(err)
		}
		s.Sleep(2 * time.Second) // transfer done; sequence numbers static
		if got != 20<<10 {
			t.Fatalf("transfer delivered %d bytes", got)
		}

		st := serverConn.Stats()
		target := adversary.Target{Addr: r.server.A, SrcPort: conn.LocalPort(), DstPort: 80}
		probes := r.spoof.Sweep(target, adversary.RST, st.RcvNxt+1, int(st.RecvWindow)-1, 7, nil, 0)
		s.Sleep(time.Second)

		if serverConn.State() != tcp.StateEstab {
			t.Fatalf("blind RST sweep killed the connection (state %v)", serverConn.State())
		}
		h := r.server.H
		if acct := h.ChallengeACKsSent.Load() + h.ChallengeACKsSuppressed.Load(); acct != uint64(probes) {
			t.Fatalf("%d probes but %d challenge decisions", probes, acct)
		}
		// The exact-sequence RST is the one RFC 5961 still honors.
		r.spoof.Sweep(target, adversary.RST, st.RcvNxt, 1, 1, nil, 0)
		s.Sleep(100 * time.Millisecond)
		if serverConn.State() != tcp.StateClosed {
			t.Fatalf("exact-sequence RST did not reset (state %v)", serverConn.State())
		}
	})
}

// TestGapBombMemoryBounded: thousands of spoofed one-byte segments, each
// opening a new reassembly hole, must pin neither the connection nor the
// endpoint: the per-segment overhead charge caps the queue far below the
// raw segment count and the memory account stays under its limit.
func TestGapBombMemoryBounded(t *testing.T) {
	s := sim.New(sim.Config{})
	s.Run(func() {
		seg := wire.NewSegment(s, wire.Config{}, nil)
		scfg := hardenCfg(tcp.Config{ReassemblyLimit: 2048})
		r := build(s, seg, hardenCfg(tcp.Config{}), scfg, 3)
		var serverConn *tcp.Conn
		r.server.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler {
			serverConn = c
			return tcp.Handler{}
		})
		conn, err := r.client.TCP.Open(r.server.A, 80, tcp.Handler{})
		if err != nil {
			t.Fatal(err)
		}
		st := serverConn.Stats()
		target := adversary.Target{Addr: r.server.A, SrcPort: conn.LocalPort(), DstPort: 80}
		// Stride 2 keeps every byte in-window but non-contiguous: 2000
		// probes all land as distinct reassembly holes.
		r.spoof.GapBomb(target, st.RcvNxt, 2000, 2, 10*time.Microsecond)
		s.Sleep(time.Second)

		if serverConn.State() != tcp.StateEstab {
			t.Fatalf("gap bomb killed the connection (state %v)", serverConn.State())
		}
		h := r.server.H
		if h.OOOEvictions.Load() == 0 {
			t.Fatal("reassembly cap never evicted under gap bomb")
		}
		// The account charges an arriving segment before evicting down to
		// the cap, so the high-water may briefly exceed it by one
		// segment's cost — but never by more.
		if hi := h.MemBytes.High(); hi > 2048+256 {
			t.Fatalf("memory high-water %d exceeds the 2048-byte reassembly cap plus one segment", hi)
		}
	})
}

// legalTransitions is RFC 793's state diagram with the paper's
// Syn_Active/Syn_Passive refinement. Any state may additionally fall to
// Closed (reset, abort, reclamation).
var legalTransitions = map[string][]string{
	"Closed":      {"Listen", "Syn_Sent"},
	"Listen":      {"Syn_Passive"},
	"Syn_Sent":    {"Syn_Active", "Estab"},
	"Syn_Active":  {"Estab", "Fin_Wait_1"},
	"Syn_Passive": {"Estab", "Fin_Wait_1"},
	"Estab":       {"Fin_Wait_1", "Close_Wait"},
	"Fin_Wait_1":  {"Fin_Wait_2", "Closing", "Time_Wait"},
	"Fin_Wait_2":  {"Time_Wait"},
	"Close_Wait":  {"Last_Ack"},
	"Closing":     {"Time_Wait"},
	"Last_Ack":    {},
	"Time_Wait":   {},
}

// assertLegalTransitions checks every state transition one endpoint's
// journal recorded. A journal without any fails: an empty source would
// otherwise pass.
func assertLegalTransitions(t *testing.T, who string, recs []flight.Record) {
	t.Helper()
	n := 0
	for _, e := range flight.Events(recs) {
		if e.EvKind != tcp.EventState {
			continue
		}
		n++
		from, to := tcp.State(e.EvA).String(), tcp.State(e.EvB).String()
		if to == "Closed" {
			continue
		}
		ok := false
		for _, l := range legalTransitions[from] {
			if l == to {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("%s: illegal state transition %s -> %s on %s", who, from, to, e.Conn)
		}
	}
	if n == 0 {
		t.Fatalf("%s: journal records no state transitions", who)
	}
}

type soakResult struct {
	elapsed      sim.Duration
	halfOpenHigh int64
	memHigh      int64
	challenges   uint64
	sender       tcp.ConnStats
}

// runSoak transfers 2 MiB over a 5%-lossy wire, optionally under
// simultaneous SYN flood, junk flood, spoofed SYN sweeps, blind RSTs at
// guessed sequence numbers, and gap bombs, and reports elapsed virtual
// time plus the server's hardening high-waters.
func runSoak(t *testing.T, seed uint64, attack bool) soakResult {
	t.Helper()
	var res soakResult
	payload := make([]byte, 2<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	// Both endpoints journal through the seal writer into memory; after
	// the run each journal is chain-verified and replay-audited (sharded
	// across workers), so every soak seed doubles as a determinism proof
	// AND a tamper-evidence proof. On failure the journals (and a pcap of
	// the whole wire) land in $CHAOS_OUT for offline foxreplay analysis.
	var capture, cjournal, sjournal bytes.Buffer
	crec := flight.NewRecorder(seal.NewWriter(&cjournal))
	srec := flight.NewRecorder(seal.NewWriter(&sjournal))
	pw := pcap.NewWriter(&capture)
	s := sim.New(sim.Config{})
	s.Run(func() {
		seg := wire.NewSegment(s, wire.Config{Seed: seed, Loss: 0.05}, nil)
		seg.SetTap(func(from string, data []byte) { pw.WritePacket(s.Now(), data) })
		// A 32 KiB window keeps enough segments in flight that loss
		// recovery is mostly fast retransmit, not RTO roulette — without
		// it, elapsed time is dominated by whether the seed's loss
		// pattern happens to hit consecutive retransmissions, and the
		// attack/no-attack comparison drowns in that variance.
		scfg := hardenCfg(tcp.Config{MaxSynBacklog: 32, MemoryLimit: 1 << 20, InitialWindow: 32 << 10, UserTimeout: 10 * time.Minute})
		scfg.Flight = srec
		ccfg := hardenCfg(tcp.Config{InitialWindow: 32 << 10, UserTimeout: 10 * time.Minute})
		ccfg.Flight = crec
		r := build(s, seg, ccfg, scfg, seed)

		var rcv bytes.Buffer
		var serverConn *tcp.Conn
		r.server.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler {
			serverConn = c
			return tcp.Handler{
				Data:       func(c *tcp.Conn, d []byte) { rcv.Write(d) },
				PeerClosed: func(c *tcp.Conn) { c.Shutdown() },
			}
		})
		conn, err := r.client.TCP.Open(r.server.A, 80, tcp.Handler{})
		if err != nil {
			t.Errorf("seed %d open: %v", seed, err)
			return
		}
		start := s.Now()
		if attack {
			target := func() adversary.Target {
				return adversary.Target{Addr: r.server.A, SrcPort: conn.LocalPort(), DstPort: 80}
			}
			s.Fork("syn-flood", func() {
				r.adv.SynFlood(r.server.A, 80, 300, 2*time.Millisecond)
			})
			s.Fork("junk-flood", func() {
				r.adv.JunkFlood(r.server.A, 400, time.Millisecond)
			})
			s.Fork("syn-sweep", func() {
				// In-window SYNs: always challenge-ACKed, never lethal,
				// aimed with the live left window edge.
				for i := 0; i < 30; i++ {
					if serverConn != nil {
						st := serverConn.Stats()
						r.spoof.Sweep(target(), adversary.SYN, st.RcvNxt, int(st.RecvWindow), 256, nil, 0)
					}
					s.Sleep(15 * time.Millisecond)
				}
			})
			s.Fork("blind-rst", func() {
				// A truly blind attacker guesses 32-bit sequence numbers;
				// bursts of consecutive RSTs from random bases.
				for i := 0; i < 30; i++ {
					r.spoof.Sweep(target(), adversary.RST, r.spoof.Rand().Uint32(), 64, 1, nil, 0)
					s.Sleep(15 * time.Millisecond)
				}
			})
			s.Fork("gap-bomb", func() {
				for i := 0; i < 20; i++ {
					r.spoof.GapBomb(target(), r.spoof.Rand().Uint32(), 64, 2, 0)
					s.Sleep(20 * time.Millisecond)
				}
			})
		}
		if err := conn.Write(payload); err != nil {
			t.Errorf("seed %d write: %v", seed, err)
			return
		}
		if err := conn.Close(); err != nil {
			t.Errorf("seed %d close: %v", seed, err)
			return
		}
		deadline := s.Now() + sim.Time(20*time.Minute)
		for rcv.Len() < len(payload) && s.Now() < deadline {
			s.Sleep(5 * time.Millisecond)
		}
		res.elapsed = sim.Duration(s.Now() - start)
		if !bytes.Equal(rcv.Bytes(), payload) {
			t.Errorf("seed %d attack=%v: delivered %d/%d bytes or corrupt stream",
				seed, attack, rcv.Len(), len(payload))
		}
		res.sender = conn.Stats()
		res.halfOpenHigh = r.server.H.HalfOpen.High()
		res.memHigh = r.server.H.MemBytes.High()
		res.challenges = r.server.H.ChallengeACKsSent.Load() + r.server.H.ChallengeACKsSuppressed.Load()
	})
	if err := crec.Sync(); err != nil {
		t.Errorf("seed %d client journal sync: %v", seed, err)
	}
	if err := srec.Sync(); err != nil {
		t.Errorf("seed %d server journal sync: %v", seed, err)
	}
	auditSealed(t, seed, attack, "client", cjournal.Bytes())
	auditSealed(t, seed, attack, "server", sjournal.Bytes())
	if t.Failed() {
		dumpArtifacts(t, seed, attack, map[string][]byte{
			"wire.pcap":  capture.Bytes(),
			"client.fjl": cjournal.Bytes(),
			"server.fjl": sjournal.Bytes(),
		})
	}
	return res
}

// auditSealed audits one endpoint's sealed journal end to end: the seal
// chain verifies, every state transition it records is legal, the
// sharded parallel replay reproduces every recorded TCB delta, and the
// journal is tamper-evident (auditTamper).
func auditSealed(t *testing.T, seed uint64, attack bool, who string, journal []byte) {
	t.Helper()
	id := fmt.Sprintf("seed %d attack=%v %s", seed, attack, who)
	if _, err := seal.Verify(bytes.NewReader(journal)); err != nil {
		t.Errorf("%s verify: %v", id, err)
		return
	}
	recs, err := flight.ReadAll(bytes.NewReader(journal))
	if err != nil {
		t.Errorf("%s: %v", id, err)
		return
	}
	assertLegalTransitions(t, id, recs)
	res, err := tcp.ReplayJournalParallel(recs, 4)
	if err != nil {
		t.Errorf("%s replay: %v", id, err)
		return
	}
	for _, d := range res.Divergences {
		t.Errorf("%s replay divergence: %v", id, d)
	}
	auditTamper(t, id, journal)
}

// auditTamper: each of eight single-bit flips at evenly spaced offsets
// fails verification, naming the flipped byte's frame or a batch that
// spans it; and at four evenly spaced places inside a batch, a cut at a
// record boundary fails as an unsealed tail and a cut one byte later as
// a truncated frame.
func auditTamper(t *testing.T, id string, journal []byte) {
	t.Helper()
	var starts []int64          // every frame's offset
	sealEnd := map[int64]bool{} // offsets just past a seal: batch boundaries
	sc := flight.NewScanner(bytes.NewReader(journal))
	for prevSeal := false; ; {
		rec, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		sealEnd[sc.Offset()] = prevSeal
		starts = append(starts, sc.Offset())
		prevSeal = rec.Kind == flight.KindSeal
	}
	frameAt := func(pos int64) int { // index of the frame holding byte pos
		return sort.Search(len(starts), func(i int) bool { return starts[i] > pos }) - 1
	}
	data := append([]byte(nil), journal...)
	for k := int64(1); k <= 8; k++ {
		pos := k * int64(len(data)) / 9
		at := starts[frameAt(pos)]
		data[pos] ^= 0x10
		_, err := seal.Verify(bytes.NewReader(data))
		data[pos] ^= 0x10
		var ve *seal.VerifyError
		var co *flight.Corruption
		switch {
		case errors.As(err, &ve) && ve.Offset <= at && at <= ve.SealOffset:
		case errors.As(err, &co) && co.Offset == at:
		default:
			t.Errorf("%s: bit flip at %d (frame at %d) not located: %v", id, pos, at, err)
		}
	}
	for k := int64(1); k <= 4; k++ {
		i := frameAt(k * int64(len(data)) / 5)
		for i == 0 || sealEnd[starts[i]] {
			i++ // a batch boundary: step inside the batch
		}
		for _, cut := range []int64{starts[i], starts[i] + 1} {
			_, err := seal.Verify(bytes.NewReader(data[:cut]))
			var ve *seal.VerifyError
			var co *flight.Corruption
			switch {
			case cut == starts[i] && errors.As(err, &ve) && strings.Contains(ve.Reason, "unsealed tail"):
			case cut > starts[i] && errors.As(err, &co) && strings.Contains(co.Err.Error(), "truncated"):
			default:
				t.Errorf("%s: cut at %d not rejected as a cut: %v", id, cut, err)
			}
		}
	}
}

// dumpArtifacts writes the failing run's evidence into $CHAOS_OUT, where
// the CI job uploads it (and a developer runs foxreplay on it).
func dumpArtifacts(t *testing.T, seed uint64, attack bool, files map[string][]byte) {
	t.Helper()
	dir := os.Getenv("CHAOS_OUT")
	if dir == "" {
		return
	}
	sub := filepath.Join(dir, fmt.Sprintf("seed%d_attack%v", seed, attack))
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

// TestChaosSoak: for each seed, the same lossy transfer runs attack-free
// and under the full attack mix. Liveness: goodput under attack within
// 2× of the attack-free run. Safety: bounded half-open table, bounded
// memory, only legal state-machine transitions (checked in runSoak).
func TestChaosSoak(t *testing.T) {
	for _, seed := range []uint64{1, 3, 5, 7} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			base := runSoak(t, seed, false)
			atk := runSoak(t, seed, true)
			if base.elapsed <= 0 || atk.elapsed <= 0 {
				t.Fatalf("degenerate elapsed times: base %v attack %v", base.elapsed, atk.elapsed)
			}
			if atk.elapsed > 2*base.elapsed {
				t.Fatalf("goodput collapsed under attack: %v vs %v attack-free (limit 2x)",
					atk.elapsed, base.elapsed)
			}
			if atk.halfOpenHigh > 32 {
				t.Fatalf("half-open high-water %d exceeds backlog 32", atk.halfOpenHigh)
			}
			if atk.memHigh > 1<<20 {
				t.Fatalf("memory high-water %d exceeds 1 MiB limit", atk.memHigh)
			}
			if atk.challenges == 0 {
				t.Fatal("attack run provoked no challenge-ACK decisions")
			}
			t.Logf("seed %d: base %v attack %v halfOpenHigh %d memHigh %d challenges %d",
				seed, base.elapsed, atk.elapsed, atk.halfOpenHigh, atk.memHigh, atk.challenges)
			t.Logf("seed %d sender: base rexmit %d dupack %d / attack rexmit %d dupack %d",
				seed, base.sender.Retransmits, base.sender.DupAcks, atk.sender.Retransmits, atk.sender.DupAcks)
		})
	}
}
