package tcp

// These tests realize the paper's test structure: "For each module we
// have written test code ... it helps point out implementation defects by
// comparing the TCB produced by the operation with the TCB expected in
// accordance with the standard." Each test drives one module (Receive,
// Send, Resend, State) directly, with a fake lower layer, and asserts the
// exact TCB fields the standard prescribes. Thanks to the
// quasi-synchronous control structure the outcomes are deterministic.

import (
	"testing"
	"time"

	"repro/internal/basis"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// fakeAddr is a comparable lower-layer address for tests.
type fakeAddr string

func (f fakeAddr) String() string { return string(f) }

// fakeNet is a protocol.Network that records every outgoing segment, or
// with discard set only counts them (and so allocates nothing).
type fakeNet struct {
	local   fakeAddr
	h       protocol.Handler
	sent    []*segment
	discard bool
	frames  int
}

func (f *fakeNet) LocalAddr() protocol.Address { return f.local }
func (f *fakeNet) Attach(h protocol.Handler)   { f.h = h }
func (f *fakeNet) MTU() int                    { return 1000 + headerLen }
func (f *fakeNet) Headroom() int               { return 0 }
func (f *fakeNet) Tailroom() int               { return 0 }
func (f *fakeNet) PseudoHeaderChecksum(dst protocol.Address, length int) uint16 {
	return 0
}
func (f *fakeNet) Send(dst protocol.Address, pkt *basis.Packet) error {
	f.frames++
	if f.discard {
		return nil
	}
	sg, err := unmarshal(pkt, 0, false)
	if err != nil {
		panic(err)
	}
	// Send borrows pkt: what outlives the call must be copied out.
	sg.data = append([]byte(nil), sg.data...)
	f.sent = append(f.sent, sg)
	return nil
}

// unmarshal is segment.unmarshal into a fresh segment, the form most
// tests want.
func unmarshal(pkt *basis.Packet, pseudo uint16, verify bool) (*segment, error) {
	sg := new(segment)
	if err := sg.unmarshal(pkt, pseudo, verify); err != nil {
		return nil, err
	}
	return sg, nil
}

func (f *fakeNet) take() []*segment {
	s := f.sent
	f.sent = nil
	return s
}

// harness builds an endpoint over a fake network and a connection forced
// into the given state with a synchronized sequence space:
// iss=1000 (snd_una=snd_nxt=1001), irs=5000 (rcv_nxt=5001), window 4096.
func harness(s *sim.Scheduler, state State, cfg Config) (*TCP, *Conn, *fakeNet) {
	fn := &fakeNet{local: "local"}
	ep := New(s, fn, cfg)
	key := connKey{raddr: fakeAddr("peer"), rport: 80, lport: 4000}
	c := newConn(ep, key)
	ep.conns[key] = c
	c.state = state
	tcb := c.tcb
	tcb.iss = 1000
	tcb.sndUna, tcb.sndNxt = 1001, 1001
	tcb.irs = 5000
	tcb.rcvNxt = 5001
	tcb.sndWnd = 4096
	tcb.maxWnd = 4096
	tcb.sndWl1, tcb.sndWl2 = 5000, 1001
	tcb.mss = 1000
	tcb.cwnd = 1 << 20 // wide open unless a test narrows it
	tcb.ssthresh = 0xffff
	c.openDone = true
	return ep, c, fn
}

// inject runs one segment through the connection's quasi-synchronous
// queue, as the endpoint handler would.
func inject(c *Conn, sg *segment) {
	if sg.srcPort == 0 {
		sg.srcPort, sg.dstPort = 80, 4000
	}
	c.enqueue(action{kind: actProcessData, seg: sg})
	c.run()
}

func inSim(t *testing.T, fn func(s *sim.Scheduler)) {
	t.Helper()
	s := sim.New(sim.Config{})
	s.Run(func() { fn(s) })
}

// --- Receive module ---------------------------------------------------

func TestReceiveInOrderDataAdvancesRcvNxt(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, fn := harness(s, StateEstab, Config{})
		var delivered []byte
		c.handler = Handler{Data: func(c *Conn, d []byte) { delivered = append(delivered, d...) }}
		inject(c, &segment{seq: 5001, ack: 1001, flags: flagACK, wnd: 4096, data: []byte("abcde")})
		if c.tcb.rcvNxt != 5006 {
			t.Fatalf("rcv_nxt = %d, want 5006", c.tcb.rcvNxt)
		}
		if string(delivered) != "abcde" {
			t.Fatalf("delivered %q", delivered)
		}
		// First in-order segment: the ACK is delayed, not sent.
		if len(fn.take()) != 0 {
			t.Fatal("ACK sent immediately despite delayed-ack policy")
		}
		if !c.tcb.timerSet[timerDelayedAck] {
			t.Fatal("delayed-ack timer not armed")
		}
	})
}

func TestReceiveSecondSegmentForcesAck(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, fn := harness(s, StateEstab, Config{})
		inject(c, &segment{seq: 5001, ack: 1001, flags: flagACK, wnd: 4096, data: make([]byte, 1000)})
		inject(c, &segment{seq: 6001, ack: 1001, flags: flagACK, wnd: 4096, data: make([]byte, 1000)})
		sent := fn.take()
		if len(sent) != 1 || !sent[0].has(flagACK) || sent[0].ack != 7001 {
			t.Fatalf("want one ACK of 7001, got %v", sent)
		}
	})
}

func TestReceiveOutOfOrderHeldAndAcked(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, fn := harness(s, StateEstab, Config{})
		inject(c, &segment{seq: 5101, ack: 1001, flags: flagACK, wnd: 4096, data: []byte("later")})
		tcb := c.tcb
		if tcb.rcvNxt != 5001 {
			t.Fatalf("rcv_nxt moved to %d on out-of-order data", tcb.rcvNxt)
		}
		if len(tcb.outOfOrder) != 1 {
			t.Fatalf("out_of_order holds %d segments", len(tcb.outOfOrder))
		}
		sent := fn.take()
		if len(sent) != 1 || sent[0].ack != 5001 {
			t.Fatalf("expected immediate duplicate ACK of 5001, got %v", sent)
		}
	})
}

func TestReceiveHoleFilledDrainsOutOfOrder(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, _ := harness(s, StateEstab, Config{})
		var delivered []byte
		c.handler = Handler{Data: func(c *Conn, d []byte) { delivered = append(delivered, d...) }}
		inject(c, &segment{seq: 5004, ack: 1001, flags: flagACK, wnd: 4096, data: []byte("def")})
		inject(c, &segment{seq: 5001, ack: 1001, flags: flagACK, wnd: 4096, data: []byte("abc")})
		if c.tcb.rcvNxt != 5007 {
			t.Fatalf("rcv_nxt = %d, want 5007", c.tcb.rcvNxt)
		}
		if string(delivered) != "abcdef" {
			t.Fatalf("delivered %q", delivered)
		}
		if len(c.tcb.outOfOrder) != 0 {
			t.Fatal("out_of_order not drained")
		}
	})
}

func TestReceiveOverlappingRetransmissionTrimmed(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, _ := harness(s, StateEstab, Config{})
		var delivered []byte
		c.handler = Handler{Data: func(c *Conn, d []byte) { delivered = append(delivered, d...) }}
		inject(c, &segment{seq: 5001, ack: 1001, flags: flagACK, wnd: 4096, data: []byte("abc")})
		// Peer retransmits from 5001 but with more data.
		inject(c, &segment{seq: 5001, ack: 1001, flags: flagACK, wnd: 4096, data: []byte("abcdef")})
		if string(delivered) != "abcdef" {
			t.Fatalf("delivered %q, want abcdef (no duplication)", delivered)
		}
		if c.tcb.rcvNxt != 5007 {
			t.Fatalf("rcv_nxt = %d", c.tcb.rcvNxt)
		}
	})
}

func TestReceiveStaleDuplicateProvokesAck(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, fn := harness(s, StateEstab, Config{})
		// Entirely before the window: unacceptable, ACK + drop.
		inject(c, &segment{seq: 4000, ack: 1001, flags: flagACK, wnd: 4096, data: []byte("old")})
		sent := fn.take()
		if len(sent) != 1 || sent[0].ack != 5001 {
			t.Fatalf("want corrective ACK of 5001, got %v", sent)
		}
		if c.tcb.rcvNxt != 5001 {
			t.Fatal("rcv_nxt moved")
		}
	})
}

func TestReceiveBeyondWindowTrimmedToEdge(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, _ := harness(s, StateEstab, Config{})
		c.tcb.rcvWnd = 4
		var delivered []byte
		c.handler = Handler{Data: func(c *Conn, d []byte) { delivered = append(delivered, d...) }}
		inject(c, &segment{seq: 5001, ack: 1001, flags: flagACK, wnd: 4096, data: []byte("abcdefgh")})
		if string(delivered) != "abcd" {
			t.Fatalf("delivered %q, want the 4 in-window bytes", delivered)
		}
	})
}

func TestReceiveRSTResetsEstablished(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		ep, c, _ := harness(s, StateEstab, Config{})
		var gotErr error
		c.handler = Handler{Error: func(c *Conn, err error) { gotErr = err }}
		inject(c, &segment{seq: 5001, flags: flagRST})
		if gotErr != ErrReset {
			t.Fatalf("err = %v", gotErr)
		}
		if c.state != StateClosed {
			t.Fatalf("state = %v", c.state)
		}
		if len(ep.conns) != 0 {
			t.Fatal("connection not removed from demux table")
		}
	})
}

func TestReceiveRSTOutsideWindowIgnored(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, _ := harness(s, StateEstab, Config{})
		inject(c, &segment{seq: 9999999, flags: flagRST})
		if c.state != StateEstab {
			t.Fatalf("blind RST tore down the connection (state %v)", c.state)
		}
	})
}

func TestReceiveSYNInWindowChallenged(t *testing.T) {
	// RFC 5961 §4.2: an in-window SYN on a synchronized connection no
	// longer resets it (that was the blind-injection hole); it draws a
	// challenge ACK carrying the exact expected sequence numbers.
	inSim(t, func(s *sim.Scheduler) {
		ep, c, fn := harness(s, StateEstab, Config{})
		var gotErr error
		c.handler = Handler{Error: func(c *Conn, err error) { gotErr = err }}
		inject(c, &segment{seq: 5100, flags: flagSYN})
		if gotErr != nil {
			t.Fatalf("err = %v", gotErr)
		}
		if c.state != StateEstab {
			t.Fatalf("in-window SYN tore down the connection (state %v)", c.state)
		}
		sent := fn.take()
		if len(sent) == 0 {
			t.Fatal("no challenge ACK emitted")
		}
		ch := sent[len(sent)-1]
		if !ch.has(flagACK) || ch.has(flagRST) || ch.has(flagSYN) || ch.ack != 5001 || ch.seq != 1001 {
			t.Fatalf("challenge ACK malformed: %v", ch)
		}
		if got := ep.cfg.Harden.ChallengeACKsSent.Load(); got != 1 {
			t.Fatalf("ChallengeACKsSent = %d", got)
		}
	})
}

func TestReceiveAckOfUnsentDataRejected(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, fn := harness(s, StateEstab, Config{})
		inject(c, &segment{seq: 5001, ack: 2000, flags: flagACK, wnd: 4096})
		if c.tcb.sndUna != 1001 {
			t.Fatalf("snd_una moved to %d", c.tcb.sndUna)
		}
		sent := fn.take()
		if len(sent) != 1 || sent[0].ack != 5001 {
			t.Fatalf("want corrective ACK, got %v", sent)
		}
	})
}

func TestReceiveFinMovesToCloseWait(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, fn := harness(s, StateEstab, Config{})
		peerClosed := false
		c.handler = Handler{PeerClosed: func(c *Conn) { peerClosed = true }}
		inject(c, &segment{seq: 5001, ack: 1001, flags: flagACK | flagFIN, wnd: 4096})
		if c.state != StateCloseWait {
			t.Fatalf("state = %v", c.state)
		}
		if c.tcb.rcvNxt != 5002 {
			t.Fatalf("rcv_nxt = %d (FIN occupies one sequence number)", c.tcb.rcvNxt)
		}
		if !peerClosed {
			t.Fatal("PeerClosed upcall missing")
		}
		sent := fn.take()
		if len(sent) != 1 || sent[0].ack != 5002 {
			t.Fatalf("FIN not immediately acked: %v", sent)
		}
	})
}

func TestReceiveFinWithDataDeliversThenCloses(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, _ := harness(s, StateEstab, Config{})
		var delivered []byte
		c.handler = Handler{Data: func(c *Conn, d []byte) { delivered = append(delivered, d...) }}
		inject(c, &segment{seq: 5001, ack: 1001, flags: flagACK | flagFIN, wnd: 4096, data: []byte("bye")})
		if string(delivered) != "bye" {
			t.Fatalf("delivered %q", delivered)
		}
		if c.tcb.rcvNxt != 5005 { // 3 data + 1 FIN
			t.Fatalf("rcv_nxt = %d", c.tcb.rcvNxt)
		}
		if c.state != StateCloseWait {
			t.Fatalf("state = %v", c.state)
		}
	})
}

func TestReceiveOutOfOrderFinWaitsForHole(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, _ := harness(s, StateEstab, Config{})
		inject(c, &segment{seq: 5004, ack: 1001, flags: flagACK | flagFIN, wnd: 4096})
		if c.state != StateEstab {
			t.Fatalf("out-of-order FIN processed early (state %v)", c.state)
		}
		inject(c, &segment{seq: 5001, ack: 1001, flags: flagACK, wnd: 4096, data: []byte("abc")})
		if c.state != StateCloseWait {
			t.Fatalf("state = %v after hole filled", c.state)
		}
		if c.tcb.rcvNxt != 5005 {
			t.Fatalf("rcv_nxt = %d", c.tcb.rcvNxt)
		}
	})
}

// --- Send module ------------------------------------------------------

func TestSendSegmentsAtMSS(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		// Nagle off so the sub-MSS tail flows immediately.
		_, c, fn := harness(s, StateEstab, Config{Nagle: Disable})
		c.tcb.queuePush(make([]byte, 2500))
		c.enqueue(action{kind: actMaybeSend})
		c.run()
		sent := fn.take()
		if len(sent) != 3 {
			t.Fatalf("sent %d segments, want 3", len(sent))
		}
		if len(sent[0].data) != 1000 || len(sent[1].data) != 1000 || len(sent[2].data) != 500 {
			t.Fatalf("segment sizes: %d %d %d", len(sent[0].data), len(sent[1].data), len(sent[2].data))
		}
		if sent[0].seq != 1001 || sent[1].seq != 2001 || sent[2].seq != 3001 {
			t.Fatalf("sequence numbers: %d %d %d", sent[0].seq, sent[1].seq, sent[2].seq)
		}
		if !sent[2].has(flagPSH) {
			t.Fatal("queue-draining segment missing PSH")
		}
		if c.tcb.sndNxt != 3501 {
			t.Fatalf("snd_nxt = %d", c.tcb.sndNxt)
		}
		if c.tcb.rexmitQ.Len() != 3 {
			t.Fatalf("retransmission queue holds %d", c.tcb.rexmitQ.Len())
		}
	})
}

func TestSendRespectsOfferedWindow(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, fn := harness(s, StateEstab, Config{})
		// A 1500-byte window admits one full MSS; the remaining 500
		// bytes of room are below maxWnd/2, so sender SWS avoidance
		// holds them until the ack.
		c.tcb.sndWnd = 1500
		c.tcb.queuePush(make([]byte, 5000))
		c.enqueue(action{kind: actMaybeSend})
		c.run()
		var sentBytes int
		for _, sg := range fn.take() {
			sentBytes += len(sg.data)
		}
		if sentBytes != 1000 {
			t.Fatalf("sent %d bytes into a 1500-byte window, want one MSS", sentBytes)
		}
		// Acking the MSS re-opens a full-MSS hole: the next MSS flows.
		inject(c, &segment{seq: 5001, ack: 2001, flags: flagACK, wnd: 1500})
		sentBytes = 0
		for _, sg := range fn.take() {
			sentBytes += len(sg.data)
		}
		if sentBytes != 1000 {
			t.Fatalf("sent %d bytes after ack", sentBytes)
		}
	})
}

func TestSendRespectsCongestionWindow(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, fn := harness(s, StateEstab, Config{})
		c.tcb.cwnd = 1000 // slow start: one MSS
		c.tcb.queuePush(make([]byte, 5000))
		c.enqueue(action{kind: actMaybeSend})
		c.run()
		var sentBytes int
		for _, sg := range fn.take() {
			sentBytes += len(sg.data)
		}
		if sentBytes != 1000 {
			t.Fatalf("sent %d bytes with cwnd 1000", sentBytes)
		}
	})
}

func TestNagleHoldsTrailingSmallSegment(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, fn := harness(s, StateEstab, Config{})
		c.tcb.queuePush(make([]byte, 1100)) // one MSS + 100 bytes
		c.enqueue(action{kind: actMaybeSend})
		c.run()
		sent := fn.take()
		if len(sent) != 1 || len(sent[0].data) != 1000 {
			t.Fatalf("want just the full segment, got %v", sent)
		}
		// The trailing 100 bytes flow once the first segment is acked.
		inject(c, &segment{seq: 5001, ack: 2001, flags: flagACK, wnd: 4096})
		sent = fn.take()
		if len(sent) != 1 || len(sent[0].data) != 100 {
			t.Fatalf("after ack, got %v", sent)
		}
	})
}

func TestNagleDisabledSendsImmediately(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, fn := harness(s, StateEstab, Config{Nagle: Disable})
		c.tcb.queuePush(make([]byte, 1100))
		c.enqueue(action{kind: actMaybeSend})
		c.run()
		sent := fn.take()
		if len(sent) != 2 {
			t.Fatalf("want both segments with Nagle off, got %d", len(sent))
		}
	})
}

func TestSendSWSAvoidance(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, fn := harness(s, StateEstab, Config{})
		// 500 bytes already in flight; the peer's window leaves only 100
		// bytes of room against 5000 queued. 100 < min(MSS, maxWnd/2):
		// hold rather than send a silly segment.
		c.tcb.sndNxt += 500
		c.tcb.sndWnd = 600
		c.tcb.queuePush(make([]byte, 5000))
		c.enqueue(action{kind: actMaybeSend})
		c.run()
		if sent := fn.take(); len(sent) != 0 {
			t.Fatalf("silly window send of %d segments", len(sent))
		}
	})
}

func TestSendIdleOverridesSWS(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, fn := harness(s, StateEstab, Config{})
		// Nothing in flight: RFC 1122's idle rule sends whatever fits,
		// or sender-SWS and receiver-SWS could deadlock against each
		// other.
		c.tcb.sndWnd = 100
		c.tcb.queuePush(make([]byte, 5000))
		c.enqueue(action{kind: actMaybeSend})
		c.run()
		sent := fn.take()
		if len(sent) != 1 || len(sent[0].data) != 100 {
			t.Fatalf("idle sender did not fill the tiny window: %v", sent)
		}
	})
}

func TestZeroWindowArmsPersist(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, _ := harness(s, StateEstab, Config{})
		c.tcb.sndWnd = 0
		c.tcb.queuePush(make([]byte, 100))
		c.enqueue(action{kind: actMaybeSend})
		c.run()
		if !c.tcb.timerSet[timerPersist] {
			t.Fatal("persist timer not armed on zero window")
		}
	})
}

func TestPersistProbeSendsOneByte(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, fn := harness(s, StateEstab, Config{PersistInterval: 100 * time.Millisecond})
		c.tcb.sndWnd = 0
		c.tcb.queuePush(make([]byte, 100))
		c.enqueue(action{kind: actMaybeSend})
		c.run()
		s.Sleep(150 * time.Millisecond)
		sent := fn.take()
		if len(sent) != 1 || len(sent[0].data) != 1 {
			t.Fatalf("want one 1-byte probe, got %v", sent)
		}
		if c.tcb.sndNxt != 1002 {
			t.Fatalf("snd_nxt = %d after probe", c.tcb.sndNxt)
		}
	})
}

// --- Resend module ----------------------------------------------------

func TestResendRTTJacobson(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, _ := harness(s, StateEstab, Config{MinRTO: time.Millisecond})
		// First sample initializes srtt=m, rttvar=m/2, rto=m+4*(m/2)=3m.
		c.rttSample(100 * time.Millisecond)
		tcb := c.tcb
		if tcb.srtt != 100*time.Millisecond || tcb.rttvar != 50*time.Millisecond {
			t.Fatalf("after first sample: srtt=%v rttvar=%v", tcb.srtt, tcb.rttvar)
		}
		if tcb.rto != 300*time.Millisecond {
			t.Fatalf("rto = %v", tcb.rto)
		}
		// Second identical sample: err=0, srtt unchanged, rttvar decays.
		c.rttSample(100 * time.Millisecond)
		if tcb.srtt != 100*time.Millisecond {
			t.Fatalf("srtt drifted to %v on identical sample", tcb.srtt)
		}
		if tcb.rttvar != 37500*time.Microsecond { // 50ms + (0-50ms)/4
			t.Fatalf("rttvar = %v", tcb.rttvar)
		}
	})
}

func TestResendRTOClamped(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, _ := harness(s, StateEstab, Config{MinRTO: 500 * time.Millisecond, MaxRTO: 2 * time.Second})
		c.rttSample(time.Microsecond)
		if c.tcb.rto != 500*time.Millisecond {
			t.Fatalf("rto below floor: %v", c.tcb.rto)
		}
		c.rttSample(time.Hour)
		if c.tcb.rto != 2*time.Second {
			t.Fatalf("rto above ceiling: %v", c.tcb.rto)
		}
	})
}

func TestResendTimeoutRetransmitsAndBacksOff(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, fn := harness(s, StateEstab, Config{InitialRTO: 100 * time.Millisecond, MinRTO: 100 * time.Millisecond})
		c.tcb.rto = 100 * time.Millisecond
		c.tcb.queuePush(make([]byte, 500))
		c.enqueue(action{kind: actMaybeSend})
		c.run()
		fn.take() // original transmission
		s.Sleep(150 * time.Millisecond)
		sent := fn.take()
		if len(sent) != 1 || sent[0].seq != 1001 || len(sent[0].data) != 500 {
			t.Fatalf("first retransmission wrong: %v", sent)
		}
		if c.tcb.backoff != 1 {
			t.Fatalf("backoff = %d", c.tcb.backoff)
		}
		// The next retransmission takes ~200 ms (doubled RTO).
		s.Sleep(120 * time.Millisecond)
		if len(fn.take()) != 0 {
			t.Fatal("retransmitted before the backed-off RTO")
		}
		s.Sleep(120 * time.Millisecond)
		if len(fn.take()) != 1 {
			t.Fatal("second retransmission missing")
		}
	})
}

func TestResendKarnNoSampleFromRetransmit(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, _ := harness(s, StateEstab, Config{InitialRTO: 50 * time.Millisecond})
		c.tcb.rto = 50 * time.Millisecond
		c.tcb.queuePush(make([]byte, 500))
		c.enqueue(action{kind: actMaybeSend})
		c.run()
		s.Sleep(80 * time.Millisecond) // force one retransmission
		srttBefore := c.tcb.srtt
		inject(c, &segment{seq: 5001, ack: 1501, flags: flagACK, wnd: 4096})
		if c.tcb.srtt != srttBefore {
			t.Fatalf("RTT sampled from a retransmitted segment (Karn violated): %v", c.tcb.srtt)
		}
		if c.tcb.rexmitQ.Len() != 0 {
			t.Fatal("ack did not clear the retransmission queue")
		}
	})
}

func TestResendUserTimeoutFailsConnection(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, _ := harness(s, StateEstab, Config{
			InitialRTO: 50 * time.Millisecond, MinRTO: 50 * time.Millisecond,
			UserTimeout: time.Second,
		})
		c.tcb.rto = 50 * time.Millisecond
		var gotErr error
		c.handler = Handler{Error: func(c *Conn, err error) { gotErr = err }}
		c.tcb.queuePush(make([]byte, 10))
		c.tcb.lastProgress = s.Now()
		c.enqueue(action{kind: actMaybeSend})
		c.run()
		s.Sleep(time.Minute)
		if gotErr != ErrProgressTimeout {
			t.Fatalf("err = %v, want ErrProgressTimeout", gotErr)
		}
		if c.state != StateClosed {
			t.Fatalf("state = %v", c.state)
		}
	})
}

func TestFastRetransmitOnThreeDupAcks(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		ep, c, fn := harness(s, StateEstab, Config{})
		c.tcb.queuePush(make([]byte, 3000))
		c.enqueue(action{kind: actMaybeSend})
		c.run()
		fn.take()
		for i := 0; i < 3; i++ {
			inject(c, &segment{seq: 5001, ack: 1001, flags: flagACK, wnd: 4096})
		}
		sent := fn.take()
		if len(sent) == 0 || sent[0].seq != 1001 {
			t.Fatalf("no fast retransmit: %v", sent)
		}
		if got := ep.Stats().Retransmits; got != 1 {
			t.Fatalf("Retransmits = %d", got)
		}
		// Fast recovery (RFC 5681 §3.2): ssthresh = max(3000/2, 2 MSS),
		// cwnd = ssthresh + the three segments the duplicates say left.
		if c.tcb.ssthresh != 2000 || c.tcb.cwnd != 5000 || c.tcb.recovery != recoveryFast || c.tcb.recover != 4001 {
			t.Fatalf("after the third duplicate: ssthresh %d cwnd %d recovery %d recover %d; want 2000, 5000, fast, 4001",
				c.tcb.ssthresh, c.tcb.cwnd, c.tcb.recovery, c.tcb.recover)
		}
	})
}

// recoveryHarness is harness with a 16000-byte peer window and n bytes
// written and in flight, the wire emptied.
func recoveryHarness(s *sim.Scheduler, n int) (*TCP, *Conn, *fakeNet) {
	ep, c, fn := harness(s, StateEstab, Config{})
	c.tcb.sndWnd, c.tcb.maxWnd = 16000, 16000
	write(c, make([]byte, n))
	fn.take()
	return ep, c, fn
}

// dupAcks injects n duplicate ACKs of snd_una.
func dupAcks(c *Conn, n int) {
	for i := 0; i < n; i++ {
		inject(c, &segment{seq: 5001, ack: c.tcb.sndUna, flags: flagACK, wnd: uint16(c.tcb.sndWnd)})
	}
}

// ackTo injects an ACK of everything below ack.
func ackTo(c *Conn, ack seq) {
	inject(c, &segment{seq: 5001, ack: ack, flags: flagACK, wnd: uint16(c.tcb.sndWnd)})
}

// dataSeqs lists the seq of every data segment in sent.
func dataSeqs(sent []*segment) []seq {
	var out []seq
	for _, sg := range sent {
		if len(sg.data) > 0 {
			out = append(out, sg.seq)
		}
	}
	return out
}

// A partial ACK in fast recovery (RFC 6582 §3.2 step 4) retransmits the
// next hole at once: the second loss in a window costs no timeout.
func TestPartialAckRetransmitsWithoutTimer(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		ep, c, fn := recoveryHarness(s, 5000)
		start := s.Now()
		dupAcks(c, 3)
		if got := dataSeqs(fn.take()); len(got) != 1 || got[0] != 1001 {
			t.Fatalf("third duplicate sent %v, want the fast retransmission of 1001", got)
		}
		cwnd := c.tcb.cwnd
		ackTo(c, 2001) // 1001 arrived; 2001 is the next hole
		if got := dataSeqs(fn.take()); len(got) != 1 || got[0] != 2001 {
			t.Fatalf("partial ACK sent %v, want the retransmission of 2001", got)
		}
		if c.tcb.recovery != recoveryFast || c.tcb.cwnd != cwnd {
			t.Fatalf("after a partial ACK of one MSS: recovery %d cwnd %d, want fast and %d (deflated by 1000, +1 MSS)", c.tcb.recovery, c.tcb.cwnd, cwnd)
		}
		if ep.Stats().Retransmits != 2 || s.Now() != start {
			t.Fatalf("Retransmits %d at %v after start; want 2, no time passed", ep.Stats().Retransmits, s.Now()-start)
		}
	})
}

// The ACK that reaches recover ends fast recovery and deflates cwnd to
// min(ssthresh, FlightSize + MSS) (RFC 6582 §3.2 step 3, FlightSize at
// least one MSS); it retransmits nothing.
func TestRecoveryExitsAtRecover(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, fn := recoveryHarness(s, 8000)
		dupAcks(c, 3) // ssthresh 4000, cwnd 7000, recover 9001
		fn.take()
		write(c, make([]byte, 2000))
		dupAcks(c, 3) // cwnd 10000: the last two duplicates clock out 9001 and 10001
		if got := dataSeqs(fn.take()); len(got) != 2 || got[0] != 9001 || got[1] != 10001 {
			t.Fatalf("inflated window sent %v, want new data at 9001 and 10001", got)
		}
		if c.tcb.recover != 9001 {
			t.Fatalf("recover = %d, want 9001", c.tcb.recover)
		}
		ackTo(c, 9001)
		if got := dataSeqs(fn.take()); len(got) != 0 {
			t.Fatalf("the full ACK sent %v, want nothing", got)
		}
		// FlightSize is 2000 after the ACK: min(4000, 2000 + 1000).
		if c.tcb.recovery != recoveryNone || c.tcb.cwnd != 3000 {
			t.Fatalf("after the full ACK: recovery %d cwnd %d, want none and 3000", c.tcb.recovery, c.tcb.cwnd)
		}
		// Out of recovery, three more duplicates may start the next one.
		dupAcks(c, 3)
		if got := dataSeqs(fn.take()); len(got) != 1 || got[0] != 9001 || c.tcb.recovery != recoveryFast {
			t.Fatalf("a new loss after recovery sent %v, recovery %d; want 9001 and fast", got, c.tcb.recovery)
		}
	})
}

// However far duplicates inflate cwnd, the peer's window still bounds
// what is in flight.
func TestInflatedCwndNeverPassesSendWindow(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, fn := harness(s, StateEstab, Config{Nagle: Disable})
		write(c, make([]byte, 4000)) // sndWnd is 4096
		write(c, make([]byte, 4000))
		fn.take()
		dupAcks(c, 40)
		if c.tcb.cwnd < 40000 {
			t.Fatalf("cwnd = %d after 40 duplicates, want it inflated past 40000", c.tcb.cwnd)
		}
		for _, sg := range fn.take() {
			if end := sg.seq + seq(len(sg.data)); seqGT(end, c.tcb.sndUna+seq(c.tcb.sndWnd)) {
				t.Fatalf("sent %v, past the peer's window edge %d", sg, c.tcb.sndUna+seq(c.tcb.sndWnd))
			}
		}
		if c.tcb.flightSize() > c.tcb.sndWnd {
			t.Fatalf("flight %d exceeds snd_wnd %d", c.tcb.flightSize(), c.tcb.sndWnd)
		}
	})
}

// Limited transmit (RFC 3042): the first and second duplicate ACK each
// send one new segment past cwnd, and leave cwnd alone; the third
// retransmits. Two new segments at most.
func TestLimitedTransmitSendsAtMostTwo(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, fn := harness(s, StateEstab, Config{})
		c.tcb.sndWnd, c.tcb.maxWnd = 16000, 16000
		c.tcb.cwnd = 3000
		write(c, make([]byte, 8000))
		if got := dataSeqs(fn.take()); len(got) != 3 {
			t.Fatalf("cwnd of 3000 sent %d segments", len(got))
		}
		for i, want := range []seq{4001, 5001} {
			dupAcks(c, 1)
			if got := dataSeqs(fn.take()); len(got) != 1 || got[0] != want {
				t.Fatalf("duplicate %d sent %v, want one new segment at %d", i+1, got, want)
			}
			if c.tcb.cwnd != 3000 {
				t.Fatalf("duplicate %d moved cwnd to %d", i+1, c.tcb.cwnd)
			}
		}
		dupAcks(c, 1)
		if got := dataSeqs(fn.take()); len(got) != 1 || got[0] != 1001 {
			t.Fatalf("third duplicate sent %v, want only the retransmission of 1001", got)
		}
	})
}

// A timeout during fast recovery falls back to one MSS and slow start;
// later duplicates neither inflate cwnd nor start a second fast
// retransmit, and the partial ACKs that follow fill the holes.
func TestRTODuringRecoveryResetsCwnd(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		ep, c, fn := recoveryHarness(s, 6000)
		dupAcks(c, 3)
		fn.take()
		c.enqueue(action{kind: actTimerExpired, which: timerRexmit})
		c.run()
		if got := dataSeqs(fn.take()); len(got) != 1 || got[0] != 1001 {
			t.Fatalf("the timeout sent %v, want 1001", got)
		}
		if c.tcb.cwnd != 1000 || c.tcb.recovery != recoveryTimeout || c.tcb.recover != 7001 || c.tcb.ssthresh != 3000 {
			t.Fatalf("after the RTO: cwnd %d recovery %d recover %d ssthresh %d; want 1000, timeout, 7001, 3000",
				c.tcb.cwnd, c.tcb.recovery, c.tcb.recover, c.tcb.ssthresh)
		}
		dupAcks(c, 6)
		if c.tcb.cwnd != 1000 || ep.Stats().Retransmits != 2 {
			t.Fatalf("duplicates after the RTO: cwnd %d Retransmits %d; want 1000 and 2", c.tcb.cwnd, ep.Stats().Retransmits)
		}
		ackTo(c, 3001)
		if got := dataSeqs(fn.take()); len(got) != 1 || got[0] != 3001 {
			t.Fatalf("partial ACK after the RTO sent %v, want the hole at 3001", got)
		}
		ackTo(c, 7001)
		if c.tcb.recovery != recoveryNone {
			t.Fatalf("recovery %d after the ACK of recover", c.tcb.recovery)
		}
	})
}

// A storm of duplicate ACKs — reordering, or a peer provoked into
// challenge ACKs — retransmits once per flight, however long it lasts.
func TestDupAckStormRetransmitsOnce(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		ep, c, _ := recoveryHarness(s, 5000)
		dupAcks(c, 60)
		if got := ep.Stats().Retransmits; got != 1 {
			t.Fatalf("Retransmits = %d after 60 duplicates, want 1", got)
		}
	})
}

func TestSlowStartGrowsCwndPerAck(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, _ := harness(s, StateEstab, Config{})
		c.tcb.cwnd = 1000
		c.tcb.ssthresh = 0xffff
		c.tcb.queuePush(make([]byte, 1000))
		c.enqueue(action{kind: actMaybeSend})
		c.run()
		inject(c, &segment{seq: 5001, ack: 2001, flags: flagACK, wnd: 4096})
		if c.tcb.cwnd != 2000 {
			t.Fatalf("cwnd = %d after one ack in slow start", c.tcb.cwnd)
		}
	})
}

func TestCongestionAvoidanceGrowsLinearly(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, _ := harness(s, StateEstab, Config{})
		c.tcb.cwnd = 4000
		c.tcb.ssthresh = 2000 // past the threshold: additive increase
		c.tcb.queuePush(make([]byte, 1000))
		c.enqueue(action{kind: actMaybeSend})
		c.run()
		inject(c, &segment{seq: 5001, ack: 2001, flags: flagACK, wnd: 4096})
		if c.tcb.cwnd != 4250 { // + mss*mss/cwnd = 1000*1000/4000
			t.Fatalf("cwnd = %d", c.tcb.cwnd)
		}
	})
}

// --- State module -----------------------------------------------------

func TestStateCloseSendsFinAfterQueueDrains(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, fn := harness(s, StateEstab, Config{Nagle: Disable})
		c.tcb.sndWnd = 500 // the window holds all data back (SWS)
		c.tcb.queuePush(make([]byte, 1500))
		c.stateClose()
		c.run()
		for _, sg := range fn.take() {
			if sg.has(flagFIN) {
				t.Fatal("FIN sent before the queue drained")
			}
		}
		if c.state != StateEstab {
			t.Fatalf("state = %v before FIN", c.state)
		}
		// A pure window update opens the gate; data drains and the FIN
		// follows.
		inject(c, &segment{seq: 5001, ack: 1001, flags: flagACK, wnd: 4096})
		sent := fn.take()
		last := sent[len(sent)-1]
		if !last.has(flagFIN) {
			t.Fatalf("no FIN after drain: %v", sent)
		}
		if c.state != StateFinWait1 {
			t.Fatalf("state = %v", c.state)
		}
	})
}

func TestStateFinWait1ToFinWait2OnAck(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, _ := harness(s, StateEstab, Config{})
		c.stateClose()
		c.run()
		inject(c, &segment{seq: 5001, ack: 1002, flags: flagACK, wnd: 4096})
		if c.state != StateFinWait2 {
			t.Fatalf("state = %v", c.state)
		}
		if !c.closeDone {
			t.Fatal("Close not completed by FIN ack")
		}
	})
}

func TestStateTimeWaitAfterRemoteFin(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, fn := harness(s, StateEstab, Config{MSL: 50 * time.Millisecond})
		c.stateClose()
		c.run()
		inject(c, &segment{seq: 5001, ack: 1002, flags: flagACK | flagFIN, wnd: 4096})
		if c.state != StateTimeWait {
			t.Fatalf("state = %v", c.state)
		}
		sent := fn.take()
		if sent[len(sent)-1].ack != 5002 {
			t.Fatalf("FIN not acked: %v", sent)
		}
		s.Sleep(200 * time.Millisecond) // 2*MSL passes
		if c.state != StateClosed || !c.deleted {
			t.Fatalf("TIME-WAIT did not expire: %v deleted=%v", c.state, c.deleted)
		}
	})
}

func TestStateSimultaneousCloseViaClosing(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, _ := harness(s, StateEstab, Config{})
		c.stateClose()
		c.run() // our FIN out: Fin_Wait_1
		// Peer's FIN arrives, not acking ours: simultaneous close.
		inject(c, &segment{seq: 5001, ack: 1001, flags: flagACK | flagFIN, wnd: 4096})
		if c.state != StateClosing {
			t.Fatalf("state = %v, want Closing", c.state)
		}
		// Now the ack of our FIN arrives.
		inject(c, &segment{seq: 5002, ack: 1002, flags: flagACK, wnd: 4096})
		if c.state != StateTimeWait {
			t.Fatalf("state = %v, want Time_Wait", c.state)
		}
	})
}

func TestStateLastAckToClosed(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		ep, c, _ := harness(s, StateCloseWait, Config{})
		c.tcb.rcvNxt = 5002 // peer FIN already consumed
		c.stateClose()
		c.run()
		if c.state != StateLastAck {
			t.Fatalf("state = %v", c.state)
		}
		inject(c, &segment{seq: 5002, ack: 1002, flags: flagACK, wnd: 4096})
		if c.state != StateClosed || len(ep.conns) != 0 {
			t.Fatalf("state = %v conns=%d", c.state, len(ep.conns))
		}
	})
}

func TestStateNames(t *testing.T) {
	if StateSynPassive.String() != "Syn_Passive" || StateTimeWait.String() != "Time_Wait" {
		t.Fatal("state names do not match the paper's constructors")
	}
	if State(99).String() != "invalid" {
		t.Fatal("out-of-range state name")
	}
}

// --- TCB queue helpers --------------------------------------------------

func TestQueueTakeSpansItems(t *testing.T) {
	tcb := &TCB{}
	tcb.queuePush([]byte("abc"))
	tcb.queuePush([]byte("defgh"))
	dst := make([]byte, 6)
	if n := tcb.queueTake(dst, 6); n != 6 || string(dst) != "abcdef" {
		t.Fatalf("take = %d %q", n, dst)
	}
	if tcb.queuedBytes != 2 {
		t.Fatalf("queuedBytes = %d", tcb.queuedBytes)
	}
	dst = make([]byte, 10)
	if n := tcb.queueTake(dst, 10); n != 2 || string(dst[:2]) != "gh" {
		t.Fatalf("second take = %d %q", n, dst[:2])
	}
}

func TestQueueTakePartialItemResumes(t *testing.T) {
	tcb := &TCB{}
	tcb.queuePush([]byte("0123456789"))
	a := make([]byte, 4)
	tcb.queueTake(a, 4)
	b := make([]byte, 4)
	tcb.queueTake(b, 4)
	cbuf := make([]byte, 4)
	n := tcb.queueTake(cbuf, 4)
	if string(a)+string(b)+string(cbuf[:n]) != "0123456789" {
		t.Fatalf("reassembled %q%q%q", a, b, cbuf[:n])
	}
}

// --- Sequence wraparound ------------------------------------------------

// TestTransferAcrossSequenceWrap drives data and acks across the 2^32
// boundary of the sequence space — the classic modular-arithmetic bug
// source — and checks that windows, the retransmission queue, and
// delivery all stay correct.
func TestTransferAcrossSequenceWrap(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, fn := harness(s, StateEstab, Config{Nagle: Disable})
		tcb := c.tcb
		// Park both directions just below the wrap point.
		base := ^seq(0) - 1500 // sender wraps mid-transfer
		tcb.sndUna, tcb.sndNxt = base, base
		rbase := ^seq(0) - 700 // receiver wraps too
		tcb.rcvNxt = rbase

		// Send 4000 bytes: the sequence space crosses zero.
		tcb.queuePush(make([]byte, 4000))
		c.enqueue(action{kind: actMaybeSend})
		c.run()
		sent := fn.take()
		var total uint32
		for _, sg := range sent {
			total += uint32(len(sg.data))
		}
		if total != 4000 {
			t.Fatalf("sent %d bytes around the wrap", total)
		}
		if tcb.sndNxt != base+4000 { // modular arithmetic: wraps past 0
			t.Fatalf("snd_nxt = %d, want %d", tcb.sndNxt, base+4000)
		}
		// Ack everything, including the post-wrap bytes.
		inject(c, &segment{seq: rbase, ack: base + 4000, flags: flagACK, wnd: 4096})
		if !tcb.rexmitQ.Empty() {
			t.Fatalf("rexmit queue holds %d after full ack across wrap", tcb.rexmitQ.Len())
		}
		if tcb.sndUna != base+4000 {
			t.Fatalf("snd_una = %d", tcb.sndUna)
		}

		// Receive in-order data across the receiver's wrap point.
		var delivered int
		c.handler = Handler{Data: func(c *Conn, d []byte) { delivered += len(d) }}
		inject(c, &segment{seq: rbase, ack: base + 4000, flags: flagACK, wnd: 4096, data: make([]byte, 700)})
		inject(c, &segment{seq: rbase + 700, ack: base + 4000, flags: flagACK, wnd: 4096, data: make([]byte, 600)})
		if delivered != 1300 {
			t.Fatalf("delivered %d across receive wrap", delivered)
		}
		if tcb.rcvNxt != rbase+1300 {
			t.Fatalf("rcv_nxt = %d, want %d", tcb.rcvNxt, rbase+1300)
		}
		// An old pre-wrap duplicate must still be recognized as old.
		inject(c, &segment{seq: rbase - 100, ack: base + 4000, flags: flagACK, wnd: 4096, data: make([]byte, 50)})
		if delivered != 1300 {
			t.Fatal("pre-wrap duplicate re-delivered")
		}
	})
}

// --- Additional RFC 793 cases -------------------------------------------

func TestSynSentRSTWithUnacceptableAckIgnored(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, _ := harness(s, StateSynSent, Config{})
		c.openDone = false
		tcb := c.tcb
		tcb.sndUna, tcb.sndNxt = tcb.iss, tcb.iss+1
		// RST whose ACK does not cover our SYN: a blind reset attempt.
		inject(c, &segment{seq: 0, ack: tcb.iss - 5, flags: flagRST | flagACK})
		if c.state != StateSynSent {
			t.Fatalf("state = %v; blind RST must not kill SYN-SENT", c.state)
		}
		if c.openDone {
			t.Fatal("open completed by a blind RST")
		}
	})
}

func TestSynSentBadAckProvokesRST(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, fn := harness(s, StateSynSent, Config{})
		tcb := c.tcb
		tcb.sndUna, tcb.sndNxt = tcb.iss, tcb.iss+1
		// An ACK beyond snd_nxt (half-open peer from a previous life).
		inject(c, &segment{seq: 9000, ack: tcb.sndNxt + 100, flags: flagACK})
		sent := fn.take()
		if len(sent) != 1 || !sent[0].has(flagRST) || sent[0].seq != tcb.sndNxt+100 {
			t.Fatalf("want RST at the offending ack, got %v", sent)
		}
		if c.state != StateSynSent {
			t.Fatalf("state = %v", c.state)
		}
	})
}

func TestSynSentDataWithSynAckDelivered(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, _ := harness(s, StateSynSent, Config{})
		c.openDone = false
		tcb := c.tcb
		tcb.sndUna, tcb.sndNxt = tcb.iss, tcb.iss+1
		var delivered []byte
		c.handler = Handler{Data: func(c *Conn, d []byte) { delivered = append(delivered, d...) }}
		// SYN,ACK carrying data: legal, and the data is deliverable the
		// moment we are established.
		inject(c, &segment{seq: 7000, ack: tcb.iss + 1, flags: flagSYN | flagACK, wnd: 4096, data: []byte("early")})
		if c.state != StateEstab {
			t.Fatalf("state = %v", c.state)
		}
		if string(delivered) != "early" {
			t.Fatalf("delivered %q", delivered)
		}
		if tcb.rcvNxt != 7001+5 {
			t.Fatalf("rcv_nxt = %d", tcb.rcvNxt)
		}
	})
}

func TestTimeWaitAcksRetransmittedFinAndRestartsTimer(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, fn := harness(s, StateTimeWait, Config{MSL: 100 * time.Millisecond})
		tcb := c.tcb
		// TIME-WAIT entered with the peer's FIN consumed at rcv_nxt-1.
		c.setTimer(timerTimeWait, c.twoMSL())
		s.Sleep(150 * time.Millisecond) // partway through 2MSL
		// Peer retransmits its FIN (it never saw our last ACK).
		inject(c, &segment{seq: tcb.rcvNxt - 1, ack: tcb.sndNxt, flags: flagACK | flagFIN, wnd: 4096})
		sent := fn.take()
		if len(sent) == 0 || sent[len(sent)-1].ack != tcb.rcvNxt {
			t.Fatalf("retransmitted FIN not re-acked: %v", sent)
		}
		// The 2MSL quarantine restarted: at +150ms from now the original
		// timer would have expired; the connection must still be alive.
		s.Sleep(120 * time.Millisecond)
		if c.deleted {
			t.Fatal("TIME-WAIT expired despite the restart")
		}
		s.Sleep(500 * time.Millisecond)
		if !c.deleted {
			t.Fatal("TIME-WAIT never expired after the restart")
		}
	})
}

func TestDelayedAckTimerFiresAloneSegment(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, fn := harness(s, StateEstab, Config{AckDelay: 50 * time.Millisecond})
		inject(c, &segment{seq: 5001, ack: 1001, flags: flagACK, wnd: 4096, data: []byte("lone")})
		if len(fn.take()) != 0 {
			t.Fatal("ACK sent before the delay elapsed")
		}
		s.Sleep(80 * time.Millisecond)
		sent := fn.take()
		if len(sent) != 1 || sent[0].ack != 5005 {
			t.Fatalf("delayed ACK wrong: %v", sent)
		}
	})
}

func TestWindowUpdateFromOldSegmentIgnored(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		_, c, _ := harness(s, StateEstab, Config{})
		tcb := c.tcb
		// Fresh window update.
		inject(c, &segment{seq: 5001, ack: 1001, flags: flagACK, wnd: 8192})
		if tcb.sndWnd != 8192 {
			t.Fatalf("sndWnd = %d after fresh update", tcb.sndWnd)
		}
		// A stale segment (older seq) advertising a smaller window must
		// not shrink our view (the wl1/wl2 rule). Use a zero-length
		// segment at an already-acked position... zero-length at old seq
		// is unacceptable; use same seq with an OLDER ack.
		inject(c, &segment{seq: 5001, ack: 1000, flags: flagACK, wnd: 512})
		if tcb.sndWnd != 8192 {
			t.Fatalf("stale segment shrank the window to %d", tcb.sndWnd)
		}
	})
}
