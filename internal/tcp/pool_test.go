package tcp

// Tests of the send side's packet memory (segPool in segment.go): the
// reachability rule that makes recycling safe, the teardown that returns
// unacknowledged packets, and the dynamic twins of the //foxvet:hotpath
// markers on the send path — steady state and retransmission allocate no
// packet and no segment.

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// fill returns n bytes of b.
func fill(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

// write queues data and runs the Send module, as Conn.Write does.
func write(c *Conn, data []byte) {
	c.tcb.queuePush(data)
	c.enqueue(action{kind: actMaybeSend})
	c.run()
}

// A retransmission can sit on to_do behind the ACK that covers its
// segment, with a Maybe_Send behind that: the retransmission was queued
// by an event (RTO expiry, third duplicate ACK) that entered the door
// before the ACK did. The ACK retires the segment, the Maybe_Send wants a
// buffer, and the free list is LIFO — so unless the queued Send_Segment
// keeps the segment off the list, the new data is written into it and
// goes out twice, and the retransmission never does. Either event starts
// recovery up to A2's end, so the ACK covering A is partial (RFC 6582)
// and retransmits A2 as well.
func TestQueuedRetransmissionKeepsItsBuffer(t *testing.T) {
	for _, tc := range []struct {
		name    string
		trigger func(c *Conn)
	}{
		{"RTO", func(c *Conn) { c.enqueue(action{kind: actTimerExpired, which: timerRexmit}) }},
		{"fast retransmit", func(c *Conn) {
			for i := 0; i < 3; i++ {
				c.enqueue(action{kind: actProcessData, seg: &segment{srcPort: 80, dstPort: 4000,
					seq: 5001, ack: 1001, flags: flagACK, wnd: 4096}})
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inSim(t, func(s *sim.Scheduler) {
				ep, c, fn := harness(s, StateEstab, Config{})
				// A (1000 B) and A2 (500 B, Nagle off so it leaves) in
				// flight, so duplicate ACKs count; B queued behind a
				// shut congestion window.
				c.t.cfg.Nagle = Disable
				write(c, fill('A', 1000))
				write(c, fill('a', 500))
				first, _ := c.tcb.rexmitQ.Front()
				c.tcb.cwnd = 1500
				write(c, fill('B', 1000))
				if got := len(fn.take()); got != 2 {
					t.Fatalf("set-up sent %d segments, want A and A2 only", got)
				}

				// One drain: trigger, then the ACK covering A, then the
				// Maybe_Send a user Write would have queued meanwhile.
				tc.trigger(c)
				c.enqueue(action{kind: actProcessData, seg: &segment{srcPort: 80, dstPort: 4000,
					seq: 5001, ack: 2001, flags: flagACK, wnd: 4096}})
				c.enqueue(action{kind: actMaybeSend})
				c.tcb.cwnd = 1 << 20
				c.run()

				var rexmit, partial, fresh []*segment
				for _, sg := range fn.take() {
					switch {
					case len(sg.data) == 0:
					case sg.seq == 1001:
						rexmit = append(rexmit, sg)
					case sg.seq == 2001:
						partial = append(partial, sg)
					case sg.seq == 2501:
						fresh = append(fresh, sg)
					default:
						t.Errorf("unexpected data segment on the wire: %v", sg)
					}
				}
				if len(rexmit) != 1 || !bytes.Equal(rexmit[0].data, fill('A', 1000)) {
					t.Fatalf("retransmission of A: got %d segments %v, want one carrying A's bytes", len(rexmit), rexmit)
				}
				if len(partial) != 1 || !bytes.Equal(partial[0].data, fill('a', 500)) {
					t.Fatalf("partial-ACK retransmission of A2: got %d segments %v, want one carrying A2's bytes", len(partial), partial)
				}
				if len(fresh) != 1 || !bytes.Equal(fresh[0].data, fill('B', 1000)) {
					t.Fatalf("B: got %d segments %v, want exactly one carrying B's bytes", len(fresh), fresh)
				}
				// A's segment came back only after its last transmission.
				if n := len(ep.pool.free); n != 1 || ep.pool.free[0] != first {
					t.Fatalf("free list holds %d segments, want just A's", n)
				}
				if first.sends != 0 || !first.retired {
					t.Fatalf("A's segment: sends=%d retired=%v", first.sends, first.retired)
				}
			})
		})
	}
}

// deleteTCB empties rexmitQ into the free list: the TCB outlives the
// connection, so anything left there stays reachable from the user's Conn.
func TestDeleteTCBReturnsUnackedSegments(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		ep, c, _ := harness(s, StateEstab, Config{})
		write(c, fill('x', 3000))
		if n := c.tcb.rexmitQ.Len(); n != 3 {
			t.Fatalf("rexmitQ holds %d segments, want 3", n)
		}
		c.enqueue(action{kind: actDeleteTCB})
		c.run()
		if !c.tcb.rexmitQ.Empty() {
			t.Fatalf("rexmitQ holds %d segments after deleteTCB", c.tcb.rexmitQ.Len())
		}
		if n := len(ep.pool.free); n != 3 {
			t.Fatalf("free list holds %d segments after deleteTCB, want 3", n)
		}
	})
}

// The free list is bounded: a burst larger than segPoolCap leaves the
// excess to the collector.
func TestSegPoolBounded(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		ep, c, _ := harness(s, StateEstab, Config{})
		c.tcb.sndWnd = 1 << 20
		n := segPoolCap + 10
		for i := 0; i < n; i++ {
			write(c, fill('x', 1000))
		}
		inject(c, &segment{seq: 5001, ack: c.tcb.sndNxt, flags: flagACK, wnd: 0xffff})
		if !c.tcb.rexmitQ.Empty() {
			t.Fatalf("rexmitQ holds %d after the full ACK", c.tcb.rexmitQ.Len())
		}
		if got := len(ep.pool.free); got != segPoolCap {
			t.Fatalf("free list holds %d, want the bound %d", got, segPoolCap)
		}
	})
}

// Dynamic twin of the //foxvet:hotpath markers on the send path. The
// cycles below go through the real door, so they do (re)arm the
// retransmission timer — live: the connection's own timer is re-armed in
// place and forks nothing — and queue their actions, which are plain
// values. Each cycle must cost nothing: no packet, no segment, no action.
func TestSendPathAllocatesNoPacketMemory(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		ep, c, fn := harness(s, StateEstab, Config{})
		fn.discard = true
		data := fill('d', 1000)
		ack := &segment{srcPort: 80, dstPort: 4000, seq: 5001, flags: flagACK, wnd: 4096}
		ackTo := func(n seq) {
			ack.ack = n
			c.enqueue(action{kind: actProcessData, seg: ack})
			c.run()
		}
		// Two segments stay in flight so the queue is never empty.
		write(c, data)
		write(c, data)

		setTimer := testing.AllocsPerRun(200, func() {
			c.enqueue(action{kind: actSetTimer, which: timerRexmit, d: c.currentRTO()})
			c.run()
		})
		if setTimer != 0 {
			t.Errorf("a Set_Timer allocates %.0f times, want 0", setTimer)
		}

		// Steady state: Write → sendData → emit, then the oldest segment
		// is acknowledged → ackAdvance → free list.
		frames := fn.frames
		steady := testing.AllocsPerRun(200, func() {
			write(c, data)
			ackTo(c.tcb.sndUna + 1000)
		})
		if fn.frames-frames != 201 {
			t.Fatalf("steady cycle sent %d frames in 201 runs", fn.frames-frames)
		}
		if steady != 0 {
			t.Errorf("steady-state cycle allocates %.0f times, want 0", steady)
		}

		// Retransmission by timeout: resendTimeout → emit in place.
		frames = fn.frames
		rto := testing.AllocsPerRun(200, func() {
			c.enqueue(action{kind: actTimerExpired, which: timerRexmit})
			c.run()
		})
		if fn.frames-frames != 201 {
			t.Fatalf("RTO cycle sent %d frames in 201 runs", fn.frames-frames)
		}
		if rto != 0 {
			t.Errorf("a timeout retransmission allocates %.0f times, want 0", rto)
		}

		// Fast retransmit: three duplicate ACKs → dupAck → emit in
		// place. The rest of the round rebuilds the precondition: an ACK
		// of everything — it reaches the recovery point, so recovery ends
		// and the next third duplicate may start another — then two new
		// segments, an ACK of the first, and a third to keep two in
		// flight. The timeouts above left a recovery open too: the same
		// ACK of everything closes it first.
		c.tcb.backoff = 0
		ackTo(c.tcb.sndNxt)
		write(c, data)
		write(c, data)
		frames = fn.frames
		fast := testing.AllocsPerRun(200, func() {
			for i := 0; i < 3; i++ {
				ackTo(c.tcb.sndUna)
			}
			ackTo(c.tcb.sndNxt)
			write(c, data)
			write(c, data)
			ackTo(c.tcb.sndUna + 1000)
			write(c, data)
		})
		if fn.frames-frames != 201*4 {
			t.Fatalf("fast-retransmit round sent %d frames in 201 runs, want 4 each", fn.frames-frames)
		}
		if fast != 0 {
			t.Errorf("a fast-retransmit round allocates %.0f times, want 0", fast)
		}
		if ep.Stats().Retransmits != 2*201 {
			t.Fatalf("Retransmits = %d, want one per RTO and fast-retransmit run", ep.Stats().Retransmits)
		}
		if s.Forks() != 0 {
			t.Fatalf("Forks = %d: arming a timer created a thread", s.Forks())
		}
	})
}
