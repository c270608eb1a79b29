package tcp

// Per-segment microbenchmarks: the precise cost of the paper's structural
// choices, measured at the receiveSegment boundary with the wire and IP
// layers out of the picture. EXPERIMENTS.md quotes these as the
// structure-only decomposition of Table 1.

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// benchConn builds an established connection over the fake network and
// returns a feeder that injects consecutive in-order data segments — in
// one reused segment, as TCP.handler internalizes every arrival into one.
func benchConn(s *sim.Scheduler, cfg Config) (c *Conn, feed func(data []byte)) {
	_, c, fn := harness(s, StateEstab, cfg)
	fn.discard = true
	c.handler = Handler{Data: func(c *Conn, d []byte) {}}
	next := c.tcb.rcvNxt
	sg := new(segment)
	feed = func(data []byte) {
		*sg = segment{
			srcPort: 80, dstPort: 4000,
			seq: next, ack: c.tcb.sndUna, flags: flagACK,
			wnd: 4096, data: data,
		}
		next += seq(len(data))
		c.enqueue(action{kind: actProcessData, seg: sg})
		c.run()
	}
	return c, feed
}

func benchSegments(b *testing.B, cfg Config) {
	s := sim.New(sim.Config{})
	s.Run(func() {
		_, feed := benchConn(s, cfg)
		data := make([]byte, 1000) // one MSS on the fake network
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			feed(data)
			if i%1024 == 1023 {
				// Advance virtual time so cleared delayed-ack timer
				// threads wake and exit; otherwise they accumulate in
				// the sleep heap (the bench never sleeps) and goroutine
				// pileup, not segment processing, dominates.
				b.StopTimer()
				s.Sleep(time.Second)
				b.StartTimer()
			}
		}
	})
}

// BenchmarkReceiveSegment measures one in-order data segment through the
// full quasi-synchronous machinery, under the design toggles.
func BenchmarkReceiveSegment(b *testing.B) {
	b.Run("PaperDefaults", func(b *testing.B) {
		benchSegments(b, Config{})
	})
	b.Run("FastPathOff", func(b *testing.B) {
		benchSegments(b, Config{FastPath: Disable})
	})
	b.Run("DirectDispatch", func(b *testing.B) {
		benchSegments(b, Config{DirectDispatch: true})
	})
	b.Run("DirectDispatchFastPathOff", func(b *testing.B) {
		benchSegments(b, Config{DirectDispatch: true, FastPath: Disable})
	})
}

// BenchmarkSendSegment measures the send side's steady state through the
// action queue: segmentize and emit one MSS of queued data (the
// single-copy send path), then take the acknowledgment that retires the
// segment to the free list. The lower layer discards, so what is counted
// is the stack's own: 0 allocs/op — 1 (16 B) while the re-arm's Set_Timer
// was a boxed action, 7 (432 B) when the arm forked Fig. 11's thread.
func BenchmarkSendSegment(b *testing.B) {
	s := sim.New(sim.Config{})
	s.Run(func() {
		_, c, fn := harness(s, StateEstab, Config{})
		fn.discard = true
		data := make([]byte, 1000)
		ack := &segment{srcPort: 80, dstPort: 4000, seq: c.tcb.rcvNxt, flags: flagACK, wnd: 4096}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.tcb.queuePush(data)
			c.enqueue(action{kind: actMaybeSend})
			c.run()
			ack.ack = c.tcb.sndNxt
			c.enqueue(action{kind: actProcessData, seg: ack})
			c.run()
			if i%1024 == 1023 {
				s.Yield() // the cleared timers' stand-ins leave the run queue
			}
		}
	})
}

// BenchmarkActionQueue isolates the to_do machinery itself: enqueue and
// drain one no-op-ish action.
func BenchmarkActionQueue(b *testing.B) {
	s := sim.New(sim.Config{})
	s.Run(func() {
		_, c, _ := harness(s, StateEstab, Config{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.enqueue(action{kind: actClearTimer, which: timerDelayedAck})
			c.run()
		}
	})
}
