package tcp

// Tests of the receive side's rule — an upcall borrows its packet, Data
// borrows its bytes: the dynamic twins of the //foxvet:hotpath markers on
// the way up (an arrival allocates nothing), and, for each place that
// holds a segment past the upcall that delivered it, a proof that it took
// ownership: the held bytes survive the device reusing every frame it
// took back.

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/basis"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// device stands in for wire.Port under a fakeNet endpoint: frames arrive
// in buffers from a small LIFO pool, run through TCP.handler in one reused
// Packet, and go back to the pool when handler returns unless somebody
// kept them, or when the holder releases them — poisoned first, always,
// so a holder that did not take ownership, or used a frame after
// releasing it, reads 0xA5 whichever build runs the test.
type device struct {
	ep       *TCP
	src      protocol.Address
	free     [][]byte
	kept     int
	released int
}

// Release is the device's basis.Home: a holder's frame comes back.
func (d *device) Release(buf []byte) {
	d.released++
	d.recycle(buf)
}

// recycle poisons buf and puts it on the free list.
func (d *device) recycle(buf []byte) {
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = basis.PoisonByte
	}
	d.free = append(d.free, buf)
}

func newDevice(ep *TCP) *device {
	return &device{ep: ep, src: fakeAddr("peer")}
}

// deliver marshals sg into a pooled buffer and runs the upcall.
func (d *device) deliver(sg *segment) {
	var rx basis.Packet
	d.deliverIn(&rx, sg)
}

// deliverIn is deliver over the caller's Packet, as a port reuses its own.
func (d *device) deliverIn(rx *basis.Packet, sg *segment) {
	if sg.srcPort == 0 {
		sg.srcPort, sg.dstPort = 80, 4000
	}
	var buf []byte
	if k := len(d.free); k > 0 {
		buf, d.free = d.free[k-1], d.free[:k-1]
	} else {
		buf = make([]byte, 2048)
	}
	n := sg.headerBytes() + len(sg.data)
	rx.Rewire(buf[:n], d)
	rx.Pull(sg.headerBytes())
	copy(rx.Bytes(), sg.data)
	sg.marshal(rx, 0, false)
	d.ep.handler(d.src, rx)
	if rx.Kept() {
		d.kept++
		return
	}
	d.recycle(buf)
}

// churn pushes n further frames through the device: duplicates of data
// long since delivered, so each is internalized into the endpoint's
// receive segment, dropped by the sequence check, and its buffer recycled.
func (d *device) churn(c *Conn, n int) {
	for i := 0; i < n; i++ {
		d.deliver(&segment{seq: c.tcb.rcvNxt - 100, ack: c.tcb.sndUna, flags: flagACK, wnd: 4096, data: fill(byte(i), 100)})
	}
}

// manyFrames is what the issue asks a hold to outlive: twice the largest
// free list on the path.
const manyFrames = 2 * segPoolCap

// Segments beyond a hole wait on the out-of-order queue: long ones in the
// frames they arrived in, which the queue keeps; short ones (copyBreak) in
// buffers of their own, so the frames go back.
func TestOutOfOrderHoldOwnsItsFrame(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n, kept int
	}{{"kept frames", 300, 3}, {"below the copy break", 100, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			inSim(t, func(s *sim.Scheduler) {
				ep, c, _ := harness(s, StateEstab, Config{})
				var got []byte
				c.handler = Handler{Data: func(c *Conn, d []byte) { got = append(got, d...) }}
				dev := newDevice(ep)
				n := tc.n
				at := func(i int) seq { return seq(5001 + i*n) }

				// Three segments beyond a hole, the last with a FIN.
				dev.deliver(&segment{seq: at(1), ack: 1001, flags: flagACK, wnd: 4096, data: fill('b', n)})
				dev.deliver(&segment{seq: at(3), ack: 1001, flags: flagACK | flagFIN, wnd: 4096, data: fill('d', n)})
				dev.deliver(&segment{seq: at(2), ack: 1001, flags: flagACK, wnd: 4096, data: fill('c', n)})
				if dev.kept != tc.kept || len(c.tcb.outOfOrder) != 3 {
					t.Fatalf("%d frames kept, %d segments held; want %d and 3", dev.kept, len(c.tcb.outOfOrder), tc.kept)
				}
				dev.churn(c, manyFrames)
				for i, q := range c.tcb.outOfOrder {
					if q == &ep.rx {
						t.Fatalf("held segment %d is the endpoint's reused receive segment", i)
					}
					if q.seq != at(i+1) || !bytes.Equal(q.data, fill(byte('b'+i), n)) {
						t.Fatalf("held segment %d: seq %d data %q…, want seq %d of %q", i, q.seq, q.data[:4], at(i+1), byte('b'+i))
					}
				}
				// The hole fills: everything comes up in order, then the FIN.
				dev.deliver(&segment{seq: at(0), ack: 1001, flags: flagACK, wnd: 4096, data: fill('a', n)})
				want := append(append(append(fill('a', n), fill('b', n)...), fill('c', n)...), fill('d', n)...)
				if !bytes.Equal(got, want) {
					t.Fatalf("delivered %d bytes, differing from the %d sent", len(got), 4*n)
				}
				if c.tcb.rcvNxt != at(4)+1 || c.state != StateCloseWait {
					t.Fatalf("rcv_nxt %d state %v, want %d Close_Wait (the held FIN)", c.tcb.rcvNxt, c.state, at(4)+1)
				}
				if dev.kept != tc.kept || dev.released != tc.kept {
					t.Fatalf("%d frames kept and %d released in all, want only the held ones (%d), each back home", dev.kept, dev.released, tc.kept)
				}
			})
		})
	}
}

// Text riding a SYN is parked on the out-of-order queue until the
// handshake completes (rcvListen): the same hold, taken before the
// connection exists.
func TestSynTextHoldOwnsItsFrame(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		fn := &fakeNet{local: "local"}
		ep := New(s, fn, Config{})
		var got []byte
		var server *Conn
		ep.Listen(4000, func(c *Conn) Handler {
			server = c
			return Handler{Data: func(c *Conn, d []byte) { got = append(got, d...) }}
		})
		dev := newDevice(ep)
		text := make([]byte, 400)
		for i := range text {
			text[i] = byte(i)
		}
		dev.deliver(&segment{seq: 5000, flags: flagSYN, wnd: 4096, mss: 1000, data: text})
		if server == nil || len(server.tcb.outOfOrder) != 1 || dev.kept != 1 {
			t.Fatalf("SYN with text: conn %v, frames kept %d", server, dev.kept)
		}
		synAck := fn.take()[0]
		for i := 0; i < manyFrames; i++ { // retransmitted SYNs: internalized, answered, recycled
			dev.deliver(&segment{seq: 5000, flags: flagSYN, wnd: 4096, mss: 1000, data: fill('x', 400)})
		}
		dev.deliver(&segment{seq: 5001, ack: synAck.seq + 1, flags: flagACK, wnd: 4096})
		if server.state != StateEstab {
			t.Fatalf("state %v after the handshake", server.state)
		}
		// The queue drains on the next in-order delivery: the peer resends
		// the first 50 bytes, the other 350 come up from the held frame.
		dev.deliver(&segment{seq: 5001, ack: synAck.seq + 1, flags: flagACK, wnd: 4096, data: text[:50]})
		if !bytes.Equal(got, text) {
			t.Fatalf("delivered %d bytes differing from the SYN's 400", len(got))
		}
	})
}

// Without a Data upcall in-order text waits in the Read buffer, by
// reference: bufferData keeps each frame, and Read's copy — the receive
// path's one — finds the bytes intact however many frames came after.
func TestReadBufferOwnsItsFrames(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		ep, c, _ := harness(s, StateEstab, Config{})
		dev := newDevice(ep)
		var want []byte
		for i := 0; i < 5; i++ {
			d := fill(byte('a'+i), 300)
			want = append(want, d...)
			dev.deliver(&segment{seq: c.tcb.rcvNxt, ack: 1001, flags: flagACK, wnd: 4096, data: d})
		}
		if dev.kept != 5 || c.Buffered() != 1500 {
			t.Fatalf("%d frames kept, %d bytes buffered; want 5 and 1500", dev.kept, c.Buffered())
		}
		dev.churn(c, manyFrames)
		got := make([]byte, 1500)
		if n, err := c.ReadFull(got); n != 1500 || err != nil {
			t.Fatalf("ReadFull = %d, %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("Read returned bytes that differ from the ones delivered: the buffer did not own its frames")
		}
		if dev.kept != 5 || dev.released != 0 {
			t.Fatalf("%d frames kept and %d released in all, want only the five buffered ones, none released", dev.kept, dev.released)
		}
	})
}

// A Data upcall parked in a blocking call leaves its thread inside the
// connection's executor. Segments the device thread brings meanwhile are
// queued as Process_Data and performed only when the first thread resumes
// — long after the upcalls that brought them returned and their frames
// and the endpoint's receive segment were reused.
func TestNestedExecutorArrivalOwnsItsSegment(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		ep, c, _ := harness(s, StateEstab, Config{})
		dev := newDevice(ep)
		release := sim.NewCond(s)
		parked, released := false, false
		var got []byte
		c.handler = Handler{Data: func(c *Conn, d []byte) {
			got = append(got, d...)
			if !parked {
				parked = true
				for !released {
					release.Wait()
				}
			}
		}}
		s.Fork("first", func() {
			inject(c, &segment{seq: 5001, ack: 1001, flags: flagACK, wnd: 4096, data: fill('a', 300)})
		})
		s.Yield()
		if !parked || !c.executing {
			t.Fatalf("set-up: parked=%v executing=%v", parked, c.executing)
		}
		// Arrivals on this thread while the first is parked: two in order,
		// one beyond a hole.
		queued := c.tcb.toDo.Len()
		dev.deliver(&segment{seq: 5301, ack: 1001, flags: flagACK, wnd: 4096, data: fill('b', 300)})
		dev.deliver(&segment{seq: 5601, ack: 1001, flags: flagACK, wnd: 4096, data: fill('c', 300)})
		dev.deliver(&segment{seq: 6201, ack: 1001, flags: flagACK, wnd: 4096, data: fill('e', 300)})
		if c.tcb.toDo.Len() != queued+3 || dev.kept != 3 {
			t.Fatalf("%d actions queued behind the parked executor, %d frames kept; want 3 and 3", c.tcb.toDo.Len()-queued, dev.kept)
		}
		c.tcb.toDo.Do(func(a action) {
			if a.seg == &ep.rx {
				t.Fatal("a queued Process_Data names the endpoint's reused receive segment")
			}
		})
		if len(got) != 300 {
			t.Fatalf("%d bytes delivered while the executor is parked, want the first 300 only", len(got))
		}
		// Every frame the device took back is reused, many times over —
		// through a second connection, whose executor is free.
		key := connKey{raddr: fakeAddr("peer"), rport: 81, lport: 4000}
		other := newConn(ep, key)
		ep.conns[key] = other
		other.state, other.openDone = StateEstab, true
		other.tcb.rcvNxt, other.tcb.sndUna, other.tcb.sndNxt = 9001, 1001, 1001
		for i := 0; i < manyFrames; i++ {
			dev.deliver(&segment{srcPort: 81, dstPort: 4000, seq: 8000, ack: 1001, flags: flagACK, wnd: 4096, data: fill('z', 300)})
		}

		released = true
		release.Signal()
		s.Yield()
		dev.deliver(&segment{seq: 5901, ack: 1001, flags: flagACK, wnd: 4096, data: fill('d', 300)})
		var want []byte
		for _, b := range []byte("abcde") {
			want = append(want, fill(b, 300)...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("delivered %d bytes differing from the 1500 sent: a queued segment was read after its frame was reused", len(got))
		}
	})
}

// TestHandlerAllocatesNothing: an arrival on an established connection —
// the fast path's two cases, with the acknowledgments they provoke, and a
// slow-path segment — is internalized, performed and answered without
// touching the heap.
func TestHandlerAllocatesNothing(t *testing.T) {
	for _, cfg := range []struct {
		name string
		cfg  Config
	}{{"queue", Config{}}, {"fast path off", Config{FastPath: Disable}}, {"direct dispatch", Config{DirectDispatch: true}}} {
		t.Run(cfg.name, func(t *testing.T) {
			inSim(t, func(s *sim.Scheduler) {
				ep, c, fn := harness(s, StateEstab, cfg.cfg)
				fn.discard = true
				upcalls := 0
				c.handler = Handler{Data: func(c *Conn, d []byte) { upcalls += len(d) }}
				dev := newDevice(ep)
				var rx basis.Packet

				// In-order data, 1000 bytes a segment; every second one
				// is acknowledged at once with a pure ACK from the free
				// list, the ones between arm and clear the delayed-ACK
				// timer.
				// One run is the whole cycle, two segments and an ACK:
				// AllocsPerRun truncates, and half an object per segment
				// must not round to nothing.
				data := &segment{ack: 1001, flags: flagACK, wnd: 4096, data: fill('d', 1000)}
				arrive := func() {
					for i := 0; i < 2; i++ {
						data.seq = c.tcb.rcvNxt
						dev.deliverIn(&rx, data)
					}
				}
				arrive()
				frames := fn.frames
				if allocs := testing.AllocsPerRun(200, arrive); allocs != 0 {
					t.Errorf("two in-order data segments and their ACK allocate %.1f objects, want 0", allocs)
				}
				if upcalls != 404*1000 || fn.frames-frames != 201 {
					t.Fatalf("%d bytes delivered, %d ACKs sent; want 404000 and 201", upcalls, fn.frames-frames)
				}
				if cfg.cfg.FastPath == nil && ep.Stats().SlowPathIn != 0 {
					t.Fatalf("%d segments left the fast path", ep.Stats().SlowPathIn)
				}

				// Pure ACKs of new data: one segment written and
				// acknowledged per round (the write allocates nothing
				// either — TestSendPathAllocatesNoPacketMemory).
				ack := &segment{flags: flagACK, wnd: 4096}
				payload := fill('w', 1000)
				write(c, payload)
				round := func() {
					write(c, payload)
					ack.seq, ack.ack = c.tcb.rcvNxt, c.tcb.sndUna+1000
					dev.deliverIn(&rx, ack)
				}
				round()
				if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
					t.Errorf("a pure ACK allocates %.1f objects, want 0", allocs)
				}
				if c.tcb.rexmitQ.Len() != 1 {
					t.Fatalf("rexmitQ holds %d segments, want the one still in flight", c.tcb.rexmitQ.Len())
				}
				if dev.kept != 0 {
					t.Fatalf("%d frames kept on the clean path, want none", dev.kept)
				}
				s.Sleep(time.Second) // the last delayed ACK fires: nothing is left armed
			})
		})
	}
}

// TestHoldDrainCycleAllocatesNothing: a segment beyond a hole is held in
// the frame it arrived in, under a header from the endpoint's free list;
// duplicates come and go meanwhile; the hole fills, the drain delivers the
// held text, its Data upcall returns and the hold ends — the frame goes
// home and the header back to the list. In steady state the cycle touches
// no heap. The device poisons every frame it takes back, so a hold that
// ended before its upcall, or a frame released twice and handed out again,
// shows as 0xA5 or foreign bytes in what Data sees.
func TestHoldDrainCycleAllocatesNothing(t *testing.T) {
	for _, cfg := range []struct {
		name string
		cfg  Config
	}{{"queue", Config{}}, {"direct dispatch", Config{DirectDispatch: true}}} {
		t.Run(cfg.name, func(t *testing.T) {
			inSim(t, func(s *sim.Scheduler) {
				ep, c, fn := harness(s, StateEstab, cfg.cfg)
				fn.discard = true
				dev := newDevice(ep)
				var rx basis.Packet
				held := &segment{ack: 1001, flags: flagACK, wnd: 4096, data: fill('h', 1000)}
				filler := &segment{ack: 1001, flags: flagACK, wnd: 4096, data: fill('f', 1000)}
				dup := &segment{ack: 1001, flags: flagACK, wnd: 4096, data: fill('x', 100)}
				want := append(fill('f', 1000), fill('h', 1000)...)
				var got []byte
				c.handler = Handler{Data: func(c *Conn, d []byte) { got = append(got, d...) }}
				cycle := func() {
					got = got[:0]
					held.seq = c.tcb.rcvNxt + 1000
					dev.deliverIn(&rx, held)
					for i := 0; i < 4; i++ {
						dup.seq = c.tcb.rcvNxt - 100
						dev.deliverIn(&rx, dup)
					}
					filler.seq = c.tcb.rcvNxt
					dev.deliverIn(&rx, filler)
					if !bytes.Equal(got, want) {
						t.Fatalf("a hold/drain cycle delivered %d bytes differing from the %d sent", len(got), len(want))
					}
				}
				cycle()
				if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
					t.Errorf("a hold/drain cycle allocates %.1f objects, want 0", allocs)
				}
				if dev.kept != 202 || dev.released != 202 {
					t.Fatalf("%d frames kept, %d released; want 202 each", dev.kept, dev.released)
				}
				if len(c.tcb.outOfOrder) != 0 || c.tcb.oooBytes != 0 || len(ep.heldFree) != 1 {
					t.Fatalf("after the cycles: %d held, %d bytes charged, %d headers free; want 0, 0, 1",
						len(c.tcb.outOfOrder), c.tcb.oooBytes, len(ep.heldFree))
				}
			})
		})
	}
}

// Every way a hold ends sends the frame home: eviction at the reassembly
// cap, a drained segment that duplicates text already delivered, and
// deleteTCB.
func TestHeldFramesGoHome(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		ep, c, fn := harness(s, StateEstab, Config{ReassemblyLimit: 3 * (1000 + oooOverhead)})
		fn.discard = true
		c.handler = Handler{Data: func(c *Conn, d []byte) {}}
		c.tcb.rcvWnd = 16000
		dev := newDevice(ep)
		at := func(i int) seq { return seq(5001 + i*1000) }
		for _, i := range []int{2, 3, 4, 1} { // the fourth evicts the farthest, at(4)
			dev.deliver(&segment{seq: at(i), ack: 1001, flags: flagACK, wnd: 4096, data: fill(byte('a'+i), 1000)})
		}
		if len(c.tcb.outOfOrder) != 3 || dev.kept != 4 || dev.released != 1 {
			t.Fatalf("eviction: %d held, %d kept, %d released; want 3, 4, 1", len(c.tcb.outOfOrder), dev.kept, dev.released)
		}
		// A segment beyond the cap never holds its frame at all.
		dev.deliver(&segment{seq: at(5), ack: 1001, flags: flagACK, wnd: 4096, data: fill('f', 1000)})
		if dev.kept != 4 || dev.released != 1 {
			t.Fatalf("an arrival evicted at once: %d kept, %d released; want it never kept", dev.kept, dev.released)
		}
		// The filler covers at(1) too: that held segment drains as a full
		// duplicate, the next two are delivered.
		dev.deliver(&segment{seq: at(0), ack: 1001, flags: flagACK, wnd: 4096, data: fill('a', 2000)})
		if len(c.tcb.outOfOrder) != 0 || dev.released != 4 || c.tcb.rcvNxt != at(4) {
			t.Fatalf("drain: %d held, %d released, rcv_nxt %d; want 0, 4, %d", len(c.tcb.outOfOrder), dev.released, c.tcb.rcvNxt, at(4))
		}
		// Teardown with holds outstanding.
		dev.deliver(&segment{seq: at(5), ack: 1001, flags: flagACK, wnd: 4096, data: fill('f', 1000)})
		dev.deliver(&segment{seq: at(7), ack: 1001, flags: flagACK, wnd: 4096, data: fill('h', 1000)})
		c.enqueue(action{kind: actDeleteTCB})
		c.run()
		if dev.kept != 6 || dev.released != 6 || c.tcb.oooBytes != 0 {
			t.Fatalf("deleteTCB: %d kept, %d released, %d bytes charged; want 6, 6, 0", dev.kept, dev.released, c.tcb.oooBytes)
		}
	})
}
