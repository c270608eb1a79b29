package wire

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/basis"
	"repro/internal/sim"
)

// outstanding is the ledger's left side: buffers the pool handed out that
// neither came back nor are held by a receiver that kept them.
func (fp *framePool) outstanding() int { return int(fp.gets - fp.puts - fp.held()) }

// held counts the buffers receivers kept and have not released.
func (fp *framePool) held() uint64 { return fp.kept - fp.released }

// queued counts the buffers sitting in the segment's queues.
func (seg *Segment) queued() int {
	n := seg.txq.Len()
	for _, p := range seg.ports {
		n += p.inq.Len()
	}
	return n
}

// frame builds the i-th test frame: a length that walks the whole range
// and bytes that name the frame.
func frame(i int) []byte {
	b := make([]byte, 1+(i*37)%MaxFrame)
	for j := range b {
		b[j] = byte(i + j)
	}
	return b
}

// TestFramePoolLedger audits the pool across everything the medium can do
// to a frame. At every upcall and after every send, what is outstanding
// is what the queues hold, plus at most the one frame mediumLoop is
// serializing and the one each recvLoop is holding for its propagation
// delay or its upcall; at quiesce it is zero — no path drops a buffer on
// the floor or returns one twice — and the free list never passes its cap.
// Receivers keep every seventh frame and release every other one they
// kept a frame later, so a hold that ends goes back through the ledger.
func TestFramePoolLedger(t *testing.T) {
	const frames = 400
	cases := []struct {
		name  string
		cfg   Config
		ports int
		setup func(seg *Segment)
		// during runs after the i-th send.
		during func(i int, seg *Segment)
	}{
		{name: "clean", ports: 2},
		{name: "loss", cfg: Config{Loss: 0.3, Seed: 3}, ports: 2},
		{name: "duplication", cfg: Config{Duplicate: 0.5, Seed: 4}, ports: 2},
		{name: "corruption", cfg: Config{Corrupt: 0.5, Seed: 5}, ports: 2},
		{name: "dup+corrupt+jitter", cfg: Config{Duplicate: 0.5, Corrupt: 0.5, Jitter: 0.3, Seed: 6}, ports: 2},
		{name: "storm", cfg: Config{Duplicate: 0.3, Corrupt: 0.3, Seed: 7}, ports: 2,
			setup: func(seg *Segment) { seg.SetCorruptStorm(0.6) }},
		{name: "burst loss", cfg: Config{Seed: 8}, ports: 2,
			setup: func(seg *Segment) { seg.SetBurstLoss(0.2, 0.3, 0, 0.9) }},
		{name: "partition", cfg: Config{Duplicate: 0.3, Seed: 9}, ports: 2,
			during: func(i int, seg *Segment) {
				switch i {
				case 100:
					seg.Partition(map[string]int{"p0": 0, "p1": 1})
				case 300:
					seg.Heal()
				}
			}},
		{name: "port down", cfg: Config{Seed: 10}, ports: 2,
			during: func(i int, seg *Segment) {
				switch i {
				case 100:
					seg.SetLink("p1", false)
				case 300:
					seg.SetLink("p1", true)
				}
			}},
		{name: "nil handler", cfg: Config{Duplicate: 0.3, Seed: 11}, ports: 2,
			setup: func(seg *Segment) { seg.ports[1].SetHandler(nil) }},
		{name: "3-port broadcast", cfg: Config{Duplicate: 0.4, Corrupt: 0.4, Loss: 0.1, Seed: 12}, ports: 3,
			setup: func(seg *Segment) { seg.SetCorruptStorm(0.3) }},
		{name: "3-port partition", cfg: Config{Duplicate: 0.4, Seed: 13}, ports: 3,
			setup: func(seg *Segment) { seg.Partition(map[string]int{"p0": 0, "p1": 0, "p2": 1}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runNet(t, tc.cfg, func(s *sim.Scheduler, seg *Segment) {
				pool := &seg.pool
				audit := func(where string) {
					t.Helper()
					if len(pool.free) > framePoolCap {
						t.Fatalf("%s: free list holds %d buffers, cap %d", where, len(pool.free), framePoolCap)
					}
					out, q := pool.outstanding(), seg.queued()
					if inHand := 1 + len(seg.ports); out < q || out > q+inHand {
						t.Fatalf("%s: %d buffers outstanding, %d queued (+ at most %d in hand)", where, out, q, inHand)
					}
				}
				var heard, kept int
				var held [][]byte // frames a receiver kept, and what they must still say
				var want [][]byte
				var releasing []basis.Frame // kept frames to release at the next upcall
				for i := 0; i < tc.ports; i++ {
					p := seg.NewPort("p"+string(rune('0'+i)), nil)
					p.SetHandler(func(pkt *basis.Packet) {
						heard++
						audit("upcall")
						for _, f := range releasing {
							f.Release()
						}
						releasing = releasing[:0]
						if heard%7 == 0 {
							f := pkt.Keep()
							kept++
							if kept%2 == 0 {
								releasing = append(releasing, f)
								return
							}
							held = append(held, pkt.Bytes())
							want = append(want, append([]byte(nil), pkt.Bytes()...))
						}
					})
				}
				if tc.setup != nil {
					tc.setup(seg)
				}
				for i := 0; i < frames; i++ {
					seg.ports[i%tc.ports].Send(basis.NewPacket(0, 0, frame(i)))
					audit("send")
					if tc.during != nil {
						tc.during(i, seg)
					}
					if i%50 == 49 {
						s.Sleep(100 * time.Millisecond) // let a burst drain, then pile up again
					}
				}
				s.Sleep(time.Second)
				for _, f := range releasing {
					f.Release()
				}
				if out := pool.outstanding(); out != 0 || seg.queued() != 0 {
					t.Fatalf("at quiesce: %d buffers outstanding, %d queued (gets %d puts %d kept %d released %d)",
						out, seg.queued(), pool.gets, pool.puts, pool.kept, pool.released)
				}
				if int(pool.kept) != kept || int(pool.held()) != len(held) {
					t.Fatalf("pool counted %d kept frames, %d held; receivers kept %d and hold %d",
						pool.kept, pool.held(), kept, len(held))
				}
				if heard == 0 {
					t.Fatal("no frame was ever delivered")
				}
				// Kept frames left the pool: every later frame — hundreds,
				// several times the free list — came and went without
				// touching them (under -race, recycled buffers are poisoned).
				for i := range held {
					if !bytes.Equal(held[i], want[i]) {
						t.Fatalf("kept frame %d was overwritten after its upcall", i)
					}
				}
			})
		})
	}
}

// TestFramePoolRecyclesBuffers: on a clean two-port segment the steady
// state is one buffer going round, and recycled memory is reused LIFO.
func TestFramePoolRecyclesBuffers(t *testing.T) {
	runNet(t, Config{}, func(s *sim.Scheduler, seg *Segment) {
		a, b := seg.NewPort("a", nil), seg.NewPort("b", nil)
		var first *byte
		same := 0
		b.SetHandler(func(pkt *basis.Packet) {
			p := &pkt.Bytes()[0]
			if first == nil {
				first = p
			} else if p == first {
				same++
			}
		})
		for i := 0; i < 100; i++ {
			a.Send(basis.NewPacket(0, 0, frame(i)))
			s.Sleep(5 * time.Millisecond)
		}
		if same != 99 {
			t.Fatalf("%d of 99 later frames arrived in the first frame's buffer", same)
		}
		if len(seg.pool.free) != 1 {
			t.Fatalf("free list holds %d buffers at rest, want 1", len(seg.pool.free))
		}
	})
}

// TestBorrowedFrameIsPoisonedAfterUpcall pins the rule the pool relies on
// from the other side: a receiver that holds a frame's bytes without Keep
// sees them overwritten — by poison at once under -race, by the next
// frame otherwise.
func TestBorrowedFrameIsPoisonedAfterUpcall(t *testing.T) {
	runNet(t, Config{}, func(s *sim.Scheduler, seg *Segment) {
		a, b := seg.NewPort("a", nil), seg.NewPort("b", nil)
		var stolen []byte
		b.SetHandler(func(pkt *basis.Packet) {
			if stolen == nil {
				stolen = pkt.Bytes()
			}
		})
		a.Send(basis.NewPacket(0, 0, []byte("first frame")))
		s.Sleep(5 * time.Millisecond)
		a.Send(basis.NewPacket(0, 0, []byte("other bytes")))
		s.Sleep(5 * time.Millisecond)
		if string(stolen) == "first frame" {
			t.Fatal("a borrowed frame survived its upcall: the buffer was not recycled")
		}
	})
}

// TestRoundTripAllocatesNothing: in steady state a frame crosses the wire
// — Send's boundary copy, the medium, the receiving port's upcall — on
// pooled memory and one reused Packet.
func TestRoundTripAllocatesNothing(t *testing.T) {
	runNet(t, Config{}, func(s *sim.Scheduler, seg *Segment) {
		a, b := seg.NewPort("a", nil), seg.NewPort("b", nil)
		got := 0
		b.SetHandler(func(pkt *basis.Packet) { got += pkt.Len() })
		pkt := basis.NewPacket(0, 0, frame(1400))
		n := pkt.Len()
		trip := func() {
			pkt.Reset(0, n)
			a.Send(pkt)
			s.Sleep(5 * time.Millisecond)
		}
		trip() // the first trip allocates the buffer and grows the queues
		got = 0
		if allocs := testing.AllocsPerRun(200, trip); allocs != 0 {
			t.Fatalf("a round trip allocates %.1f objects, want 0", allocs)
		}
		if got != 201*n {
			t.Fatalf("received %d bytes over 201 trips of %d", got, n)
		}
	})
}

// TestLostFrameAllocatesNothing: a frame the medium loses goes straight
// back to the pool, and with tracing off the loss costs no trace
// formatting either — a lossy run allocates no more than a clean one.
func TestLostFrameAllocatesNothing(t *testing.T) {
	runNet(t, Config{Loss: 1, Seed: 1}, func(s *sim.Scheduler, seg *Segment) {
		seg.trace = basis.NewTracer("wire", nil, false)
		a, b := seg.NewPort("a", nil), seg.NewPort("b", nil)
		b.SetHandler(func(pkt *basis.Packet) { t.Fatal("a frame crossed a medium that loses every frame") })
		pkt := basis.NewPacket(0, 0, frame(1400))
		n := pkt.Len()
		trip := func() {
			pkt.Reset(0, n)
			a.Send(pkt)
			s.Sleep(5 * time.Millisecond)
		}
		trip()
		if allocs := testing.AllocsPerRun(200, trip); allocs != 0 {
			t.Fatalf("a lost frame allocates %.1f objects, want 0", allocs)
		}
		if lost := seg.Stats().Lost; lost != 202 {
			t.Fatalf("Lost = %d, want every one of 202 frames", lost)
		}
	})
}
