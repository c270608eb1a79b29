package main

import (
	"time"

	"repro/internal/arp"
	"repro/internal/basis"
	"repro/internal/checksum"
	"repro/internal/ethernet"
	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/timers"
	"repro/internal/wire"
)

// The layers below the shim cannot be wrapped from outside — ethernet.New
// and ip.New take concrete lower layers — so their cost is measured on
// rigs: the same exported calls the stack makes, driven alone at the
// workload's frame size and timed with the quiet-slice estimator. A rung
// of the ladder is a rig minus the rig below it.

const (
	rigSlices = 40
	rigOps    = 256 // operations per slice: a few hundred µs of work
)

// quietPerOp runs setup once inside a fresh scheduler, then times
// rigSlices slices of one op() call — prepare(), when given, runs before
// each slice, untimed — and returns the quiet-slice wall nanoseconds per
// unit of the work op reports having done.
func quietPerOp(setup func(s *sim.Scheduler) (prepare func(), op func() int)) float64 {
	var perOp float64
	s := newScheduler()
	s.Run(func() {
		prepare, op := setup(s)
		if prepare == nil {
			prepare = func() {}
		}
		prepare()
		units := op() // first use pays for lazy allocation
		slices := make([]time.Duration, rigSlices)
		for i := range slices {
			prepare()
			t0 := time.Now()
			units = op()
			slices[i] = time.Since(t0)
		}
		perOp = float64(quietSlice(slices)) / float64(units)
	})
	return perOp
}

// rigs are the ladder and microbenchmark readings for one frame size.
type rigs struct {
	wireNs, ethNs, ipNs float64 // one-way traversal of one frame, cumulative
	switchNs            float64
	forkExitNs          float64
	timerClearNs        float64
	timerExpireNs       float64
	checksumNsPerKB     float64
	allocPacketNs       float64
	copyNsPerKB         float64
}

// rigAddr are the two stations every traversal rig uses.
var (
	rigMAC = [2]ethernet.Addr{ethernet.HostAddr(1), ethernet.HostAddr(2)}
	rigIP  = [2]ip.Addr{ip.HostAddr(1), ip.HostAddr(2)}
)

// traversal times frames crossing the wire one at a time: send hands a
// packet with size bytes of this layer's payload to station 0's layer,
// and the receipt at station 1's must call arrived. Packets are
// allocated outside the timed slice.
func traversal(size, headroom int, build func(s *sim.Scheduler, seg *wire.Segment, arrived func()) (send func(pkt *basis.Packet))) float64 {
	return quietPerOp(func(s *sim.Scheduler) (func(), func() int) {
		got := sim.NewCond(s)
		pending := false
		send := build(s, wire.NewSegment(s, wire.Config{}, nil), func() {
			pending = false
			got.Signal()
		})
		pkts := make([]*basis.Packet, rigOps)
		prepare := func() {
			for i := range pkts {
				pkts[i] = basis.AllocPacket(headroom, ethernet.Tailroom, size)
			}
		}
		return prepare, func() int {
			for _, pkt := range pkts {
				pending = true
				send(pkt)
				for pending {
					got.Wait()
				}
			}
			return rigOps
		}
	})
}

// measureRigs takes every rig reading for frames of frameBytes on the
// wire (Ethernet header and FCS included).
func measureRigs(frameBytes int) rigs {
	const ethOverhead = 18 // header + FCS
	const ipHeader = 20
	ethPayload := max(frameBytes-ethOverhead, ipHeader+1)
	ipPayload := ethPayload - ipHeader
	var r rigs

	r.wireNs = traversal(ethPayload+ethOverhead, 0, func(s *sim.Scheduler, seg *wire.Segment, arrived func()) func(*basis.Packet) {
		a, b := seg.NewPort("a", nil), seg.NewPort("b", nil)
		b.SetHandler(func(*basis.Packet) { arrived() })
		return a.Send
	})
	r.ethNs = traversal(ethPayload, ethernet.Headroom, func(s *sim.Scheduler, seg *wire.Segment, arrived func()) func(*basis.Packet) {
		a := ethernet.New(seg.NewPort("a", nil), rigMAC[0], ethernet.Config{})
		b := ethernet.New(seg.NewPort("b", nil), rigMAC[1], ethernet.Config{})
		b.Register(ethernet.TypeIPv4, func(_, _ ethernet.Addr, _ *basis.Packet) { arrived() })
		return func(pkt *basis.Packet) { _ = a.Send(rigMAC[1], ethernet.TypeIPv4, pkt) } // size is below the MTU by construction
	})
	r.ipNs = traversal(ipPayload, ip.Headroom, func(s *sim.Scheduler, seg *wire.Segment, arrived func()) func(*basis.Packet) {
		var layer [2]*ip.IP
		for i := range layer {
			eth := ethernet.New(seg.NewPort(string(rune('a'+i)), nil), rigMAC[i], ethernet.Config{})
			res := arp.New(s, eth, rigIP[i], arp.Config{})
			res.AddStatic(rigIP[1-i], rigMAC[1-i])
			layer[i] = ip.New(s, eth, res, ip.Config{Local: rigIP[i]})
		}
		layer[1].Register(ip.ProtoTCP, func(_, _ ip.Addr, _ *basis.Packet) { arrived() })
		return func(pkt *basis.Packet) { _ = layer[0].Send(rigIP[1], ip.ProtoTCP, pkt) } // size is below the MTU by construction
	})

	// sim: a switch is one Yield hand-off between two coroutines; a fork
	// is Fork plus the forked coroutine's run to exit, less the two
	// switches that carries.
	r.switchNs = quietPerOp(func(s *sim.Scheduler) (func(), func() int) {
		s.Fork("rig-partner", func() {
			for {
				s.Yield()
			}
		})
		return nil, func() int {
			sw := s.Switches()
			for i := 0; i < rigOps; i++ {
				s.Yield()
			}
			return int(s.Switches() - sw)
		}
	})
	forkYield := quietPerOp(func(s *sim.Scheduler) (func(), func() int) {
		return nil, func() int {
			for i := 0; i < rigOps; i++ {
				s.Fork("rig-child", func() {})
				s.Yield()
			}
			return rigOps
		}
	})
	r.forkExitNs = max(forkYield-2*r.switchNs, 0)

	// timers: arm a batch, clear it (or not), and sleep past the
	// deadline so every timer coroutine wakes and exits inside the slice,
	// as it does in a run.
	timerBatch := func(clear bool) float64 {
		return quietPerOp(func(s *sim.Scheduler) (func(), func() int) {
			fired := 0
			batch := make([]*timers.Timer, 64)
			return nil, func() int {
				for n := 0; n < rigOps; n += len(batch) {
					for i := range batch {
						batch[i] = timers.Start(s, func() { fired++ }, time.Millisecond)
					}
					if clear {
						for _, t := range batch {
							t.Clear()
						}
					}
					s.Sleep(2 * time.Millisecond)
				}
				return rigOps
			}
		})
	}
	r.timerClearNs = timerBatch(true)
	r.timerExpireNs = timerBatch(false)

	// checksum and basis: the data-touching calls at the TCP segment size
	// (IP payload), per KB so sizes compare.
	seg := make([]byte, ipPayload)
	kb := float64(ipPayload) / 1024
	var sink uint16
	r.checksumNsPerKB = quietPerOp(func(*sim.Scheduler) (func(), func() int) {
		return nil, func() int {
			for i := 0; i < rigOps; i++ {
				sink += checksum.SumFig10(0, seg)
			}
			return rigOps
		}
	}) / kb
	r.allocPacketNs = quietPerOp(func(*sim.Scheduler) (func(), func() int) {
		return nil, func() int {
			for i := 0; i < rigOps; i++ {
				sink += uint16(basis.AllocPacket(ip.Headroom+20, ethernet.Tailroom, len(seg)).Len())
			}
			return rigOps
		}
	})
	// The payload copy as the send path makes it: builtin copy into a
	// packet's bytes.
	dst := basis.AllocPacket(ip.Headroom+20, ethernet.Tailroom, len(seg)).Bytes()
	r.copyNsPerKB = quietPerOp(func(*sim.Scheduler) (func(), func() int) {
		return nil, func() int {
			for i := 0; i < rigOps; i++ {
				sink += uint16(copy(dst, seg))
			}
			return rigOps
		}
	}) / kb
	_ = sink
	return r
}
