package main

import (
	"runtime"
	"time"

	"repro/foxnet"
	"repro/internal/sim"
)

// counts are the stack's exported counters the per-layer metrics are
// built from, summed over both hosts. Deltas over the timed phase of an
// untraced run repeat exactly for a given workload and seed.
type counts [nCounts]uint64

const (
	cSegsOut = iota
	cRetx
	cFastIn
	cSlowIn
	cDupAcks
	cOOO
	cAcksDelayed
	cConns
	cIPPkts
	cIPDiscards
	cEthFrames
	cEthOctets
	cWireSent
	cWireLost
	cSwitches
	cForks
	cTimerFires
	nCounts
)

func readCounts(s *sim.Scheduler, net *foxnet.Network, eps [2]foxEndpoint) counts {
	var c counts
	for i, h := range net.Hosts {
		ts := eps[i].t.Stats()
		c[cSegsOut] += ts.SegsSent
		c[cRetx] += ts.Retransmits
		c[cFastIn] += ts.FastPathIn
		c[cSlowIn] += ts.SlowPathIn
		c[cDupAcks] += ts.DupAcksSeen
		c[cOOO] += ts.OutOfOrder
		c[cAcksDelayed] += ts.AcksDelayed
		c[cConns] += ts.ConnsOpened
		is := h.IP.Stats()
		c[cIPPkts] += is.Sent
		c[cIPDiscards] += is.BadHeader + is.BadChecksum + is.NotLocal + is.UnknownProto +
			is.ResolveFailures + is.TTLExpired + is.ReassemblyTimeouts
		c[cEthFrames] += h.Eth.Stats().TxFrames
		octets, _ := h.Stats.Snapshot().Get("eth.OutOctets")
		c[cEthOctets] += uint64(octets)
	}
	ws := net.Segment.Stats()
	c[cWireSent], c[cWireLost] = ws.Sent, ws.Lost
	c[cSwitches], c[cForks], c[cTimerFires] = s.Switches(), s.Forks(), s.TimerFires()
	return c
}

func (c counts) since(c0 counts) counts {
	for i := range c {
		c[i] -= c0[i]
	}
	return c
}

// runData is everything one execution of a workload measured.
type runData struct {
	timed  int             // transactions in the timed phase
	slices []time.Duration // wall time of each equal-work slice
	lat    []sim.Duration  // virtual latency of each timed transaction
	virt   sim.Duration    // virtual length of the timed phase
	counts counts          // deltas over the timed phase

	mallocs, allocBytes uint64 // runtime.MemStats deltas over the timed phase
	gcCycles            uint32
	gcPauseNs           uint64
	heapLive            uint64 // HeapAlloc after two GCs, network still live

	okBytes     int64 // verified reply bytes of the timed phase
	attempted   int   // whole run, warm-up included
	failed      int
	connErrs    int
	digest      uint64
	readyHW     int
	activeConns int

	setup      time.Duration // workload start to first timed slice
	assembleUs float64
	connectUs  float64

	// Traced runs only: every finished span, how many the buffer had no
	// room for, and the trace-time window of the timed phase (per-segment
	// figures use the spans that start inside it).
	spans              []span
	dropped            int
	timedFrom, timedTo int64
}

// execute runs one workload once: assemble, connect, warm up, then —
// unless timed is 0, which makes it a set-up measurement — the timed
// phase. traced attaches the shim and the span wrappers; everything else
// is identical, which is what -verify attests.
func execute(sp spec, seed uint64, warm, timed int, traced bool) (runData, error) {
	var d runData
	var runErr error
	var tr *tracer
	start := time.Now()
	s := newScheduler()
	s.Run(func() {
		t0 := time.Now()
		net := assemble(s, sp, seed)
		d.assembleUs = float64(time.Since(t0)) / 1e3
		if traced {
			tr = newTracer(s, spanCapacity(sp, warm+timed))
		}
		eps := foxEndpoints(s, net, sp, tr)
		g, err := newGen(s, sp, eps[0], eps[1], net.Host(0).Addr, makePattern(seed, sp.reply), tr)
		if err != nil {
			runErr = err
			return
		}
		g.run(warm)
		d.setup = time.Since(start)
		if timed > 0 {
			timedPhase(&d, s, net, eps, g, timed)
		}
		g.stop()
		d.attempted, d.failed, d.connErrs = g.nextTxn, g.failed, g.connErrs
		d.digest, d.connectUs = g.digest, g.connectUs
		d.readyHW = s.ReadyHighWater()
	})
	if tr != nil {
		d.spans, d.dropped = tr.finished(), tr.dropped
	}
	return d, runErr
}

func timedPhase(d *runData, s *sim.Scheduler, net *foxnet.Network, eps [2]foxEndpoint, g *gen, timed int) {
	sp := g.sp
	d.timed = timed
	g.keepLat, g.lat = true, make([]sim.Duration, 0, timed)
	ok0 := g.okBytes
	c0 := readCounts(s, net, eps)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	v0 := s.Now()
	d.timedFrom = g.tr.mark()
	d.slices = timeSlices(timed/sp.slice, func() { g.run(sp.slice) })
	d.timedTo = g.tr.mark()
	d.virt = sim.Duration(s.Now() - v0)
	runtime.ReadMemStats(&m1)
	d.counts = readCounts(s, net, eps).since(c0)
	g.keepLat = false
	d.lat, d.okBytes = g.lat, g.okBytes-ok0
	d.mallocs, d.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	d.gcCycles, d.gcPauseNs = m1.NumGC-m0.NumGC, m1.PauseTotalNs-m0.PauseTotalNs
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	d.heapLive = m1.HeapAlloc
	d.activeConns = eps[0].t.ActiveConns() + eps[1].t.ActiveConns()
}

// spanCapacity bounds the spans a traced run of n transactions records:
// per segment an rx, an upcall and a lower_tx on each side, per
// transaction the client's and the server's connection calls.
func spanCapacity(sp spec, n int) int {
	segs := sp.reply/1000 + 4
	if sp.perConn {
		segs += 8
	}
	return n * (6*segs + 8)
}

// xkData is the control measurement: the workload's transactions
// through internal/baseline, in slices that alternate with slices of the
// same transactions through Fox Net inside one scheduler, so both see
// the same machine conditions and their ratio divides the noise out.
type xkData struct {
	fox, xk   []time.Duration
	xkVirt    sim.Duration // virtual time of the baseline's slices
	xkOKBytes int64
	failed    int // either stack, warm-up included
}

func interleave(sp spec, seed uint64, warm, slices int) (xkData, error) {
	var d xkData
	var runErr error
	s := newScheduler()
	s.Run(func() {
		pat := makePattern(seed, sp.reply)
		foxNet, xkNet := assemble(s, sp, seed), assemble(s, sp, seed)
		fe := foxEndpoints(s, foxNet, sp, nil)
		xe := xkEndpoints(s, xkNet, sp)
		fox, err := newGen(s, sp, fe[0], fe[1], foxNet.Host(0).Addr, pat, nil)
		if err != nil {
			runErr = err
			return
		}
		xk, err := newGen(s, sp, xe[0], xe[1], xkNet.Host(0).Addr, pat, nil)
		if err != nil {
			runErr = err
			return
		}
		fox.run(warm)
		xk.run(warm)
		ok0 := xk.okBytes
		d.fox, d.xk = make([]time.Duration, slices), make([]time.Duration, slices)
		for i := 0; i < slices; i++ {
			t0 := time.Now()
			fox.run(sp.slice)
			d.fox[i] = time.Since(t0)
			v0 := s.Now()
			t0 = time.Now()
			xk.run(sp.slice)
			d.xk[i] = time.Since(t0)
			d.xkVirt += sim.Duration(s.Now() - v0)
		}
		d.xkOKBytes = xk.okBytes - ok0
		fox.stop()
		xk.stop()
		d.failed = fox.failed + xk.failed
	})
	return d, runErr
}
