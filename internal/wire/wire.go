// Package wire simulates the physical substrate the paper ran on: an
// isolated 10 Mb/s Ethernet connecting two DECstations, reached through
// Mach 3.0 IPC. A Segment is a shared medium that serializes one frame at
// a time at the configured bandwidth and delivers it to every other
// attached Port after a propagation delay; a Port is the device endpoint a
// protocol stack attaches to.
//
// Substitution notes (see DESIGN.md §3): the medium runs in virtual time
// on the scheduler, so transmission and propagation delays are exact and
// deterministic; the per-send cost of crossing into the kernel (the
// paper's "Mach send" profile row) is modeled as an explicit virtual
// charge; and the one data copy the paper attributes to the kernel at the
// device boundary is performed for real: Send copies the frame into a
// buffer of the segment's own, so the sender has its packet back at once
// and the medium works on memory nobody else can reach. Fault injection —
// loss, duplication, corruption, jitter reordering — is driven by a
// deterministic PRNG so every failure run is reproducible from its seed.
//
// Frame memory is the segment's (see framePool): a buffer travels Send →
// transmit queue → a port's delivery queue → that port's upcall chain and
// returns to the free list when the chain does. The rule on the way up is
// the mirror of protocol.Network.Send's — an upcall borrows its packet —
// and a layer that holds received bytes longer says so with
// basis.Packet.Keep, and gives the frame back through the basis.Frame
// Keep returns when the hold ends.
package wire

import (
	"fmt"
	"time"

	"repro/internal/basis"
	"repro/internal/profile"
	"repro/internal/sim"
)

// MaxFrame is the largest frame the medium accepts: 1500 bytes of payload
// plus the 14-byte Ethernet header and 4-byte FCS.
const MaxFrame = 1518

// Config parameterizes a Segment.
type Config struct {
	// BitsPerSecond is the medium bandwidth. Default 10 Mb/s, the
	// paper's Ethernet.
	BitsPerSecond int64
	// Propagation is the one-way propagation delay. Default 10 µs.
	Propagation sim.Duration
	// SendCost is the virtual cost charged to a host for handing one
	// frame to the device — the paper's Mach IPC send. Default 400 µs,
	// calibrated in EXPERIMENTS.md against Table 2's "Mach send" row.
	SendCost sim.Duration
	// Seed drives the fault PRNG. Runs are deterministic per seed.
	Seed uint64
	// Loss, Duplicate and Corrupt are per-frame fault probabilities.
	Loss, Duplicate, Corrupt float64
	// Jitter is the probability that a frame's delivery is delayed by a
	// random extra amount up to JitterMax, which reorders it behind
	// later frames.
	Jitter    float64
	JitterMax sim.Duration
}

// Validate rejects configurations that would silently misbehave:
// probabilities outside [0, 1] (or NaN) and negative durations or
// rates. NewSegment calls it and panics on error, so a bad config is
// loud at construction; callers that want the error instead (flag
// parsing, scenario loaders) call Validate themselves first.
func (c Config) Validate() error {
	probs := [...]struct {
		name string
		p    float64
	}{{"Loss", c.Loss}, {"Duplicate", c.Duplicate}, {"Corrupt", c.Corrupt}, {"Jitter", c.Jitter}}
	for _, f := range probs {
		if f.p < 0 || f.p > 1 || f.p != f.p {
			return fmt.Errorf("wire: Config.%s = %v, want a probability in [0, 1]", f.name, f.p)
		}
	}
	durs := [...]struct {
		name string
		d    sim.Duration
	}{{"Propagation", c.Propagation}, {"SendCost", c.SendCost}, {"JitterMax", c.JitterMax}}
	for _, f := range durs {
		if f.d < 0 {
			return fmt.Errorf("wire: Config.%s = %v, want a non-negative duration", f.name, f.d)
		}
	}
	if c.BitsPerSecond < 0 {
		return fmt.Errorf("wire: Config.BitsPerSecond = %d, want non-negative", c.BitsPerSecond)
	}
	return nil
}

func (c *Config) fill() {
	if c.BitsPerSecond == 0 {
		c.BitsPerSecond = 10_000_000
	}
	if c.Propagation == 0 {
		c.Propagation = 10 * time.Microsecond
	}
	if c.SendCost == 0 {
		c.SendCost = 400 * time.Microsecond
	}
	if c.JitterMax == 0 {
		c.JitterMax = 2 * time.Millisecond
	}
}

// Stats counts segment activity; tests and examples read it.
type Stats struct {
	Sent       uint64 // frames offered by hosts
	Delivered  uint64 // frame deliveries (receiving ports × frames)
	Lost       uint64
	Duplicated uint64
	Corrupted  uint64
	Jittered   uint64
	Oversize   uint64 // frames rejected for exceeding MaxFrame
	Cut        uint64 // deliveries suppressed by an active partition
}

// Segment is one shared broadcast medium.
type Segment struct {
	s   *sim.Scheduler
	cfg Config
	// rng drives the static Config.Loss/Duplicate/Corrupt/Jitter draws
	// (the delivery stream); faultRNG is a separate stream, seeded from
	// the same Config.Seed, that the scripted fault plane draws from.
	// The split keeps fixed-seed frame outcomes stable when a schedule
	// is attached — see control.go and DESIGN.md §15.
	rng      *basis.Rand
	faultRNG *basis.Rand
	ctl      control
	ports    []*Port
	txq      basis.FIFO[txFrame]
	txC      *sim.Cond
	stats    Stats
	trace    *basis.Tracer
	tap      func(from string, data []byte)
	pool     framePool
}

// txFrame and delivery carry one pooled frame buffer each; whoever
// dequeues one either passes the buffer on or puts it back.
type txFrame struct {
	from *Port
	data []byte
}

type delivery struct {
	availAt sim.Time
	data    []byte
}

// framePoolCap bounds the segment's free list of frame buffers, as
// segPoolCap bounds a TCP endpoint's: a 64 KB window is 45 full frames
// on the medium at once, so a bulk transfer cycles inside it, and the
// list pins at most framePoolCap × MaxFrame bytes (~96 KB).
const framePoolCap = 64

// framePool is the segment's frame memory: a LIFO free list of
// MaxFrame-sized buffers. get allocates when the list is empty; put takes
// a buffer back, or leaves it to the collector when the list is full. A
// buffer a receiver kept (basis.Packet.Keep) leaves the pool's hands until
// the holder releases it (Release, the pool being the frame's
// basis.Home); one that is never released is the collector's. The
// counters are the ledger the tests audit — gets − puts − (kept −
// released) is the number of buffers in the segment's queues, and kept −
// released the number receivers still hold.
type framePool struct {
	free                       [][]byte // len ≤ cap == framePoolCap, never reallocated
	gets, puts, kept, released uint64
}

// Release takes back a buffer a receiver kept, when its hold ends.
func (fp *framePool) Release(b []byte) {
	fp.released++
	fp.put(b)
}

// get returns a buffer of n ≤ MaxFrame bytes whose contents are whatever
// its last user (or the poison) left: callers overwrite all of it.
func (fp *framePool) get(n int) []byte {
	fp.gets++
	if k := len(fp.free); k > 0 {
		k--
		b := fp.free[k]
		fp.free[k] = nil
		fp.free = fp.free[:k]
		return b[:n]
	}
	return make([]byte, MaxFrame)[:n]
}

// put takes back a buffer that get handed out.
func (fp *framePool) put(b []byte) {
	fp.puts++
	k := len(fp.free)
	if k == cap(fp.free) {
		return
	}
	b = b[:MaxFrame]
	basis.Poison(b)
	fp.free = fp.free[:k+1]
	fp.free[k] = b
}

// clone returns a pooled copy of frame b.
//
//foxvet:boundary-copy the medium's own copies: a duplicated frame, and each receiver's DMA buffer on a segment of more than two ports, is physically another frame
func (fp *framePool) clone(b []byte) []byte {
	c := fp.get(len(b))
	copy(c, b)
	return c
}

// Port is a host's attachment to a segment. Exactly as in the paper's
// stack, received frames are pushed up through a handler upcall running on
// the port's own device thread.
type Port struct {
	seg     *Segment
	name    string
	prof    *profile.Profile
	handler func(*basis.Packet)
	inq     basis.FIFO[delivery]
	inC     *sim.Cond
	down    bool
	// rx is the one Packet every upcall chain of this port runs over.
	rx basis.Packet
}

// faultStreamSalt derives the fault stream's seed from Config.Seed.
// Any odd constant works; what matters is that the two streams are
// distinct for every seed.
const faultStreamSalt = 0x6661756c74 // "fault"

// NewSegment creates a segment and starts its medium thread. It must be
// called from inside the scheduler's Run. An invalid Config panics —
// call Config.Validate first to get the error instead.
func NewSegment(s *sim.Scheduler, cfg Config, trace *basis.Tracer) *Segment {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.fill()
	seg := &Segment{s: s, cfg: cfg, rng: basis.NewRand(cfg.Seed),
		faultRNG: basis.NewRand(cfg.Seed ^ faultStreamSalt), trace: trace}
	seg.pool.free = make([][]byte, 0, framePoolCap)
	seg.txC = sim.NewCond(s)
	s.Fork("wire", seg.mediumLoop)
	return seg
}

// Stats returns a snapshot of the segment's counters.
func (seg *Segment) Stats() Stats { return seg.stats }

// FrameLedger reports the frame pool's books: buffers handed out, buffers
// taken back, and buffers still held by receivers that kept them (kept
// and not yet released). gets − puts − held is the number of frames in
// the segment's queues, zero once the medium is quiet.
func (seg *Segment) FrameLedger() (gets, puts, held uint64) {
	fp := &seg.pool
	return fp.gets, fp.puts, fp.kept - fp.released
}

// SetTap installs an observer that sees every frame as it leaves the
// medium's transmit queue, before fault injection — a passive network
// analyzer clipped onto the simulated cable. The tap runs on the medium
// thread outside virtual-time charging, so observation is free. A tap
// borrows data: the buffer is the medium's and is reused for a later
// frame, so a tap that wants the bytes afterwards copies them.
func (seg *Segment) SetTap(tap func(from string, data []byte)) { seg.tap = tap }

// NewPort attaches a new host port named name. Device-send and
// packet-wait time is attributed to prof when non-nil.
func (seg *Segment) NewPort(name string, prof *profile.Profile) *Port {
	p := &Port{seg: seg, name: name, prof: prof}
	p.inC = sim.NewCond(seg.s)
	seg.ports = append(seg.ports, p)
	seg.s.Fork("dev-recv:"+name, p.recvLoop)
	return p
}

// SetHandler installs the receive upcall. Frames arriving while no
// handler is installed are dropped. The upcall borrows its packet: the
// port reuses both the Packet and its bytes once h returns, unless
// something in the chain called Keep on it.
func (p *Port) SetHandler(h func(*basis.Packet)) { p.handler = h }

// SetUp raises or lowers the interface. A down port transmits nothing and
// hears nothing — the cable-pull fault. Traffic during the outage is
// simply lost; the protocols above must recover, and the tests check that
// they do.
func (p *Port) SetUp(up bool) { p.down = !up }

// Up reports whether the interface is raised.
func (p *Port) Up() bool { return !p.down }

// MaxFrame reports the largest frame this port accepts.
func (p *Port) MaxFrame() int { return MaxFrame }

// Name returns the port's diagnostic name.
func (p *Port) Name() string { return p.name }

// Scheduler returns the scheduler the segment runs on.
func (seg *Segment) Scheduler() *sim.Scheduler { return seg.s }

// Send offers a frame to the medium. The frame is copied at this boundary
// (the paper's kernel copy) and the configured device-send cost is charged
// to the calling host. Oversize frames are counted and dropped, as a real
// controller would refuse them.
func (p *Port) Send(pkt *basis.Packet) {
	seg := p.seg
	if p.down {
		return // carrier lost: the controller drops the frame silently
	}
	sec := p.prof.Start(profile.CatDevSend)
	seg.s.Charge(seg.cfg.SendCost)
	if pkt.Len() > MaxFrame {
		seg.stats.Oversize++
		sec.Stop()
		return
	}
	// The boundary copy is the kernel's work in the paper's setup — it
	// happens, but its simulation cost stays off the host's clock (the
	// explicit SendCost models the whole kernel crossing).
	seg.s.Exclude(func() {
		data := seg.pool.get(pkt.Len())
		copy(data, pkt.Bytes()) //foxvet:boundary-copy simulated kernel crossing: the NIC DMA copy the paper charges to SendCost, off the host clock
		seg.stats.Sent++
		seg.txq.Enqueue(txFrame{from: p, data: data})
		seg.txC.Signal()
	})
	sec.Stop()
	if seg.trace.On() {
		seg.trace.Printf("%s tx %d bytes (queue %d)", p.name, len(pkt.Bytes()), seg.txq.Len())
	}
}

// mediumLoop serializes frames onto the medium one at a time — the shared
// Ethernet — applying bandwidth delay, faults, and propagation. It owns
// the buffer of every frame it dequeues and gives back each one it does
// not hand to a port.
func (seg *Segment) mediumLoop() {
	for {
		for seg.txq.Empty() {
			seg.txC.Wait()
		}
		f, _ := seg.txq.Dequeue()
		if seg.tap != nil {
			seg.s.Exclude(func() { seg.tap(f.from.name, f.data) })
		}
		bps := seg.cfg.BitsPerSecond
		if seg.ctl.rate > 0 {
			bps = seg.ctl.rate // scripted bandwidth collapse
		}
		txTime := sim.Duration(int64(len(f.data)) * 8 * int64(time.Second) / bps)
		seg.s.Sleep(txTime)

		// The loss decision: the burst model, while active, replaces the
		// i.i.d. draw and consumes only fault-stream values. (When
		// Config.Loss is in (0,1) the delivery stream keeps its draw so
		// the stream stays frame-aligned across a burst window.)
		lost := seg.rng.Chance(seg.cfg.Loss)
		if b := seg.ctl.burst; b != nil {
			lost = b.step(seg.faultRNG)
		}
		if lost {
			seg.stats.Lost++
			if seg.trace.On() {
				seg.trace.Printf("frame from %s lost (%d bytes)", f.from.name, len(f.data))
			}
			seg.pool.put(f.data)
			continue
		}
		copies := 1
		if seg.rng.Chance(seg.cfg.Duplicate) {
			copies = 2
			seg.stats.Duplicated++
		}
		for i := 0; i < copies; i++ {
			// Each copy travels in a buffer of its own — a duplicated frame
			// is physically a second frame on the medium — so the damage
			// below is done in place. The duplicate is cloned first, while
			// f.data is still as transmitted; the last copy is f.data.
			data := f.data
			if i+1 < copies {
				data = seg.pool.clone(f.data)
			}
			if seg.rng.Chance(seg.cfg.Corrupt) && len(data) > 0 {
				data[seg.rng.Intn(len(data))] ^= 0xff
				seg.stats.Corrupted++
			}
			// A corruption storm is extra damage layered on top of the
			// static rate; its draws come from the fault stream only.
			if seg.ctl.stormP > 0 && seg.faultRNG.Chance(seg.ctl.stormP) && len(data) > 0 {
				data[seg.faultRNG.Intn(len(data))] ^= 0xff
				seg.stats.Corrupted++
			}
			availAt := seg.s.Now() + sim.Time(seg.cfg.Propagation) + sim.Time(seg.ctl.extra)
			if seg.rng.Chance(seg.cfg.Jitter) {
				extra := sim.Duration(seg.rng.Intn(int(seg.cfg.JitterMax)))
				availAt += sim.Time(extra)
				seg.stats.Jittered++
			}
			queued := false
			for _, port := range seg.ports {
				if port == f.from {
					continue
				}
				// An active partition cuts delivery across the split:
				// only ports in the sender's group hear the frame.
				if g := seg.ctl.groups; g != nil && g[port.name] != g[f.from.name] {
					seg.stats.Cut++
					continue
				}
				// Each receiving controller gets its own buffer: one
				// more copy would be wrong — a broadcast medium induces
				// N receive buffers, so copy per receiver as hardware
				// DMA does.
				buf := data
				if len(seg.ports) > 2 {
					buf = seg.pool.clone(data)
				} else {
					queued = true
				}
				port.inq.Enqueue(delivery{availAt: availAt, data: buf})
				port.inC.Signal()
				seg.stats.Delivered++
			}
			// Nobody took data itself: a partition cut it off, or every
			// receiver got a copy of its own.
			if !queued {
				seg.pool.put(data)
			}
		}
	}
}

// recvLoop waits for deliveries and runs the upcall chain over the port's
// one Packet. The chain borrows the frame: when it returns the buffer goes
// back to the segment's pool, unless a layer kept it — then the holder
// sends it back when its hold ends. Waiting time is the paper's "packet
// wait" profile row.
func (p *Port) recvLoop() {
	pool := &p.seg.pool
	for {
		for p.inq.Empty() {
			sec := p.prof.Start(profile.CatPacketWait)
			p.inC.Wait()
			sec.Stop()
		}
		d, _ := p.inq.Dequeue()
		if wait := sim.Duration(d.availAt - p.seg.s.Now()); wait > 0 {
			sec := p.prof.Start(profile.CatPacketWait)
			p.seg.s.Sleep(wait)
			sec.Stop()
		}
		if p.handler == nil || p.down {
			pool.put(d.data)
			continue
		}
		if p.seg.trace.On() {
			p.seg.trace.Printf("%s rx %d bytes", p.name, len(d.data))
		}
		p.rx.Rewire(d.data, pool)
		p.handler(&p.rx)
		if p.rx.Kept() {
			pool.kept++
		} else {
			pool.put(d.data)
		}
	}
}

// String describes the segment configuration.
func (seg *Segment) String() string {
	return fmt.Sprintf("segment[%d Mb/s, prop %v, %d ports]",
		seg.cfg.BitsPerSecond/1_000_000, seg.cfg.Propagation, len(seg.ports))
}
