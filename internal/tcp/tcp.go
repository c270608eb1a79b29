package tcp

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/basis"
	"repro/internal/flight"
	"repro/internal/profile"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// defaultMSS is RFC 1122's default effective send MSS when the peer
// announces none.
const defaultMSS = 536

// Config carries the functor parameters of the paper's Figure 4. The
// first four are the paper's own val parameters; the rest parameterize
// behavior the paper's text describes (delayed ACKs, retransmission
// policy, the fast path, the quasi-synchronous queue) so the benchmark
// harness can ablate them.
type Config struct {
	// InitialWindow is the receive window advertised to the peer
	// (val initial_window). The paper standardizes 4096 bytes for its
	// benchmarks. Default 4096.
	InitialWindow int
	// ComputeChecksums controls TCP checksum generation and
	// verification (val compute_checksums); Fig. 3 turns it off for the
	// TCP-over-Ethernet stack. Default true — set Disable to override.
	ComputeChecksums *bool
	// AbortUnknownConnections, when set, answers segments for unknown
	// connections with RST (val abort_unknown_connections). The paper
	// runs with it false so as not to disturb the host OS's
	// connections; a full stack normally wants it true. Default true.
	AbortUnknownConnections *bool
	// UserTimeout bounds how long a connection tolerates zero forward
	// progress before hung operations fail (val user_timeout).
	// Default 30 s.
	UserTimeout sim.Duration

	// MSL is the maximum segment lifetime; TIME-WAIT lasts 2×MSL.
	// Default 30 s (the classic 2 min is needlessly slow in simulation;
	// EXPERIMENTS.md notes the substitution).
	MSL sim.Duration
	// DelayedAcks enables RFC 1122 delayed ACKs (ack every second full
	// segment or after AckDelay). Default true.
	DelayedAcks *bool
	// AckDelay is the delayed-ACK timer. Default 200 ms.
	AckDelay sim.Duration
	// Nagle enables sender small-segment coalescing. Default true.
	Nagle *bool
	// FastPath enables the header-prediction receive/send fast path the
	// paper describes in §4. Default true.
	FastPath *bool
	// DirectDispatch, when set, bypasses the quasi-synchronous to_do
	// queue and performs actions by direct call — the ablation
	// comparison for the paper's central control-structure choice.
	// Default false (paper behavior).
	DirectDispatch bool
	// CongestionControl enables slow start, congestion avoidance and
	// fast retransmit, with NewReno fast recovery (RFC 5681, RFC 6582)
	// and limited transmit (RFC 3042) — where the paper's
	// Berkeley-derived comparator stays Tahoe. Default true; false means
	// no congestion control at all.
	CongestionControl *bool

	// InitialRTO, MinRTO, MaxRTO bound the retransmission timeout.
	// Defaults 1 s, 500 ms, 64 s.
	InitialRTO sim.Duration
	MinRTO     sim.Duration
	MaxRTO     sim.Duration
	// BackoffCeiling caps the backed-off retransmission and persist
	// timeouts (rto << backoff) below MaxRTO, bounding how long a
	// connection coasts on a maxed exponential after a partition heals:
	// the next probe is at most BackoffCeiling away, so recovery time
	// after a heal is bounded by it. Default MaxRTO (no extra cap).
	BackoffCeiling sim.Duration

	// SendBufferLimit bounds bytes queued but unsent per connection;
	// Write blocks when it is full. Default 64 KiB.
	SendBufferLimit int

	// ReassemblyLimit bounds the bytes (payload plus a fixed per-segment
	// overhead) a connection's out-of-order reassembly queue may hold;
	// newest segments are evicted at the cap. Default 64 KiB, or what a
	// full InitialWindow of full-sized segments costs when that is more,
	// so that no in-window segment is ever evicted.
	ReassemblyLimit int
	// MaxSynBacklog bounds half-open (SYN-received) connections per
	// listener; the oldest half-open is evicted when a flood fills the
	// table, like Linux's tcp_max_syn_backlog plus SYN-cookie-less
	// oldest-drop. Default 64.
	MaxSynBacklog int
	// MemoryLimit bounds the bytes this endpoint buffers on behalf of
	// peers (send queues, reassembly queues, undelivered receive
	// buffers), in the style of Linux's tcp_mem: above 3/4 of the limit
	// the endpoint is under pressure (advertised windows shrink to one
	// MSS, new embryonic connections are refused); at the limit it is
	// exhausted (windows advertise zero). Default 4 MiB.
	MemoryLimit int
	// ChallengeACKLimit bounds RFC 5961 challenge ACKs per simulated
	// second, endpoint-wide, so the defense cannot itself be used as a
	// bandwidth amplifier. Default 100.
	ChallengeACKLimit int

	// PersistInterval is the zero-window probe interval base.
	// Default 5 s.
	PersistInterval sim.Duration

	// Keepalive enables RFC 1122 §4.2.3.6 keepalive probing on
	// established connections. Default false, as the RFC requires.
	Keepalive bool
	// KeepaliveIdle is how long a connection may be silent before the
	// first probe; KeepaliveCount is how many unanswered probes fail
	// the connection. Defaults 2 h and 3.
	KeepaliveIdle  sim.Duration
	KeepaliveCount int

	// DataPath, when set, charges calibrated 1994-hardware virtual
	// time per kilobyte for the data-touching operations, on top of the
	// structural CPU measured from the real code. The experiments
	// package uses the paper's own constants (copy 300 µs/KB, checksum
	// 343 µs/KB for the SML stack) to reproduce Table 1's full factor,
	// which otherwise under-reports the SML-vs-C code-generation gap.
	DataPath DataPathCosts

	// The remaining fields attach observers. Every one is optional, all
	// are fed from the one seam in observe.go, and none can change what
	// the connection does: virtual results are bit-identical whichever
	// are set.

	Trace *basis.Tracer    // val do_prints / do_traces
	Prof  *profile.Profile // Table 2 sections

	// Metrics and Harden are the endpoint's one counter set: the RFC
	// 2012-style tcp group with the datapath counts, and the
	// hostile-network group (challenge ACKs, SYN-queue evictions,
	// memory-pressure moves, user-timeout aborts). New allocates a
	// detached group when none is supplied; installing the groups into a
	// stats.Registry is what makes them visible. Stats is a view over
	// them.
	Metrics *stats.TCPMIB
	Harden  *stats.HardenMIB
	// Flight, when non-nil, journals every enqueued action with its
	// cause, a per-drain TCB delta and every point event — state
	// transitions, retransmits, RTO backoff, zero windows, resets
	// (internal/flight); cmd/foxreplay re-executes and audits the
	// journal, and flight.Events and flight.Series read it. Ignored
	// under DirectDispatch — with the to_do queue bypassed there is no
	// door to journal.
	Flight *flight.Recorder
	// Telemetry, when non-nil, records hot-path latency histograms
	// (segment RTT, enqueue→perform at the single door, user Read/Write
	// completion) and the per-action executor profile
	// (internal/telemetry); foxstat -serve exports it live. Ignored
	// under DirectDispatch, like Flight.
	Telemetry *telemetry.Telemetry
}

// DataPathCosts carries per-kilobyte virtual charges for data-touching
// operations (see Config.DataPath).
type DataPathCosts struct {
	CopyPerKB     sim.Duration
	ChecksumPerKB sim.Duration
}

func boolDefault(p *bool, def bool) bool {
	if p == nil {
		return def
	}
	return *p
}

func (c *Config) fill() {
	if c.InitialWindow == 0 {
		c.InitialWindow = 4096
	}
	if c.UserTimeout == 0 {
		c.UserTimeout = 30 * time.Second
	}
	if c.MSL == 0 {
		c.MSL = 30 * time.Second
	}
	if c.AckDelay == 0 {
		c.AckDelay = 200 * time.Millisecond
	}
	if c.InitialRTO == 0 {
		c.InitialRTO = time.Second
	}
	if c.MinRTO == 0 {
		c.MinRTO = 500 * time.Millisecond
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = 64 * time.Second
	}
	if c.BackoffCeiling == 0 || c.BackoffCeiling > c.MaxRTO {
		c.BackoffCeiling = c.MaxRTO
	}
	if c.SendBufferLimit == 0 {
		c.SendBufferLimit = 64 << 10
	}
	if c.PersistInterval == 0 {
		c.PersistInterval = 5 * time.Second
	}
	if c.KeepaliveIdle == 0 {
		c.KeepaliveIdle = 2 * time.Hour
	}
	if c.KeepaliveCount == 0 {
		c.KeepaliveCount = 3
	}
	if c.MaxSynBacklog == 0 {
		c.MaxSynBacklog = 64
	}
	if c.MemoryLimit == 0 {
		c.MemoryLimit = 4 << 20
	}
	if c.ChallengeACKLimit == 0 {
		c.ChallengeACKLimit = 100
	}
}

func (c *Config) computeChecksums() bool  { return boolDefault(c.ComputeChecksums, true) }
func (c *Config) abortUnknown() bool      { return boolDefault(c.AbortUnknownConnections, true) }
func (c *Config) delayedAcks() bool       { return boolDefault(c.DelayedAcks, true) }
func (c *Config) nagle() bool             { return boolDefault(c.Nagle, true) }
func (c *Config) fastPath() bool          { return boolDefault(c.FastPath, true) }
func (c *Config) congestionControl() bool { return boolDefault(c.CongestionControl, true) }

// reassemblyDefault is the default ReassemblyLimit for a receive window
// of wnd bytes arriving in segments of mss: 64 KiB, or what the queue
// charges for a whole window of them beyond one hole when that is more.
func reassemblyDefault(wnd, mss int) int {
	if mss <= 0 {
		mss = defaultMSS
	}
	return max(64<<10, wnd+(wnd+mss-1)/mss*oooOverhead)
}

// Disable is a convenience for the Config's optional booleans.
var Disable = func() *bool { b := false; return &b }()

// Enable is the symmetric convenience.
var Enable = func() *bool { b := true; return &b }()

// Errors delivered to users.
var (
	ErrReset   = errors.New("tcp: connection reset by peer")
	ErrRefused = errors.New("tcp: connection refused")
	ErrTimeout = errors.New("tcp: operation timed out")
	// ErrProgressTimeout is the RFC 9293 §3.8.5 / RFC 5482 user
	// timeout: the connection was aborted because retransmissions (or
	// zero-window probes) made no forward progress for
	// Config.UserTimeout. Distinguishable from ErrTimeout so callers
	// can tell "the network stopped moving our data" from other
	// timeouts; Read/Write return it once the abort lands.
	ErrProgressTimeout = errors.New("tcp: user timeout: no forward progress")
	ErrAborted         = errors.New("tcp: connection aborted")
	ErrClosed          = errors.New("tcp: connection closed")
	ErrPortInUse       = errors.New("tcp: port in use")
	ErrNotEstab        = errors.New("tcp: connection not established")
)

// Stats counts endpoint-wide TCP activity. It is a view over the
// endpoint's counter set (Config.Metrics, Config.Harden), not a second
// set.
type Stats struct {
	SegsSent      uint64
	SegsReceived  uint64
	BytesSent     uint64 // user payload bytes handed to the wire (excl. rexmits)
	BytesReceived uint64 // user payload bytes delivered in order
	Retransmits   uint64
	FastPathIn    uint64
	SlowPathIn    uint64
	BadChecksum   uint64
	BadSegment    uint64
	DupAcksSeen   uint64
	OutOfOrder    uint64
	RSTSent       uint64
	RSTReceived   uint64
	AcksDelayed   uint64
	ConnsOpened   uint64
	ConnsAccepted uint64
	UnknownDest   uint64
	// ProgressTimeouts counts connections aborted by the RFC 9293 user
	// timeout: no forward progress for Config.UserTimeout despite
	// retransmissions or zero-window probes.
	ProgressTimeouts uint64
}

// connKey identifies a connection: the peer's lower-layer address and the
// two ports.
type connKey struct {
	raddr protocol.Address
	rport uint16
	lport uint16
}

func (k connKey) String() string {
	return fmt.Sprintf("%v:%d<->:%d", k.raddr, k.rport, k.lport)
}

// Handler is the set of upcalls a connection's user supplies — the
// paper's connection-specific handler, "specializ[ed] on the connection
// information the handler supplied to the open call". Any field may be
// nil.
//
// Data borrows its bytes: data aliases the received frame, which the
// device reuses for a later frame as soon as the upcall returns. Read it
// or copy it before returning; in particular do not hand it to Write,
// which queues by reference — an echo server writes a copy.
type Handler struct {
	Established func(c *Conn)
	Data        func(c *Conn, data []byte)
	// Urgent reports that the peer has signaled urgent data ending at
	// the given sequence offset ahead of what has been delivered.
	Urgent     func(c *Conn)
	PeerClosed func(c *Conn)
	Error      func(c *Conn, err error)
}

// Listener answers SYNs on one local port.
type Listener struct {
	t      *TCP
	port   uint16
	accept func(c *Conn) Handler
	// halfOpen tracks this listener's embryonic connections, oldest
	// first; under a SYN flood the oldest is evicted to admit the newest,
	// so a legitimate client that retransmits its SYN still gets in.
	halfOpen []*Conn
}

// Close stops answering new SYNs; existing connections are unaffected.
func (l *Listener) Close() {
	if l.t.listeners[l.port] == l {
		delete(l.t.listeners, l.port)
	}
}

// TCP is one host's TCP endpoint over one lower network — the structure
// the Tcp functor of Fig. 4 yields.
type TCP struct {
	s         *sim.Scheduler
	net       protocol.Network
	cfg       Config
	conns     map[connKey]*Conn
	listeners map[uint16]*Listener
	ephemeral uint16

	// mem is the endpoint-wide buffered-byte account (mem.go).
	mem memAccount
	// obs is the observer seam's state (observe.go).
	obs observer
	// pool is the send side's packet memory (segment.go).
	pool segPool
	// rx is the one segment every arrival is internalized into; rxBusy
	// says an arrival is being processed in it (see handler).
	rx     segment
	rxBusy bool
	// heldFree is the free list of held segments (own, release);
	// len ≤ cap == heldPoolCap, never reallocated.
	heldFree []*heldSegment

	// replay marks an endpoint reconstructed by ReplayJournal: timers are
	// flagged set but never armed (expirations come from the journal).
	replay bool
}

// New instantiates the TCP "functor" over net.
func New(s *sim.Scheduler, net protocol.Network, cfg Config) *TCP {
	cfg.fill()
	if cfg.ReassemblyLimit == 0 {
		cfg.ReassemblyLimit = reassemblyDefault(cfg.InitialWindow, net.MTU()-headerLen)
	}
	t := &TCP{
		s: s, net: net, cfg: cfg,
		conns:     make(map[connKey]*Conn),
		listeners: make(map[uint16]*Listener),
		ephemeral: 49151,
	}
	t.mem.limit = cfg.MemoryLimit
	t.mem.pressureAt = cfg.MemoryLimit - cfg.MemoryLimit/4
	t.pool.init(net)
	t.heldFree = make([]*heldSegment, 0, heldPoolCap)
	t.observeInit()
	net.Attach(t.handler)
	return t
}

// Name implements protocol.Protocol.
func (t *TCP) Name() string { return "tcp" }

// MTU reports the largest segment payload the lower layer carries.
func (t *TCP) MTU() int { return t.net.MTU() - headerLen }

// ActiveConns reports connections currently in the demux table (all
// states except fully deleted); leak checks use it.
func (t *TCP) ActiveConns() int { return len(t.conns) }

// Scheduler returns the scheduler this endpoint runs on.
func (t *TCP) Scheduler() *sim.Scheduler { return t.s }

// localMSS is the MSS we announce: the lower layer's payload capacity.
func (t *TCP) localMSS() uint16 {
	m := t.MTU()
	if m > 0xffff {
		m = 0xffff // the MSS option field saturates
	}
	return uint16(m)
}

// chooseISS picks an initial send sequence number from the 4 µs clock
// RFC 793 prescribes.
func (t *TCP) chooseISS() seq {
	ticks := uint64(t.s.Now()) / uint64(4*time.Microsecond)
	return seq(ticks % (1 << 32)) // the 32-bit ISS clock wraps by design
}

// handler is the lower layer's upcall. It borrows pkt, as every upcall
// does, and so does everything it starts: the segment is internalized
// into the endpoint's one receive segment, whose text aliases pkt's
// frame, and both are good until handler returns. What must outlive that
// takes ownership first (TCP.own, segment.keep).
//
// The one receive segment is free again when handler returns. Only an
// arrival on a second device thread while an upcall of the first is
// parked (a multi-homed host, a test rig) finds it busy, and gets a
// segment of its own.
//
//foxvet:hotpath
func (t *TCP) handler(src protocol.Address, pkt *basis.Packet) {
	if t.rxBusy {
		t.internalize(src, pkt, new(segment))
		return
	}
	t.rxBusy = true
	t.internalize(src, pkt, &t.rx)
	t.rxBusy = false
}

// internalize is the Action module's receive function: it "computes the
// checksum and decodes the packet header, then places a Process_Data
// action ... onto the to_do queue" of the connection it finds, and drains
// the queue.
//
//foxvet:hotpath
func (t *TCP) internalize(src protocol.Address, pkt *basis.Packet, sg *segment) {
	var pseudo uint16
	verify := t.cfg.computeChecksums()
	if verify {
		pseudo = t.net.PseudoHeaderChecksum(src, pkt.Len())
	}
	cks := t.cfg.Prof.Start(profile.CatChecksum)
	segLen := pkt.Len()
	err := sg.unmarshal(pkt, pseudo, verify)
	if verify {
		t.chargePerKB(t.cfg.DataPath.ChecksumPerKB, segLen)
	}
	cks.Stop()
	t.observeSegIn(src, sg, err)
	if err != nil {
		return
	}

	key := connKey{raddr: src, rport: sg.srcPort, lport: sg.dstPort}
	e := t.observeEnter(nil, enterPacket, 0, sg)
	c, ok := t.conns[key]
	if !ok {
		c = t.dispatchUnknown(key, sg)
	}
	if c != nil {
		if c.executing {
			// Another thread is parked inside this connection's executor —
			// an upcall it made is blocked — so the segment waits on to_do
			// past our return and cannot stay borrowed.
			sg = t.own(sg)
		}
		c.enqueue(action{kind: actProcessData, seg: sg})
		c.run()
	}
	t.observeLeave(e)
}

// dispatchUnknown handles a segment for which no connection exists:
// give it to a listener (creating a connection in Listen state), or
// treat it as arriving in the fictional CLOSED state.
func (t *TCP) dispatchUnknown(key connKey, sg *segment) *Conn {
	if l, ok := t.listeners[key.lport]; ok {
		// Admission control happens here, before a TCB exists, so a
		// flood of pure SYNs cannot allocate unbounded state. Segments
		// other than pure SYNs (stray ACKs, RSTs) fall through to the
		// CLOSED-state rules below via the Listen-state handler, which
		// allocates only transiently.
		if sg.has(flagSYN) && !sg.has(flagACK) {
			if t.mem.state != memNormal {
				t.note(evSynDropped, nil, 0, 0)
				return nil
			}
			if len(l.halfOpen) >= t.cfg.MaxSynBacklog {
				l.evictOldestHalfOpen()
			}
		}
		c := newConn(t, key)
		c.setState(StateListen)
		t.conns[key] = c
		c.handler = l.accept(c)
		if sg.has(flagSYN) && !sg.has(flagACK) {
			l.join(c)
		}
		t.observeAccept(c)
		return c
	}
	t.note(evNoConn, nil, 0, 0)
	// RFC 793, SEGMENT ARRIVES, CLOSED state: everything except a
	// reset provokes a reset, if we are configured to send one.
	if sg.has(flagRST) || !t.cfg.abortUnknown() {
		return nil
	}
	rst := &segment{srcPort: key.lport, dstPort: key.rport}
	if sg.has(flagACK) {
		rst.flags = flagRST
		rst.seq = sg.ack
	} else {
		rst.flags = flagRST | flagACK
		rst.seq = 0
		rst.ack = sg.seq + seq(sg.seqLen())
	}
	t.emitRaw(key.raddr, rst)
	return nil
}

// emitRaw externalizes a segment outside any connection (CLOSED-state
// resets).
func (t *TCP) emitRaw(dst protocol.Address, sg *segment) {
	pkt := t.pool.scratch()
	pseudo := uint16(0)
	if t.cfg.computeChecksums() {
		pseudo = t.net.PseudoHeaderChecksum(dst, sg.headerBytes())
	}
	sg.marshal(pkt, pseudo, t.cfg.computeChecksums())
	t.observeSegOut(nil, dst, sg)
	t.net.Send(dst, pkt)
}

// Open actively opens a connection to remotePort at remote and blocks the
// calling thread until it is established or fails — the paper's
// synchronization point: "no data is delivered on a connection until
// after the corresponding open returns to the caller".
func (t *TCP) Open(remote protocol.Address, remotePort uint16, h Handler) (*Conn, error) {
	t.ephemeral++
	if t.ephemeral == 0 {
		t.ephemeral = 49152
	}
	return t.OpenFrom(remote, remotePort, t.ephemeral, h)
}

// OpenFrom is Open with an explicit local port.
func (t *TCP) OpenFrom(remote protocol.Address, remotePort, localPort uint16, h Handler) (*Conn, error) {
	key := connKey{raddr: remote, rport: remotePort, lport: localPort}
	if _, ok := t.conns[key]; ok {
		return nil, ErrPortInUse
	}
	c := newConn(t, key)
	c.handler = h
	t.conns[key] = c
	e := c.enter(enterOpen, 0)
	c.stateActiveOpen()
	c.leave(e)

	for !c.openDone {
		c.openCond.Wait()
	}
	if c.openErr != nil {
		return nil, c.openErr
	}
	return c, nil
}

// Listen installs accept as the factory of handlers for connections
// arriving on port — the passive open. accept is called once per SYN,
// before the handshake completes; its Established upcall reports
// completion.
func (t *TCP) Listen(port uint16, accept func(c *Conn) Handler) (*Listener, error) {
	if _, ok := t.listeners[port]; ok {
		return nil, ErrPortInUse
	}
	l := &Listener{t: t, port: port, accept: accept}
	t.listeners[port] = l
	return l, nil
}
