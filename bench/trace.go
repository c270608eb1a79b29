package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"io"
	"time"

	"repro/internal/basis"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// The traced run records spans from outside the stack, around the calls
// the benchmark makes into it and the calls the stack makes back:
//
//	app.txn ▸ tcp.open | tcp.write | tcp.close ▸ ip.lower_tx
//	          tcp.rx ▸ app.upcall, ip.lower_tx
//
// tcp.rx and ip.lower_tx come from a protocol.Network shim between TCP
// and IP; the others wrap the connection calls and the Data upcall.
type spanKind uint8

const (
	spTxn spanKind = iota
	spOpen
	spClose
	spWrite
	spRx
	spLowerTx
	spUpcall
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"app.txn", "tcp.open", "tcp.close", "tcp.write", "tcp.rx", "ip.lower_tx", "app.upcall",
}

// span is one timed interval on one coroutine. Times are wall
// nanoseconds since the tracer's epoch.
type span struct {
	kind   spanKind
	parent int32 // index of the enclosing span on the same coroutine, -1 for a root
	txn    int32 // transaction the span worked for, -1 when unknown
	thread int32
	start  int64
	end    int64
	// away is the part of [start, end] during which this span was the
	// innermost open one on its coroutine and the scheduler had switched
	// to another coroutine (a Write blocked on a full send buffer, an Open
	// waiting for the handshake). The stack is cooperative and runs on one
	// OS thread, so that time is some other coroutine's work.
	away int64
}

// threadState is the per-coroutine span stack. Spans nest per coroutine,
// not globally: a Write parked on its buffer condition stays open while
// the device coroutine's tcp.rx spans come and go.
type threadState struct {
	id     int32
	stack  []int32
	lastNs int64  // wall time of this coroutine's latest span event
	lastSw uint64 // scheduler switch count at that event
}

// tracer holds every span of one traced run in a buffer allocated before
// the run; nothing is written out until the scheduler has returned. All
// methods are safe on a nil tracer, which is how the untraced run spells
// "off".
type tracer struct {
	s       *sim.Scheduler
	epoch   time.Time
	spans   []span
	dropped int // spans not recorded because the buffer was full
	threads map[*sim.Thread]*threadState
	ports   map[uint16]int32 // client port → transaction it currently serves
}

// mark returns the current trace time, 0 on a nil tracer.
func (t *tracer) mark() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func newTracer(s *sim.Scheduler, capacity int) *tracer {
	return &tracer{
		s:       s,
		epoch:   time.Now(),
		spans:   make([]span, 0, capacity),
		threads: make(map[*sim.Thread]*threadState),
		ports:   make(map[uint16]int32),
	}
}

// settle charges the interval since this coroutine's previous span event
// to its innermost open span as away time when the scheduler switched in
// between: Switches is the one exported fact that says the interval was
// not all this coroutine's own.
func (t *tracer) settle(ts *threadState, now int64) {
	sw := t.s.Switches()
	if n := len(ts.stack); n > 0 && sw != ts.lastSw {
		t.spans[ts.stack[n-1]].away += now - ts.lastNs
	}
	ts.lastNs, ts.lastSw = now, sw
}

func (t *tracer) current() *threadState {
	th := t.s.Current()
	ts := t.threads[th]
	if ts == nil {
		ts = &threadState{id: int32(len(t.threads))}
		t.threads[th] = ts
	}
	return ts
}

// begin opens a span on the running coroutine and returns its handle for
// end. txn < 0 inherits the enclosing span's transaction.
func (t *tracer) begin(kind spanKind, txn int32) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	now := int64(time.Since(t.epoch))
	ts := t.current()
	t.settle(ts, now)
	parent := int32(-1)
	if n := len(ts.stack); n > 0 {
		parent = ts.stack[n-1]
		if txn < 0 {
			txn = t.spans[parent].txn
		}
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: kind, parent: parent, txn: txn, thread: ts.id, start: now})
	ts.stack = append(ts.stack, i)
	return i
}

// end closes the span begin returned. Spans of one coroutine close in
// the reverse of the order they opened.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	ts := t.current()
	t.settle(ts, now)
	t.spans[i].end = now
	ts.stack = ts.stack[:len(ts.stack)-1]
}

// beginPkt opens a span for a TCP segment crossing the shim. The
// segment's client-side port ties it to a transaction: a segment sent
// from inside a client coroutine's span binds the port to that span's
// transaction, and segments seen on other coroutines (device upcalls,
// the server's writers, timers) look the binding up.
func (t *tracer) beginPkt(kind spanKind, pkt *basis.Packet) int32 {
	i := t.begin(kind, -1)
	if i < 0 {
		return i
	}
	hdr := pkt.Bytes()
	if len(hdr) < 4 {
		return i
	}
	port := binary.BigEndian.Uint16(hdr[0:2])
	if port == serverPort {
		port = binary.BigEndian.Uint16(hdr[2:4])
	}
	if sp := &t.spans[i]; sp.txn >= 0 {
		t.ports[port] = sp.txn
	} else if txn, ok := t.ports[port]; ok {
		sp.txn = txn
	}
	return i
}

// finished returns the spans that both began and ended; a run that stops
// while a writer is parked leaves a few open.
func (t *tracer) finished() []span {
	out := t.spans[:0:0]
	remap := make([]int32, len(t.spans))
	for i, sp := range t.spans {
		if sp.end == 0 {
			remap[i] = -1
			continue
		}
		remap[i] = int32(len(out))
		if sp.parent >= 0 {
			sp.parent = remap[sp.parent]
		}
		out = append(out, sp)
	}
	return out
}

// selfTimes returns, for each span, its duration minus the time its
// child spans cover and minus its away time: the wall time the span's
// own code held the processor.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, sp := range spans {
		self[i] += sp.end - sp.start - sp.away
		if sp.parent >= 0 {
			self[sp.parent] -= sp.end - sp.start
		}
	}
	return self
}

// writeChromeTrace renders spans in the Chrome trace-event format
// (chrome://tracing, Perfetto): one complete event per span, one track
// per coroutine. Events are encoded one at a time; a run's trace is
// several hundred thousand of them.
func writeChromeTrace(w io.Writer, spans []span) error {
	type args struct {
		Txn    int32   `json:"txn"`
		Parent int32   `json:"parent"`
		AwayUs float64 `json:"away_us"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int32   `json:"tid"`
		Args args    `json:"args"`
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[`)
	enc := json.NewEncoder(bw) // Encode ends each event with a newline, which JSON allows
	for i, sp := range spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		err := enc.Encode(event{
			Name: spanNames[sp.kind], Ph: "X",
			Ts: float64(sp.start) / 1e3, Dur: float64(sp.end-sp.start) / 1e3,
			Pid: 1, Tid: sp.thread,
			Args: args{Txn: sp.txn, Parent: sp.parent, AwayUs: float64(sp.away) / 1e3},
		})
		if err != nil {
			return err
		}
	}
	bw.WriteString("]}\n")
	return bw.Flush() // reports any earlier write error too
}

// shim is the observation point between TCP and IP: a protocol.Network
// that passes every call to the real one and brackets the two data-path
// directions with spans. tcp.New takes the interface, so the stack is
// traced without a line of it changing; Attach on the shim re-registers
// IP protocol 6 to the handler it wraps.
type shim struct {
	protocol.Network
	tr *tracer
}

func (n shim) Attach(h protocol.Handler) {
	n.Network.Attach(func(src protocol.Address, pkt *basis.Packet) {
		sp := n.tr.beginPkt(spRx, pkt)
		h(src, pkt)
		n.tr.end(sp)
	})
}

func (n shim) Send(dst protocol.Address, pkt *basis.Packet) error {
	sp := n.tr.beginPkt(spLowerTx, pkt)
	err := n.Network.Send(dst, pkt)
	n.tr.end(sp)
	return err
}
