// Package flight is the stack's flight recorder: a streaming journal of
// everything that crosses the quasi-synchronous executor's single door.
// The TCP layer records, per connection, every enqueued tcp_action with
// its cause (packet arrival with a segment digest, timer expiration with
// the timer id, user call), a virtual timestamp, and a monotonically
// increasing sequence number — plus a compact pre/post TCB delta for
// every drained action. Because the executor is the only place TCB state
// changes, the journal is a complete, causally-linked account of a run,
// and cmd/foxreplay can re-execute it against a fresh TCB and diff the
// reconstruction at every step.
//
// The journal format is length-prefixed JSONL: each record is the ASCII
// decimal byte length of its JSON body, one space, the JSON object, and
// a newline. The length prefix makes corruption detectable without
// trusting the JSON scanner, and the JSON body keeps the journal
// greppable and jq-able.
//
// The Recorder follows the Tracer/EventRing discipline: every hook site
// in the hot path is a single nil check, and the enabled path encodes
// into preallocated buffers it owns — no allocation per record once the
// buffers have grown to the working-set size.
package flight

import (
	"io"
	"strconv"
)

// Record kind names, as written in the "k" field.
const (
	KindHdr   = "hdr"  // run header: host, MTU, resolved Config
	KindOpen  = "open" // connection creation (active or passive)
	KindUop   = "uop"  // user operation: open/write/read/close/abort/wurg
	KindEnq   = "enq"  // one tcp_action enqueued, with its cause
	KindBeg   = "beg"  // executor begins performing an enqueued action
	KindEnd   = "end"  // executor finished it; "d" holds the TCB delta
	KindSeal  = "seal" // closes a batch of the sealed hash chain (internal/flight/seal)
	KindFault = "flt"  // scripted fault-plane transition (observer-only)
)

// Cause kinds, as written in the "ck" field of open/uop/enq records.
const (
	CauseAct   = "act"  // enqueued while performing another action ("cz")
	CauseUser  = "user" // enqueued by a user call ("cz" names its uop/open)
	CausePkt   = "pkt"  // enqueued by a packet arrival ("ps".."pl" digest)
	CauseTimer = "tmr"  // enqueued by a timer expiration ("tw")
)

// cause is one frame of the recorder's cause stack. The stack mirrors
// the call structure of the stack itself: a packet handler pushes a pkt
// frame around demux, the executor pushes an act frame around each
// perform, a user-call hook pushes a user frame around its enqueues.
type cause struct {
	kind string // "" means no cause (root event)
	ref  uint64 // act/user: seq of the causing record; tmr: the timer's id

	// pkt digest (kind == CausePkt)
	pSeq, pAck      uint32
	pFlags          uint8
	pWnd, pUp, pMSS uint16
	pLen            int
}

// Recorder emits journal records to one writer. It is not safe for
// concurrent use from independent goroutines; like the EventRing, every
// writer runs inside the simulation scheduler's handoff discipline, so
// plain fields suffice.
type Recorder struct {
	w   io.Writer
	err error
	seq uint64

	buf []byte // JSON body under construction
	out []byte // length-prefixed frame handed to w

	causes [32]cause
	ncause int
}

// NewRecorder returns a recorder writing to w. Writes are unbuffered —
// one Write per record — so handing it an *os.File needs no flush; wrap
// the writer yourself if you want batching.
func NewRecorder(w io.Writer) *Recorder {
	return &Recorder{
		w:   w,
		buf: make([]byte, 0, 1024),
		out: make([]byte, 0, 1024),
	}
}

// Err reports the first write error, if any; once set, the recorder
// drops further records.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	return r.err
}

// Seq reports how many sequence numbers have been issued.
func (r *Recorder) Seq() uint64 { return r.seq }

// Syncer is the durability seam: a journal writer that can force its
// buffered state to stable storage. The seal.Writer implements it by
// sealing the partial batch and syncing the writer beneath it.
type Syncer interface {
	Sync() error
}

// Sync flushes the underlying writer if it supports the Syncer seam.
// Call it at shutdown (or before reading a live journal) so the tail of
// the run is never silently truncated; a no-op for plain writers.
func (r *Recorder) Sync() error {
	if r == nil {
		return nil
	}
	if r.err != nil {
		return r.err
	}
	if s, ok := r.w.(Syncer); ok {
		r.err = s.Sync()
	}
	return r.err
}

// --- cause stack ---------------------------------------------------------

// BeginPkt pushes a packet-arrival cause with the segment digest; every
// record emitted until the matching EndCause is attributed to it.
//
//foxvet:hotpath
func (r *Recorder) BeginPkt(seq, ack uint32, flags uint8, wnd, up, mss uint16, payload int) {
	f := &r.causes[r.ncause]
	r.ncause++
	f.kind = CausePkt
	f.pSeq, f.pAck, f.pFlags = seq, ack, flags
	f.pWnd, f.pUp, f.pMSS = wnd, up, mss
	f.pLen = payload
}

// Begin pushes an action, user-call or timer cause: CauseAct while the
// executor performs the action whose enq record carried seq ref,
// CauseUser around a user call whose uop record carried it, CauseTimer
// around the expiration of timer id ref.
//
//foxvet:hotpath
func (r *Recorder) Begin(kind string, ref uint64) {
	f := &r.causes[r.ncause]
	r.ncause++
	f.kind = kind
	f.ref = ref
}

// EndCause pops the innermost cause frame.
//
//foxvet:hotpath
func (r *Recorder) EndCause() {
	if r == nil {
		return
	}
	if r.ncause > 0 {
		r.ncause--
	}
}

// --- record emission -----------------------------------------------------

// Hdr writes the run header: the host name, the lower layer's MTU, and
// the resolved Config as pre-marshaled JSON. Called once, at stack
// assembly — not on the hot path.
func (r *Recorder) Hdr(host string, mtu int, cfg []byte) {
	r.buf = r.buf[:0]
	r.buf = append(r.buf, `{"k":"hdr"`...)
	r.buf = appendStrField(r.buf, "host", host)
	r.buf = appendIntField(r.buf, "mtu", int64(mtu))
	r.buf = append(r.buf, `,"cfg":`...)
	r.buf = append(r.buf, cfg...)
	r.buf = append(r.buf, '}')
	r.flush()
}

// Fault records one scripted fault-plane transition (internal/fault)
// applied to the wire beneath this host: the transition kind ("fk") and
// its rendered arguments ("fd") at virtual time at. The record is pure
// observation — replay skips it — but it timestamps the fault timeline
// inside the journal so any divergence can be attributed to a scripted
// event. Transitions are rare; this is not a hot path, and the record
// carries no action seq so the executor's numbering is undisturbed.
func (r *Recorder) Fault(at int64, kind, detail string) {
	r.buf = r.buf[:0]
	r.buf = append(r.buf, `{"k":"flt"`...)
	r.buf = appendIntField(r.buf, "at", at)
	r.buf = appendStrField(r.buf, "fk", kind)
	r.buf = appendStrField(r.buf, "fd", detail)
	r.buf = append(r.buf, '}')
	r.flush()
}

// OpenConn records a connection's creation and returns its seq.
//
//foxvet:hotpath
func (r *Recorder) OpenConn(at int64, conn, origin, raddr string, rport, lport uint16, pull, hop bool) uint64 {
	r.seq++
	q := r.seq
	r.buf = r.buf[:0]
	r.buf = append(r.buf, `{"k":"open"`...)
	r.buf = appendUintField(r.buf, "q", q)
	r.buf = appendIntField(r.buf, "at", at)
	r.buf = appendStrField(r.buf, "c", conn)
	r.buf = appendStrField(r.buf, "o", origin)
	r.buf = appendStrField(r.buf, "ra", raddr)
	r.buf = appendIntField(r.buf, "rp", int64(rport))
	r.buf = appendIntField(r.buf, "lp", int64(lport))
	r.buf = appendBoolField(r.buf, "pull", pull)
	r.buf = appendBoolField(r.buf, "hop", hop)
	r.buf = r.appendCause(r.buf)
	r.buf = append(r.buf, '}')
	r.flush()
	return q
}

// UserOp records a user call (write/read/close/abort/wurg, or the open
// of an active connection) and returns its seq.
//
//foxvet:hotpath
func (r *Recorder) UserOp(at int64, conn, op string, n int) uint64 {
	r.seq++
	q := r.seq
	r.buf = r.buf[:0]
	r.buf = append(r.buf, `{"k":"uop"`...)
	r.buf = appendUintField(r.buf, "q", q)
	r.buf = appendIntField(r.buf, "at", at)
	r.buf = appendStrField(r.buf, "c", conn)
	r.buf = appendStrField(r.buf, "op", op)
	r.buf = appendIntField(r.buf, "n", int64(n))
	r.buf = r.appendCause(r.buf)
	r.buf = append(r.buf, '}')
	r.flush()
	return q
}

// Enqueue records one tcp_action entering a connection's to_do queue,
// attributed to the current cause, and returns its seq.
//
//foxvet:hotpath
func (r *Recorder) Enqueue(at int64, conn, act string, args []byte) uint64 {
	r.seq++
	q := r.seq
	r.buf = r.buf[:0]
	r.buf = append(r.buf, `{"k":"enq"`...)
	r.buf = appendUintField(r.buf, "q", q)
	r.buf = appendIntField(r.buf, "at", at)
	r.buf = appendStrField(r.buf, "c", conn)
	r.buf = appendStrField(r.buf, "a", act)
	if len(args) > 0 {
		r.buf = append(r.buf, `,"args":"`...)
		r.buf = appendEscaped(r.buf, args)
		r.buf = append(r.buf, '"')
	}
	r.buf = r.appendCause(r.buf)
	r.buf = append(r.buf, '}')
	r.flush()
	return q
}

// Beg records the executor starting to perform the action whose enq
// record carried actionSeq.
//
//foxvet:hotpath
func (r *Recorder) Beg(at int64, conn string, actionSeq uint64) {
	r.buf = r.buf[:0]
	r.buf = append(r.buf, `{"k":"beg"`...)
	r.buf = appendIntField(r.buf, "at", at)
	r.buf = appendStrField(r.buf, "c", conn)
	r.buf = appendUintField(r.buf, "eq", actionSeq)
	r.buf = append(r.buf, '}')
	r.flush()
}

// End records the action's completion with its TCB delta. delta is a
// comma-separated sequence of `"field":[pre,post]` pairs built with
// AppendDelta (empty when nothing changed).
//
//foxvet:hotpath
func (r *Recorder) End(conn string, actionSeq uint64, delta []byte) {
	r.buf = r.buf[:0]
	r.buf = append(r.buf, `{"k":"end"`...)
	r.buf = appendStrField(r.buf, "c", conn)
	r.buf = appendUintField(r.buf, "eq", actionSeq)
	r.buf = append(r.buf, `,"d":{`...)
	r.buf = append(r.buf, delta...)
	r.buf = append(r.buf, '}', '}')
	r.flush()
}

// AppendDelta appends one changed-field pair to a delta fragment being
// built in dst, returning the extended slice. Callers keep dst in a
// reused buffer (a struct field), so steady-state appends don't allocate.
func AppendDelta(dst []byte, name string, pre, post int64) []byte {
	if len(dst) > 0 {
		dst = append(dst, ',')
	}
	dst = append(dst, '"')
	dst = append(dst, name...)
	dst = append(dst, `":[`...)
	dst = strconv.AppendInt(dst, pre, 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, post, 10)
	dst = append(dst, ']')
	return dst
}

// flush frames the JSON body in r.buf with its length prefix and hands
// it to the writer in a single Write.
//
//foxvet:hotpath
func (r *Recorder) flush() {
	if r.err != nil {
		return
	}
	r.out = r.out[:0]
	r.out = strconv.AppendInt(r.out, int64(len(r.buf)), 10)
	r.out = append(r.out, ' ')
	r.out = append(r.out, r.buf...)
	r.out = append(r.out, '\n')
	_, r.err = r.w.Write(r.out)
}

// appendCause renders the innermost cause frame into dst.
func (r *Recorder) appendCause(dst []byte) []byte {
	if r.ncause == 0 {
		return dst
	}
	f := &r.causes[r.ncause-1]
	switch f.kind {
	case CauseAct, CauseUser:
		dst = appendStrField(dst, "ck", f.kind)
		dst = appendUintField(dst, "cz", f.ref)
	case CausePkt:
		dst = appendStrField(dst, "ck", f.kind)
		dst = appendUintField(dst, "ps", uint64(f.pSeq))
		dst = appendUintField(dst, "pa", uint64(f.pAck))
		dst = appendIntField(dst, "pf", int64(f.pFlags))
		dst = appendIntField(dst, "pw", int64(f.pWnd))
		dst = appendIntField(dst, "pu", int64(f.pUp))
		dst = appendIntField(dst, "pm", int64(f.pMSS))
		dst = appendIntField(dst, "pl", int64(f.pLen))
	case CauseTimer:
		dst = appendStrField(dst, "ck", f.kind)
		dst = appendUintField(dst, "tw", f.ref)
	}
	return dst
}

// --- tiny JSON append helpers --------------------------------------------

func appendIntField(dst []byte, key string, v int64) []byte {
	dst = append(dst, ',', '"')
	dst = append(dst, key...)
	dst = append(dst, '"', ':')
	return strconv.AppendInt(dst, v, 10)
}

func appendUintField(dst []byte, key string, v uint64) []byte {
	dst = append(dst, ',', '"')
	dst = append(dst, key...)
	dst = append(dst, '"', ':')
	return strconv.AppendUint(dst, v, 10)
}

func appendBoolField(dst []byte, key string, v bool) []byte {
	dst = append(dst, ',', '"')
	dst = append(dst, key...)
	dst = append(dst, '"', ':')
	if v {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

func appendStrField(dst []byte, key, v string) []byte {
	dst = append(dst, ',', '"')
	dst = append(dst, key...)
	dst = append(dst, `":"`...)
	for i := 0; i < len(v); i++ {
		dst = appendEscapedByte(dst, v[i])
	}
	return append(dst, '"')
}

func appendEscaped(dst, v []byte) []byte {
	for _, b := range v {
		dst = appendEscapedByte(dst, b)
	}
	return dst
}

func appendEscapedByte(dst []byte, b byte) []byte {
	switch {
	case b == '"' || b == '\\':
		return append(dst, '\\', b)
	case b < 0x20:
		dst = append(dst, `\u00`...)
		const hex = "0123456789abcdef"
		return append(dst, hex[b>>4], hex[b&0xf])
	default:
		return append(dst, b)
	}
}
