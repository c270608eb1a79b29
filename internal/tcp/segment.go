package tcp

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/basis"
	"repro/internal/checksum"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// Header flags.
const (
	flagFIN = 1 << 0
	flagSYN = 1 << 1
	flagRST = 1 << 2
	flagPSH = 1 << 3
	flagACK = 1 << 4
	flagURG = 1 << 5
)

const (
	headerLen = 20
	optMSS    = 2
	optEnd    = 0
	optNop    = 1
)

// segment is the internal form of one TCP segment — what the Action
// module's internalize produces from wire bytes and externalize consumes
// to produce wire bytes. The trailing bookkeeping fields serve the Resend
// module when the segment sits on the retransmission queue, the
// endpoint's free list (segPool) when it leaves it, and the receive path's
// ownership rule (lent).
type segment struct {
	srcPort uint16
	dstPort uint16
	seq     seq
	ack     seq
	flags   uint8
	// timed and retired are Resend bookkeeping, declared here with the
	// other narrow fields so the struct packs tight.
	timed   bool // this transmission is the RTT measurement sample
	retired bool // see sends
	wnd     uint16
	up      uint16 // urgent pointer (carried, minimally interpreted)
	mss     uint16 // MSS option value; 0 when absent
	data    []byte

	// Resend bookkeeping.
	sentAt      sim.Time // last (re)transmission time
	firstSentAt sim.Time
	rexmits     int

	// A data segment the Send module built owns the packet its payload
	// lives in: data aliases pkt's payload region for the segment's whole
	// life, every transmission re-views pkt over it and re-marshals in
	// place, and the pair returns to the endpoint's free list together.
	// nil for received segments and payload-less control segments.
	pkt *basis.Packet
	// The segment may be recycled only when nothing can reach it: it has
	// left rexmitQ — acknowledged, or its connection torn down — (retired)
	// and no Send_Segment action naming it is still on to_do (sends == 0).
	// See TCP.recycle.
	sends int

	// A received segment borrows: data aliases the frame the device lent
	// to the upcall chain, and lent is that frame's packet. The bytes are
	// good until TCP.handler returns and not after — whoever holds them
	// longer calls keep (or TCP.own, for the segment as a whole) first.
	// nil once kept, and for segments that never borrowed.
	lent *basis.Packet
	// hold is set on a segment TCP.own made holdable: the header lives in
	// it, next to the frame the text lives in, and both go back with
	// TCP.release when the hold ends.
	hold *heldSegment
}

// copyBreak is the text length up to which holding a received segment
// copies its bytes instead of keeping its frame (Linux's rx_copybreak).
// A frame is MaxFrame bytes whatever it carries, and the reassembly and
// memory limits count payload: without the break a spray of one-byte
// segments beyond a hole, or into an unread Read buffer, would pin a
// kilobyte and a half of frame per byte accounted.
const copyBreak = 256

// keep makes sg.data safe to hold past the upcall that lent it. Text
// longer than copyBreak keeps the frame it arrived in, which stays out of
// the device's pool until the returned Frame is released; shorter text
// moves to a buffer of its own size, the frame goes back at once, and the
// Frame is zero.
func (sg *segment) keep() basis.Frame {
	var f basis.Frame
	if sg.lent == nil {
		return f
	}
	if len(sg.data) > copyBreak {
		f = sg.lent.Keep()
	} else {
		sg.data = append([]byte(nil), sg.data...) //foxvet:boundary-copy copybreak: a short held segment must not pin a whole frame the memory limits do not see
	}
	sg.lent = nil
	return f
}

// heldSegment is a received segment held past the upcall that brought
// it, and the frame its text lives in (zero below the copy break).
type heldSegment struct {
	seg   segment
	frame basis.Frame
}

// own returns sg in a form that may be held past the upcall that
// delivered it: its header copied into a heldSegment from the endpoint's
// free list — the endpoint's one receive segment is overwritten by the
// next arrival — with the frame keep took over. A segment already held is
// returned as it is. The holders are insertOutOfOrder (and through it the
// SYN-text holds of rcvListen and rcvSynSent) and TCP.handler for a
// Process_Data it cannot perform before it returns; each hands the
// segment to release when its hold ends. bufferData keeps the frame alone
// and never releases it: a Read buffer's frames are the collector's.
func (t *TCP) own(sg *segment) *segment {
	if sg.hold != nil {
		return sg
	}
	h := t.heldHeader()
	h.frame = sg.keep()
	h.seg = *sg
	h.seg.hold = h
	return &h.seg
}

// heldPoolCap bounds an endpoint's free list of held segments: a 64 KB
// window is 45 segments, all of which can be held beyond one hole.
const heldPoolCap = 64

// heldHeader returns a heldSegment from the free list, or a new one when
// the list is empty.
func (t *TCP) heldHeader() *heldSegment {
	k := len(t.heldFree)
	if k == 0 {
		return new(heldSegment)
	}
	k--
	h := t.heldFree[k]
	t.heldFree[k] = nil
	t.heldFree = t.heldFree[:k]
	return h
}

// release ends the hold on a segment own returned: its frame goes home to
// the device's pool and its header back to the free list. Nothing may
// touch sg or its text after; a segment that is not held is left alone.
// The holds end where the text stops being needed: after the Data upcall
// that delivered it returns, on eviction from the reassembly queue, when
// a drained segment turns out to duplicate delivered text, and at
// deleteTCB.
func (t *TCP) release(sg *segment) {
	h := sg.hold
	if h == nil {
		return
	}
	h.frame.Release()
	*h = heldSegment{}
	if k := len(t.heldFree); k < cap(t.heldFree) {
		t.heldFree = t.heldFree[:k+1]
		t.heldFree[k] = h
	}
}

// seqLen is the sequence-space length: data plus one for SYN and FIN.
func (sg *segment) seqLen() uint32 {
	n := uint32(len(sg.data))
	if sg.flags&flagSYN != 0 {
		n++
	}
	if sg.flags&flagFIN != 0 {
		n++
	}
	return n
}

func (sg *segment) has(f uint8) bool { return sg.flags&f != 0 }

// String renders the segment tcpdump-style for traces and tests.
func (sg *segment) String() string {
	var fl strings.Builder
	for _, f := range []struct {
		bit  uint8
		name string
	}{{flagSYN, "S"}, {flagFIN, "F"}, {flagRST, "R"}, {flagPSH, "P"}, {flagACK, "."}, {flagURG, "U"}} {
		if sg.flags&f.bit != 0 {
			fl.WriteString(f.name)
		}
	}
	s := fmt.Sprintf("%d > %d [%s] seq %d", sg.srcPort, sg.dstPort, fl.String(), sg.seq)
	if sg.has(flagACK) {
		s += fmt.Sprintf(" ack %d", sg.ack)
	}
	s += fmt.Sprintf(" win %d len %d", sg.wnd, len(sg.data))
	if sg.mss != 0 {
		s += fmt.Sprintf(" <mss %d>", sg.mss)
	}
	return s
}

// headerBytes is the on-wire header size including options.
func (sg *segment) headerBytes() int {
	if sg.mss != 0 {
		return headerLen + 4
	}
	return headerLen
}

// marshal writes the segment's header in place in front of pkt's current
// view (which must already hold exactly sg.data) and fills the checksum
// using the supplied pseudo-header partial sum; when compute is false the
// checksum field is left zero. This is the externalization half of the
// paper's Action module.
//
//foxvet:hotpath
func (sg *segment) marshal(pkt *basis.Packet, pseudo uint16, compute bool) {
	hlen := sg.headerBytes()
	h := pkt.Push(hlen)
	binary.BigEndian.PutUint16(h[0:2], sg.srcPort)
	binary.BigEndian.PutUint16(h[2:4], sg.dstPort)
	binary.BigEndian.PutUint32(h[4:8], uint32(sg.seq))
	binary.BigEndian.PutUint32(h[8:12], uint32(sg.ack))
	h[12] = byte(hlen/4) << 4
	h[13] = sg.flags
	binary.BigEndian.PutUint16(h[14:16], sg.wnd)
	h[16], h[17] = 0, 0
	binary.BigEndian.PutUint16(h[18:20], sg.up)
	if sg.mss != 0 {
		h[20], h[21] = optMSS, 4
		binary.BigEndian.PutUint16(h[22:24], sg.mss)
	}
	if compute {
		var acc checksum.Accumulator
		acc.AddUint16(pseudo)
		acc.Add(pkt.Bytes())
		binary.BigEndian.PutUint16(h[16:18], acc.Checksum())
	}
}

// segPoolCap bounds an endpoint's free list of retired data segments. A
// 64 KB window is 45 MSS-sized segments in flight, so one bulk
// connection cycles entirely inside it; beyond the bound a retired
// segment is left to the collector, so an endpoint pins at most
// segPoolCap MTU-sized buffers (~100 KB over Ethernet).
const segPoolCap = 64

// segPool is an endpoint's send-side packet memory: a LIFO free list of
// retired data segments, each with the MTU-sized packet that held its
// payload, and the one scratch packet every payload-less segment goes
// out through. A buffer is allocated when the list is empty and then
// cycles sendData → emit (any number of times, in place) → ackAdvance →
// free list for as long as the endpoint lives. Every packet is laid out
// from what the lower layer reserves: its headroom plus our header, a
// payload of up to its MTU less our header, its tailroom.
//
// Three rules make the reuse safe:
//
//   - protocol.Network.Send borrows the packet: no layer below keeps it
//     after Send returns (wire copies at the device boundary; ip clones
//     when ARP resolution defers the send).
//   - Only unreachable segments are recycled — see TCP.recycle.
//   - Recycled buffers are not zeroed, so every frame is fully written:
//     payload by queueTake, headers by each layer's Push, padding by
//     ethernet.Send's zero-fill. Under the race build tag put poisons
//     the buffer so a violation of either other rule is loud.
type segPool struct {
	net  protocol.Network
	free []*segment // len ≤ cap == segPoolCap, never reallocated
	ctl  *basis.Packet
	// bare is the same list for payload-less segments. What cycles through
	// it is the pure ACK: born retired (nothing retransmits one), back here
	// as soon as emit has sent it, so a receiver acknowledging a bulk
	// transfer reuses one segment.
	bare []*segment // len ≤ cap == barePoolCap, never reallocated
}

// barePoolCap bounds segPool.bare. More than one pure ACK sits on to_do at
// once only when arrivals pile up behind a parked executor.
const barePoolCap = 8

// optRoom is header room for the only option we send (MSS, on SYNs).
const optRoom = 4

func (p *segPool) init(net protocol.Network) {
	p.net = net
	p.free = make([]*segment, 0, segPoolCap)
	p.bare = make([]*segment, 0, barePoolCap)
	p.ctl = basis.AllocPacket(net.Headroom()+headerLen+optRoom, net.Tailroom(), 0)
}

// headroom is where a pooled packet's payload starts.
func (p *segPool) headroom() int { return p.net.Headroom() + headerLen }

// get returns a data segment whose data field views n writable payload
// bytes inside its own packet, every other field zero.
//
//foxvet:hotpath
func (p *segPool) get(n int) *segment {
	if n < 0 {
		n = 0 // callers pass n > 0; stated here so the sizes below prove non-negative
	}
	h, size := p.headroom(), p.net.MTU()-headerLen
	if k := len(p.free); k > 0 && n <= size {
		k--
		sg := p.free[k]
		p.free[k] = nil
		p.free = p.free[:k]
		pkt := sg.pkt
		pkt.Reset(h, n)
		*sg = segment{pkt: pkt, data: pkt.Bytes()}
		return sg
	}
	// Empty list, or (only when the peer announced no MSS over a link
	// smaller than RFC 1122's default) a payload no pooled packet holds.
	if size < n {
		size = n
	}
	pkt := basis.AllocPacket(h, p.net.Tailroom(), size)
	pkt.Reset(h, n)
	return &segment{pkt: pkt, data: pkt.Bytes()}
}

// put retires a segment and its packet to the free list, or to the
// collector when the list is full.
//
//foxvet:hotpath
func (p *segPool) put(sg *segment) {
	k := len(p.free)
	if k == cap(p.free) {
		return
	}
	if basis.PoisonRecycled {
		sg.pkt.Reset(0, p.net.Headroom()+p.net.MTU()+p.net.Tailroom())
		basis.Poison(sg.pkt.Bytes())
	}
	p.free = p.free[:k+1]
	p.free[k] = sg
}

// getAck returns a payload-less segment for one pure ACK, every field
// zero but retired: emit gives it back (TCP.recycle) once no queued
// Send_Segment names it.
//
//foxvet:hotpath
func (p *segPool) getAck() *segment {
	k := len(p.bare)
	if k == 0 {
		return &segment{retired: true}
	}
	k--
	sg := p.bare[k]
	p.bare[k] = nil
	p.bare = p.bare[:k]
	*sg = segment{retired: true}
	return sg
}

// putBare retires a payload-less segment.
//
//foxvet:hotpath
func (p *segPool) putBare(sg *segment) {
	k := len(p.bare)
	if k == cap(p.bare) {
		return
	}
	if basis.PoisonRecycled {
		// A header no peer would accept, should it ever reach the wire.
		*sg = segment{srcPort: 0xA5A5, dstPort: 0xA5A5, seq: 0xA5A5A5A5, ack: 0xA5A5A5A5, flags: 0xA5 & 0x3f}
	}
	p.bare = p.bare[:k+1]
	p.bare[k] = sg
}

// scratch returns the endpoint's control packet viewed over an empty
// payload, ready for marshal. It is valid until the next call: Send
// borrows, so by the time another segment needs it the last one is on
// the wire.
func (p *segPool) scratch() *basis.Packet {
	p.ctl.Reset(p.headroom()+optRoom, 0)
	return p.ctl
}

// recycle returns sg to the free list if nothing can reach it any more:
// it is off rexmitQ and no queued Send_Segment names it. ackAdvance and
// deleteTCB call it as a segment leaves the queue, emit after each
// transmission; whichever comes last retires the segment. The second
// condition matters because a retransmission can sit on to_do behind the
// very ACK that covers it (the timer or third duplicate ACK was queued
// first), and the Maybe_Send that ACK triggers would otherwise take the
// buffer — LIFO — and refill it before the stale Send_Segment runs.
func (t *TCP) recycle(sg *segment) {
	if !sg.retired || sg.sends != 0 {
		return
	}
	if sg.pkt != nil {
		t.pool.put(sg)
	} else {
		t.pool.putBare(sg)
	}
}

// errSegment describes why internalization rejected wire bytes.
type errSegment string

func (e errSegment) Error() string { return "tcp: " + string(e) }

// Rejection sentinels: unmarshal runs once per received segment, so its
// errors are preboxed here instead of converting a constant to error on
// the hot path (every such conversion heap-allocates).
var (
	errShortSegment  error = errSegment("short segment")
	errBadDataOffset error = errSegment("bad data offset")
	errBadChecksum   error = errSegment("bad checksum")
)

// unmarshal parses wire bytes into sg, overwriting all of it, and verifies
// the checksum against the pseudo-header partial sum when verify is true.
// On success pkt's view is advanced past the header so that it holds
// exactly the segment text, which sg.data aliases (the receive path's
// zero-copy delivery) and sg.lent records as borrowed from pkt; on error
// sg is left zero. This is the internalization half of the Action module.
//
//foxvet:hotpath
func (sg *segment) unmarshal(pkt *basis.Packet, pseudo uint16, verify bool) error {
	*sg = segment{}
	b := pkt.Bytes()
	if len(b) < headerLen {
		return errShortSegment
	}
	dataOff := int(b[12]>>4) * 4
	if dataOff < headerLen || dataOff > len(b) {
		return errBadDataOffset
	}
	if verify && binary.BigEndian.Uint16(b[16:18]) != 0 {
		var acc checksum.Accumulator
		acc.AddUint16(pseudo)
		acc.Add(b)
		if acc.Partial() != 0xffff {
			return errBadChecksum
		}
	}
	*sg = segment{
		srcPort: binary.BigEndian.Uint16(b[0:2]),
		dstPort: binary.BigEndian.Uint16(b[2:4]),
		seq:     seq(binary.BigEndian.Uint32(b[4:8])),
		ack:     seq(binary.BigEndian.Uint32(b[8:12])),
		flags:   b[13] & 0x3f,
		wnd:     binary.BigEndian.Uint16(b[14:16]),
		up:      binary.BigEndian.Uint16(b[18:20]),
	}
	// Parse options (we understand only MSS; others are skipped).
	opts := b[headerLen:dataOff]
	for len(opts) > 0 {
		switch opts[0] {
		case optEnd:
			opts = nil
		case optNop:
			opts = opts[1:]
		case optMSS:
			if len(opts) >= 4 && opts[1] == 4 {
				sg.mss = binary.BigEndian.Uint16(opts[2:4])
			}
			opts = skipOption(opts)
		default:
			opts = skipOption(opts)
		}
	}
	pkt.Pull(dataOff)
	sg.data = pkt.Bytes()
	sg.lent = pkt
	return nil
}

func skipOption(opts []byte) []byte {
	if len(opts) < 2 || int(opts[1]) < 2 || int(opts[1]) > len(opts) {
		return nil // malformed option list: stop parsing
	}
	return opts[opts[1]:]
}
