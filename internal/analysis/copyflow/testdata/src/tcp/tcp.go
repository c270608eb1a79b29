// Package tcp exercises copyflow inside the datapath scope: the two
// sanctioned copies, each event kind (copy, append, string, NewPacket,
// Clone), the boundary directive with and without a reason, the
// interprocedural parameter fixpoint, and header writes that must stay
// silent.
package tcp

import "basis"

type sendItem struct{ data []byte }

// TCB carries the send queue.
type TCB struct{ queued []sendItem }

// queueTake is the sanctioned send-side copy: user bytes enter the
// stack exactly here.
func (t *TCB) queueTake(dst []byte) int {
	n := 0
	for _, it := range t.queued {
		n += copy(dst[n:], it.data)
	}
	return n
}

// Conn carries the receive buffer.
type Conn struct{ buf [][]byte }

// Read is the sanctioned receive-side copy: bytes leave the stack
// exactly here.
func (c *Conn) Read(dst []byte) int {
	n := 0
	for _, b := range c.buf {
		n += copy(dst[n:], b)
	}
	return n
}

type segment struct {
	seq  uint32
	data []byte
}

// resend re-copies payload into a fresh packet without review.
func resend(sg *segment) *basis.Packet {
	return basis.NewPacket(20, 0, sg.data) // want "unsanctioned payload copy \\(NewPacket\\)"
}

// resendMarked is the same copy behind a reviewed boundary.
func resendMarked(sg *segment) *basis.Packet {
	return basis.NewPacket(20, 0, sg.data) //foxvet:boundary-copy retransmission rebuilds the wire image
}

//foxvet:boundary-copy
func missingReason(sg *segment) []byte { // want "needs a reason"
	out := make([]byte, len(sg.data))
	copy(out, sg.data)
	return out
}

func dupAppend(sg *segment) []byte {
	return append([]byte(nil), sg.data...) // want "unsanctioned payload copy \\(append\\)"
}

func leakString(sg *segment) string {
	return string(sg.data) // want "unsanctioned payload copy \\(string\\)"
}

// hold keeps a received frame past its upcall: ownership moves, nothing
// is copied, so it is in the map and not a finding.
func hold(p *basis.Packet) []byte {
	p.Keep()
	return p.Bytes()
}

func clonePacket(p *basis.Packet) *basis.Packet {
	return p.Clone() // want "unsanctioned payload copy \\(Clone\\)"
}

// helper's parameter is proved payload through the call below, so the
// duplicating append inside it is an event.
func helper(b []byte) []byte {
	return append([]byte(nil), b...) // want "unsanctioned payload copy \\(append\\)"
}

func callsHelper(sg *segment) []byte {
	return helper(sg.data)
}

// viaBytes derives payload through Packet.Bytes and a slice of it.
func viaBytes(p *basis.Packet) []byte {
	raw := p.Bytes()
	return append([]byte(nil), raw[4:]...) // want "unsanctioned payload copy \\(append\\)"
}

// reassemble is a function-wide reviewed boundary: both copies inside
// are covered by the doc directive.
//
//foxvet:boundary-copy fragment reassembly rebuilds the datagram from retained fragments
func reassemble(frags []segment, total int) []byte {
	out := make([]byte, total)
	for _, f := range frags {
		copy(out[f.seq:], f.data)
	}
	return out
}

// headerWrite copies addresses into a header region: the source is not
// payload, so this is silent.
func headerWrite(p *basis.Packet, src [4]byte) {
	h := p.Push(8)
	copy(h[0:4], src[:])
}

// parseAddr extracts a fixed-width header field into an array window:
// bounded by the field, not the payload, so silent.
func parseAddr(p *basis.Packet) [4]byte {
	var a [4]byte
	h := p.Bytes()
	copy(a[:], h[12:16])
	return a
}

// scratch copies between plain locals: never payload, silent.
func scratch(n int) []byte {
	a := make([]byte, n)
	b := make([]byte, n)
	copy(b, a)
	return b
}
