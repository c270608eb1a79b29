// Package basis models the real buffer chain: its bodies are
// mechanism — the copies here are charged to the call sites — so
// nothing in this file is a finding.
package basis

// Packet is a reference-counted buffer window.
type Packet struct {
	buf      []byte
	off, end int
}

// NewPacket performs the allocator's one copy in.
func NewPacket(headroom, tailroom int, data []byte) *Packet {
	buf := make([]byte, headroom+len(data)+tailroom)
	copy(buf[headroom:], data)
	return &Packet{buf: buf, off: headroom, end: headroom + len(data)}
}

// Bytes exposes the payload window.
func (p *Packet) Bytes() []byte { return p.buf[p.off:p.end] }

// Clone duplicates the buffer.
func (p *Packet) Clone() *Packet {
	buf := append([]byte(nil), p.buf...)
	return &Packet{buf: buf, off: p.off, end: p.end}
}

// Keep takes the buffer over from the device that lent it.
func (p *Packet) Keep() {}

// Push grows the header region; the result is header, not payload.
func (p *Packet) Push(n int) []byte {
	p.off -= n
	return p.buf[p.off : p.off+n]
}
