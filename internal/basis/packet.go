package basis

import "fmt"

// Packet is a byte buffer with reserved header headroom and trailer
// tailroom, the analogue of the paper's Send_Packet.T / Receive_Packet.T.
//
// It exists to realize the paper's single-copy data path: user payload is
// copied exactly once, into a buffer that already reserves space for every
// header the stack below will prepend. On the way down each layer calls
// Push to extend the view over its header bytes and writes the header in
// place; on the way up each layer calls Pull to strip its header. No layer
// boundary copies data.
type Packet struct {
	buf []byte // backing store
	off int    // start of the current view within buf
	end int    // one past the last data byte within buf
	// kept records that a receiver took the backing store over (Keep).
	kept bool
	// home is the free list the backing store goes back to when a holder
	// releases it (Rewire names it); nil for a store nobody takes back.
	home Home
}

// Home is a device's frame memory: the free list a received frame's
// backing store came from, and goes back to when the holder that kept it
// lets go (Frame.Release).
type Home interface{ Release(buf []byte) }

// Frame is a kept backing store together with its home. The zero Frame
// holds nothing.
type Frame struct {
	buf  []byte
	home Home
}

// Release sends the store home; neither the holder nor any slice of the
// store may be used after. A store without a home (FromWire, AllocPacket)
// is left to the collector, and releasing the zero Frame does nothing.
func (f Frame) Release() {
	if f.home != nil {
		f.home.Release(f.buf)
	}
}

// NewPacket returns a packet whose payload is a copy of data, with
// headroom bytes reserved in front for headers and tailroom bytes behind
// for trailers. This is the single copy of the send path.
func NewPacket(headroom, tailroom int, data []byte) *Packet {
	if headroom < 0 || tailroom < 0 {
		panic("basis.NewPacket: negative headroom/tailroom")
	}
	p := AllocPacket(headroom, tailroom, len(data))
	copy(p.buf[p.off:], data)
	return p
}

// AllocPacket returns a packet with a zeroed payload of size bytes and the
// given headroom and tailroom. Callers fill the payload via Bytes.
func AllocPacket(headroom, tailroom, size int) *Packet {
	if headroom < 0 || tailroom < 0 || size < 0 {
		panic("basis.AllocPacket: negative size")
	}
	buf := make([]byte, headroom+size+tailroom)
	return &Packet{buf: buf, off: headroom, end: headroom + size}
}

// FromWire wraps raw received bytes as a packet with no headroom; the
// receive path strips headers from it with Pull. The packet takes
// ownership of raw.
func FromWire(raw []byte) *Packet {
	return &Packet{buf: raw, off: 0, end: len(raw)}
}

// Rewire re-views p over raw exactly as FromWire would have built it, so
// a device's receive loop can run every upcall chain over one Packet, and
// records home as where raw goes back to once a holder that kept it lets
// go. It clears Kept.
func (p *Packet) Rewire(raw []byte, home Home) {
	*p = Packet{buf: raw, end: len(raw), home: home}
}

// Keep is the receive path's one hand-over. An upcall borrows its packet:
// the device takes the backing store back when the upcall chain returns
// and reuses it for a later frame. A layer that must hold received bytes
// past its upcall calls Keep first; the store then belongs to the holder,
// and the device does not take it back. The holder gives it back with the
// returned Frame's Release when its hold ends; a holder that never does
// leaves it to the collector. Keep does not make the Packet itself safe
// to hold: the device reuses that too.
func (p *Packet) Keep() Frame {
	p.kept = true
	return Frame{buf: p.buf, home: p.home}
}

// Kept reports whether Keep was called since the packet was built or
// rewired.
func (p *Packet) Kept() bool { return p.kept }

// Bytes returns the current view: all data from the first pushed header to
// the end of the payload. The slice aliases the packet's storage.
func (p *Packet) Bytes() []byte { return p.buf[p.off:p.end] }

// Len reports the length of the current view.
func (p *Packet) Len() int { return p.end - p.off }

// Headroom reports how many bytes of header space remain in front.
func (p *Packet) Headroom() int { return p.off }

// Tailroom reports how many bytes of trailer space remain behind.
func (p *Packet) Tailroom() int { return len(p.buf) - p.end }

// Push extends the view n bytes toward the front and returns the newly
// exposed header region for the caller to fill in place. It panics if the
// packet was built with insufficient headroom — that is a stack-assembly
// bug (a layer was composed under a stack that reserved no room for it),
// the kind of mismatch the paper's functor signatures catch at compile
// time and we surface as early as possible at run time.
func (p *Packet) Push(n int) []byte {
	if n < 0 || n > p.off {
		panic(fmt.Sprintf("basis.Packet.Push(%d): only %d bytes of headroom", n, p.off))
	}
	p.off -= n
	return p.buf[p.off : p.off+n]
}

// Pull strips n bytes from the front of the view — a received header —
// and returns them. It returns nil if fewer than n bytes remain.
func (p *Packet) Pull(n int) []byte {
	if n < 0 || n > p.Len() {
		return nil
	}
	h := p.buf[p.off : p.off+n]
	p.off += n
	return h
}

// Extend grows the view n bytes at the tail and returns the newly exposed
// trailer region (for, e.g., an Ethernet FCS). It panics if the packet was
// built with insufficient tailroom.
func (p *Packet) Extend(n int) []byte {
	if n < 0 || n > p.Tailroom() {
		panic(fmt.Sprintf("basis.Packet.Extend(%d): only %d bytes of tailroom", n, p.Tailroom()))
	}
	t := p.buf[p.end : p.end+n]
	p.end += n
	return t
}

// TrimTail removes n bytes from the tail of the view (a received trailer).
// It reports false if fewer than n bytes remain.
func (p *Packet) TrimTail(n int) bool {
	if n < 0 || n > p.Len() {
		return false
	}
	p.end -= n
	return true
}

// TrimTo shortens the view to n bytes, discarding any trailing bytes (for
// example link-layer padding beyond the IP total length). It reports false
// if the view is already shorter than n.
func (p *Packet) TrimTo(n int) bool {
	if n < 0 || n > p.Len() {
		return false
	}
	p.end = p.off + n
	return true
}

// Reset re-views the packet over size payload bytes starting headroom
// bytes into its backing store, as AllocPacket laid it out, without
// touching the bytes. An owner that kept the packet across a Send — the
// layers below pushed their headers and extended their trailers over it —
// uses it to transmit the same payload again, or to reuse the storage for
// another. It panics if the store is too small.
func (p *Packet) Reset(headroom, size int) {
	if headroom < 0 || size < 0 || headroom+size > len(p.buf) {
		panic(fmt.Sprintf("basis.Packet.Reset(%d, %d): backing store is %d bytes", headroom, size, len(p.buf)))
	}
	p.off = headroom
	p.end = headroom + size
}

// Clone returns a deep copy of the packet, preserving remaining headroom
// and tailroom. The simulated device boundary uses it to model the one
// copy the paper attributes to the Mach kernel.
func (p *Packet) Clone() *Packet {
	buf := make([]byte, len(p.buf))
	copy(buf, p.buf)
	return &Packet{buf: buf, off: p.off, end: p.end}
}

// String summarizes the packet for traces.
func (p *Packet) String() string {
	return fmt.Sprintf("packet[len=%d headroom=%d tailroom=%d]", p.Len(), p.Headroom(), p.Tailroom())
}
