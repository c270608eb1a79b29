// Package protocol defines the generic interfaces every layer of the
// stack satisfies — the Go rendering of the paper's PROTOCOL signature
// (Fig. 2) and of the auxiliary IP_AUX signature (Fig. 5) that TCP and UDP
// require of whatever layer they run over.
//
// In SML the Fox Project derived per-protocol signatures from one generic
// PROTOCOL signature and let the compiler verify every functor
// composition. Go's analogue: each layer exposes concrete types, and the
// compositional seams are small interfaces defined here. A transport
// (TCP or UDP) is a "functor" over any Network — internal/ip provides one
// per IP protocol number, and internal/ethernet's Transport adapter
// provides one directly over the link layer, which is how the paper's
// Fig. 3 Special_Tcp (TCP over Ethernet, no IP) is assembled.
package protocol

import "repro/internal/basis"

// Address identifies a peer at some layer. Dynamic types must be
// comparable so addresses can key Go maps — the role of the paper's
// hash/eq functions in IP_AUX.
type Address interface {
	String() string
}

// Handler is the upcall type: received data is delivered to a higher
// layer by calling the higher layer's handler ("upcalls", Clark, cited by
// the paper as a design it adopts from the x-kernel).
//
// The upcall borrows pkt — the mirror of Send below. Each layer on the
// way up strips its header from the packet's view and passes the same
// packet on; when the chain returns, the device (wire.Port) takes the
// packet and the frame under it back and reuses both for a later frame.
// So neither pkt nor any slice of pkt.Bytes() may be used after the
// handler returns. A layer that must hold received bytes longer either
// copies them (ip reassembly) or calls pkt.Keep() first (TCP's
// out-of-order queue and Read buffer): the frame is then its to hold for
// good and the device lets go of it.
type Handler func(src Address, pkt *basis.Packet)

// Network is what a transport protocol needs from the layer below it —
// the union of the paper's `Lower: PROTOCOL` and `Aux: IP_AUX` functor
// parameters (Figs. 4 and 5). internal/ip implements it for IPv4;
// internal/ethernet implements it for raw Ethernet.
type Network interface {
	// LocalAddr is this host's address at the lower layer.
	LocalAddr() Address

	// Attach installs the upcall for every inbound packet carried for
	// the attached transport; src is the sender's lower-layer address
	// (the info function of IP_AUX).
	Attach(h Handler)

	// Send transmits pkt to dst. pkt must have been allocated with at
	// least Headroom bytes of headroom and Tailroom bytes of tailroom.
	//
	// Send borrows pkt: the layers below write their headers and
	// trailers into its head- and tailroom, and none may keep a reference
	// to it or to its bytes after Send returns. A layer that must defer
	// transmission (ip, while ARP resolves the next hop) keeps a copy.
	// The caller owns the packet again on return — its payload bytes
	// untouched, its view wherever the lower layers left it — and may
	// reuse it at once; TCP retransmits from it in place and recycles it.
	Send(dst Address, pkt *basis.Packet) error

	// MTU is the largest packet Send accepts without fragmentation at
	// this layer (the mtu function of IP_AUX).
	MTU() int

	// Headroom and Tailroom are the header/trailer bytes this layer and
	// everything below it will claim, so the transport can allocate
	// single-copy packets.
	Headroom() int
	Tailroom() int

	// PseudoHeaderChecksum returns the folded, non-inverted partial
	// checksum of the layer's pseudo-header for a segment of `length`
	// transport bytes to dst — the "check" function of IP_AUX. Layers
	// without a pseudo-header (raw Ethernet) return 0.
	PseudoHeaderChecksum(dst Address, length int) uint16
}

// Protocol is the minimal generic face every configured layer presents,
// used by tooling that walks an assembled stack.
type Protocol interface {
	Name() string
	MTU() int
}
