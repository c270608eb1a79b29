// Package ethernet implements the link layer of the stack: framing,
// frame-check sequence, ethertype demultiplexing, and broadcast, over a
// simulated wire.Port. It satisfies the role of the paper's Eth functor
// (Fig. 3: `structure Eth = Eth (structure Lower = Device ...)`).
//
// The package also provides Transport, a protocol.Network directly over
// the link layer, which is what makes the paper's non-standard stack —
// TCP running immediately over Ethernet, no IP — assemble cleanly. The
// paper (footnote 1) notes this is only sound when the Ethernet
// implementation really computes its CRC; our simulated device computes
// and verifies a real CRC-32, so the example holds here by construction.
package ethernet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/basis"
	"repro/internal/profile"
	"repro/internal/protocol"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Addr is a 48-bit MAC address.
type Addr [6]byte

// Broadcast is the all-ones broadcast address.
var Broadcast = Addr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String formats the address in colon-hex.
func (a Addr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}

// HostAddr returns a locally-administered unicast address derived from n,
// convenient for assembling simulated hosts.
func HostAddr(n byte) Addr { return Addr{0x02, 0x00, 0x00, 0x00, 0x00, n} }

// Well-known ethertypes.
const (
	TypeIPv4 uint16 = 0x0800
	TypeARP  uint16 = 0x0806
	// TypeFoxTCP is the ethertype this repo uses for the paper's Fig. 3
	// Special_Tcp stack: TCP segments carried directly in Ethernet
	// frames. 0x88B5 is the IEEE "local experimental" ethertype.
	TypeFoxTCP uint16 = 0x88b5
)

const (
	headerLen  = 14
	fcsLen     = 4
	minPayload = 46
	// MTU is the classic Ethernet payload limit.
	MTU = wire.MaxFrame - headerLen - fcsLen
	// Headroom and Tailroom are the byte budgets upper layers must
	// reserve: 14 bytes of header in front; FCS plus worst-case padding
	// behind.
	Headroom = headerLen
	Tailroom = fcsLen + minPayload
)

// Stats counts link-layer events.
type Stats struct {
	TxFrames      uint64
	RxFrames      uint64
	RxBadFCS      uint64
	RxWrongAddr   uint64
	RxUnknownType uint64
	RxRunt        uint64
}

// Handler receives a demultiplexed frame's payload. It borrows pkt
// (protocol.Handler).
type Handler func(src, dst Addr, pkt *basis.Packet)

// Config parameterizes the layer.
type Config struct {
	// VerifyFCS controls whether received frames' CRCs are checked
	// (sending always computes them). Defaults to true; tests of the
	// corruption path may disable it.
	VerifyFCS *bool
	Trace     *basis.Tracer
	Prof      *profile.Profile
	// Metrics is the interfaces-group counter set; New allocates a
	// detached one when none is supplied.
	Metrics *stats.EthMIB
}

// Ethernet is one host's link layer on one port.
type Ethernet struct {
	port      *wire.Port
	local     Addr
	verifyFCS bool
	handlers  map[uint16]Handler
	trace     *basis.Tracer
	prof      *profile.Profile
	stats     Stats
	mib       *stats.EthMIB
}

// New attaches a link layer with address local to port.
func New(port *wire.Port, local Addr, cfg Config) *Ethernet {
	verify := true
	if cfg.VerifyFCS != nil {
		verify = *cfg.VerifyFCS
	}
	if cfg.Metrics == nil {
		cfg.Metrics = new(stats.EthMIB)
	}
	e := &Ethernet{
		port:      port,
		local:     local,
		verifyFCS: verify,
		handlers:  make(map[uint16]Handler),
		trace:     cfg.Trace,
		prof:      cfg.Prof,
		mib:       cfg.Metrics,
	}
	port.SetHandler(e.receive)
	return e
}

// Name implements protocol.Protocol.
func (e *Ethernet) Name() string { return "eth" }

// MTUSize implements protocol.Protocol's MTU.
func (e *Ethernet) MTU() int { return MTU }

// LocalAddr returns this interface's MAC address.
func (e *Ethernet) LocalAddr() Addr { return e.local }

// Stats returns a snapshot of the counters.
func (e *Ethernet) Stats() Stats { return e.stats }

// Register installs the upcall for one ethertype, replacing any previous
// registration.
func (e *Ethernet) Register(etherType uint16, h Handler) {
	e.handlers[etherType] = h
}

// ErrTooLarge reports a payload exceeding the MTU.
var ErrTooLarge = errors.New("ethernet: payload exceeds MTU")

// Send frames pkt to dst under etherType and offers it to the wire. The
// packet needs Headroom bytes in front and Tailroom behind; the header,
// padding, and FCS are written in place — no copy.
func (e *Ethernet) Send(dst Addr, etherType uint16, pkt *basis.Packet) error {
	sec := e.prof.Start(profile.CatEth)
	defer sec.Stop()
	if pkt.Len() > MTU {
		return ErrTooLarge
	}
	if pad := minPayload - pkt.Len(); pad > 0 {
		pz := pkt.Extend(pad)
		for i := range pz {
			pz[i] = 0
		}
	}
	h := pkt.Push(headerLen)
	copy(h[0:6], dst[:])
	copy(h[6:12], e.local[:])
	binary.BigEndian.PutUint16(h[12:14], etherType)
	fcs := crc32.ChecksumIEEE(pkt.Bytes())
	binary.LittleEndian.PutUint32(pkt.Extend(fcsLen), fcs)
	e.stats.TxFrames++
	e.mib.OutFrames.Inc()
	e.mib.OutOctets.Add(uint64(pkt.Len()))
	if e.trace.On() {
		e.trace.Printf("tx %s -> %s type %#04x len %d", e.local, dst, etherType, pkt.Len())
	}
	e.port.Send(pkt)
	return nil
}

// receive is the device upcall: verify, filter, demultiplex, and deliver.
func (e *Ethernet) receive(pkt *basis.Packet) {
	sec := e.prof.Start(profile.CatEth)
	if pkt.Len() < headerLen+fcsLen {
		e.stats.RxRunt++
		e.mib.InRunts.Inc()
		sec.Stop()
		return
	}
	if e.verifyFCS {
		body := pkt.Bytes()
		want := binary.LittleEndian.Uint32(body[len(body)-fcsLen:])
		if crc32.ChecksumIEEE(body[:len(body)-fcsLen]) != want {
			e.stats.RxBadFCS++
			e.mib.InErrors.Inc()
			e.trace.Printf("rx bad FCS, dropped (%d bytes)", pkt.Len())
			sec.Stop()
			return
		}
	}
	pkt.TrimTail(fcsLen)
	h := pkt.Pull(headerLen)
	var dst, src Addr
	copy(dst[:], h[0:6])
	copy(src[:], h[6:12])
	etherType := binary.BigEndian.Uint16(h[12:14])
	if dst != e.local && dst != Broadcast {
		e.stats.RxWrongAddr++
		e.mib.InDiscards.Inc()
		sec.Stop()
		return
	}
	handler, ok := e.handlers[etherType]
	if !ok {
		e.stats.RxUnknownType++
		e.mib.InUnknownProtos.Inc()
		e.trace.Printf("rx unknown ethertype %#04x from %s", etherType, src)
		sec.Stop()
		return
	}
	e.stats.RxFrames++
	e.mib.InFrames.Inc()
	e.mib.InOctets.Add(uint64(pkt.Len()))
	if e.trace.On() {
		e.trace.Printf("rx %s -> %s type %#04x len %d", src, dst, etherType, pkt.Len())
	}
	sec.Stop()
	handler(src, dst, pkt)
}

// Transport adapts the link layer to protocol.Network so a transport
// protocol can run directly over Ethernet — the paper's Special_Tcp
// composition. There is no pseudo-header at this layer, so
// PseudoHeaderChecksum is zero and the paper's example of disabling TCP
// checksums over a CRC-protected link applies.
//
// TCP segments carry no length field of their own (over IP the total
// length of the IP header supplies it, surfaced through IP_AUX's info
// function), so the adapter prepends a 2-byte payload length and strips
// Ethernet minimum-frame padding with it on receive.
type Transport struct {
	e         *Ethernet
	etherType uint16
}

const lengthPrefix = 2

var _ protocol.Network = (*Transport)(nil)

// Transport returns a protocol.Network carrying etherType frames.
func (e *Ethernet) Transport(etherType uint16) *Transport {
	return &Transport{e: e, etherType: etherType}
}

// LocalAddr implements protocol.Network.
func (t *Transport) LocalAddr() protocol.Address { return t.e.local }

// Attach implements protocol.Network.
func (t *Transport) Attach(h protocol.Handler) {
	t.e.Register(t.etherType, func(src, dst Addr, pkt *basis.Packet) {
		lenb := pkt.Pull(lengthPrefix)
		if lenb == nil {
			return
		}
		if !pkt.TrimTo(int(binary.BigEndian.Uint16(lenb))) {
			return // length prefix larger than the frame: drop
		}
		h(src, pkt)
	})
}

// Send implements protocol.Network.
func (t *Transport) Send(dst protocol.Address, pkt *basis.Packet) error {
	mac, ok := dst.(Addr)
	if !ok {
		return fmt.Errorf("ethernet: cannot send to %T address %v", dst, dst)
	}
	n := pkt.Len()
	if n > 0xffff {
		return fmt.Errorf("ethernet: frame length %d overflows the length prefix", n)
	}
	binary.BigEndian.PutUint16(pkt.Push(lengthPrefix), uint16(n))
	return t.e.Send(mac, t.etherType, pkt)
}

// MTU implements protocol.Network.
func (t *Transport) MTU() int { return MTU - lengthPrefix }

// Headroom implements protocol.Network.
func (t *Transport) Headroom() int { return Headroom + lengthPrefix }

// Tailroom implements protocol.Network.
func (t *Transport) Tailroom() int { return Tailroom }

// PseudoHeaderChecksum implements protocol.Network; Ethernet carries no
// pseudo-header.
func (t *Transport) PseudoHeaderChecksum(dst protocol.Address, length int) uint16 { return 0 }
