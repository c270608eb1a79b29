package ip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/basis"
	"repro/internal/checksum"
	"repro/internal/ethernet"
	"repro/internal/profile"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timers"
)

// Well-known protocol numbers.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

const (
	headerLen = 20
	flagDF    = 0x4000
	flagMF    = 0x2000
	// Headroom is the byte budget transports over IP must reserve.
	Headroom = ethernet.Headroom + headerLen
)

// Resolver turns a next-hop IP address into a link address; internal/arp
// implements it. The indirection keeps ip free of a dependency on the
// resolution protocol, as the paper keeps TCP free of IP specifics via
// IP_AUX. Lookup answers from the cache alone; Resolve calls ready now on
// a hit, or later — after a request/reply exchange — on a miss.
type Resolver interface {
	Lookup(next Addr) (mac ethernet.Addr, ok bool)
	Resolve(next Addr, ready func(mac ethernet.Addr, ok bool))
}

// Handler receives a demultiplexed datagram's payload. It borrows pkt
// (protocol.Handler).
type Handler func(src, dst Addr, pkt *basis.Packet)

// Config parameterizes a host's IP layer.
type Config struct {
	Local   Addr
	Netmask Addr // default 255.255.255.0
	Gateway Addr // zero: no default route (single subnet)
	// Forward makes this host a router: datagrams for other
	// destinations are re-routed with the TTL decremented instead of
	// dropped, and TTL exhaustion raises the TimeExceeded hook.
	Forward bool
	TTL     byte // default 64
	// ReassemblyTimeout bounds how long partial reassemblies are held
	// (RFC 1122 requires 60–120 s; default 60 s).
	ReassemblyTimeout sim.Duration
	Trace             *basis.Tracer
	Prof              *profile.Profile
	// Metrics is the RFC 2011-style ip counter group; fill allocates a
	// detached one when none is supplied.
	Metrics *stats.IPMIB
}

func (c *Config) fill() {
	if c.Netmask == (Addr{}) {
		c.Netmask = Addr{255, 255, 255, 0}
	}
	if c.TTL == 0 {
		c.TTL = 64
	}
	if c.ReassemblyTimeout == 0 {
		c.ReassemblyTimeout = 60 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = new(stats.IPMIB)
	}
}

// Stats counts IP-layer events.
type Stats struct {
	Sent               uint64
	Received           uint64
	FragmentsSent      uint64
	FragmentsReceived  uint64
	Reassembled        uint64
	ReassemblyTimeouts uint64
	BadHeader          uint64
	BadChecksum        uint64
	NotLocal           uint64
	Forwarded          uint64
	TTLExpired         uint64
	UnknownProto       uint64
	ResolveFailures    uint64
}

type reasmKey struct {
	src   Addr
	dst   Addr
	proto byte
	id    uint16
}

type fragment struct {
	off  int
	data []byte
	last bool
}

type reassembly struct {
	frags []fragment
	timer *timers.Timer
}

// IP is one host's IPv4 layer over one Ethernet interface.
type IP struct {
	s        *sim.Scheduler
	eth      *ethernet.Ethernet
	resolver Resolver
	cfg      Config
	ident    uint16
	handlers map[byte]Handler
	reasm    map[reasmKey]*reassembly
	stats    Stats

	// TimeExceeded, when non-nil, observes datagrams a forwarding host
	// dropped for TTL exhaustion (the ICMP layer wires itself in here
	// to answer with a time-exceeded message).
	TimeExceeded func(src Addr, original []byte)
}

// New attaches an IP layer to eth, resolving next hops through resolver.
func New(s *sim.Scheduler, eth *ethernet.Ethernet, resolver Resolver, cfg Config) *IP {
	cfg.fill()
	p := &IP{
		s: s, eth: eth, resolver: resolver, cfg: cfg,
		handlers: make(map[byte]Handler),
		reasm:    make(map[reasmKey]*reassembly),
	}
	eth.Register(ethernet.TypeIPv4, p.receive)
	return p
}

// Name implements protocol.Protocol.
func (p *IP) Name() string { return "ip" }

// MTU reports the payload bytes available above IP without fragmentation.
func (p *IP) MTU() int { return p.eth.MTU() - headerLen }

// LocalAddr returns the host's address.
func (p *IP) LocalAddr() Addr { return p.cfg.Local }

// Stats returns a snapshot of the counters.
func (p *IP) Stats() Stats { return p.stats }

// Register installs the upcall for one transport protocol number.
func (p *IP) Register(proto byte, h Handler) { p.handlers[proto] = h }

// ErrTooLarge reports a datagram that cannot be carried even fragmented.
var ErrTooLarge = errors.New("ip: datagram exceeds 65535 bytes")

// Send transmits pkt to dst under protocol proto, fragmenting if the
// payload exceeds the link MTU. The packet needs Headroom bytes in front.
// Delivery is best-effort: next-hop resolution happens asynchronously and
// resolution failure silently drops, as datagram semantics allow. pkt is
// borrowed (protocol.Network.Send): when resolution defers the send, what
// waits is a copy.
func (p *IP) Send(dst Addr, proto byte, pkt *basis.Packet) error {
	sec := p.cfg.Prof.Start(profile.CatIP)
	defer sec.Stop()
	p.cfg.Metrics.OutRequests.Inc()
	if pkt.Len() > 0xffff-headerLen {
		p.cfg.Metrics.OutDiscards.Inc()
		return ErrTooLarge
	}
	p.ident++
	id := p.ident
	linkMTU := p.eth.MTU()
	if pkt.Len()+headerLen <= linkMTU {
		p.sendOne(dst, proto, id, 0, false, pkt)
		return nil
	}
	// Fragment: offsets are in 8-byte units. The paper notes IP
	// fragmentation is exactly where memory needs fluctuate and where
	// additional copies may be required; we accept one copy per
	// fragment here, as it did.
	chunk := (linkMTU - headerLen) &^ 7
	p.cfg.Metrics.FragOKs.Inc()
	data := pkt.Bytes()
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		more := true
		if end >= len(data) {
			end = len(data)
			more = false
		}
		fp := basis.NewPacket(Headroom, ethernet.Tailroom, data[off:end]) //foxvet:boundary-copy fragmentation: each fragment is an independent datagram with its own header and lifetime
		p.stats.FragmentsSent++
		p.cfg.Metrics.FragCreates.Inc()
		p.sendOne(dst, proto, id, off/8, more, fp)
	}
	return nil
}

// sendOne fills in one IP header and routes the packet.
func (p *IP) sendOne(dst Addr, proto byte, id uint16, fragOff8 int, moreFrags bool, pkt *basis.Packet) {
	totalLen := pkt.Len() + headerLen
	if totalLen > 0xffff || fragOff8 < 0 || fragOff8 > 0x1fff {
		// Unreachable by construction — Send fragments to the MTU —
		// but the wire fields are 16 and 13 bits wide, and the proof
		// wants the bound local.
		p.cfg.Trace.Printf("drop: length %d or offset %d overflows the header fields", totalLen, fragOff8)
		return
	}
	h := pkt.Push(headerLen)
	h[0] = 0x45
	h[1] = 0
	binary.BigEndian.PutUint16(h[2:4], uint16(totalLen))
	binary.BigEndian.PutUint16(h[4:6], id)
	ff := uint16(fragOff8)
	if moreFrags {
		ff |= flagMF
	}
	binary.BigEndian.PutUint16(h[6:8], ff)
	h[8] = p.cfg.TTL
	h[9] = proto
	h[10], h[11] = 0, 0
	copy(h[12:16], p.cfg.Local[:])
	copy(h[16:20], dst[:])
	cksec := p.cfg.Prof.Start(profile.CatChecksum)
	ck := ^checksum.SumFig10(0, h)
	cksec.Stop()
	binary.BigEndian.PutUint16(h[10:12], ck)

	p.stats.Sent++
	if p.cfg.Trace.On() {
		p.cfg.Trace.Printf("tx %s -> %s proto %d len %d id %d off %d mf %v",
			p.cfg.Local, dst, proto, totalLen, id, fragOff8*8, moreFrags)
	}

	if dst == LimitedBroadcast || dst == p.subnetBroadcast() {
		p.eth.Send(ethernet.Broadcast, ethernet.TypeIPv4, pkt)
		return
	}
	next := dst
	if !p.cfg.Local.SameSubnet(dst, p.cfg.Netmask) {
		if p.cfg.Gateway.IsUnspecified() {
			p.cfg.Trace.Printf("no route to %s, dropped", dst)
			p.stats.ResolveFailures++
			p.cfg.Metrics.OutNoRoutes.Inc()
			return
		}
		next = p.cfg.Gateway
	}
	if mac, ok := p.resolver.Lookup(next); ok {
		p.eth.Send(mac, ethernet.TypeIPv4, pkt)
		return
	}
	// The caller gets pkt back when Send returns and may rewrite it — TCP
	// retransmits in place and recycles — while resolution takes a round
	// trip or more. Cache entries age out, so this is not only the first
	// packet of a run.
	held := pkt.Clone() //foxvet:boundary-copy deferred send: Send only borrows pkt, so a datagram waiting on ARP resolution waits in its own buffer
	p.resolver.Resolve(next, func(mac ethernet.Addr, ok bool) {
		if !ok {
			p.stats.ResolveFailures++
			p.cfg.Metrics.OutDiscards.Inc()
			p.cfg.Trace.Printf("cannot resolve %s, dropped", next)
			return
		}
		p.eth.Send(mac, ethernet.TypeIPv4, held)
	})
}

func (p *IP) subnetBroadcast() Addr {
	var b Addr
	for i := range b {
		b[i] = p.cfg.Local[i] | ^p.cfg.Netmask[i]
	}
	return b
}

// receive is the link-layer upcall: validate, reassemble, demultiplex.
func (p *IP) receive(_, _ ethernet.Addr, pkt *basis.Packet) {
	sec := p.cfg.Prof.Start(profile.CatIP)
	p.cfg.Metrics.InReceives.Inc()
	b := pkt.Bytes()
	if len(b) < headerLen || b[0]>>4 != 4 {
		p.stats.BadHeader++
		p.cfg.Metrics.InHdrErrors.Inc()
		sec.Stop()
		return
	}
	ihl := int(b[0]&0x0f) * 4
	totalLen := int(binary.BigEndian.Uint16(b[2:4]))
	if ihl < headerLen || totalLen < ihl || len(b) < totalLen {
		p.stats.BadHeader++
		p.cfg.Metrics.InHdrErrors.Inc()
		sec.Stop()
		return
	}
	cksec := p.cfg.Prof.Start(profile.CatChecksum)
	ok := checksum.SumFig10(0, b[:ihl]) == 0xffff
	cksec.Stop()
	if !ok {
		p.stats.BadChecksum++
		p.cfg.Metrics.InHdrErrors.Inc()
		p.cfg.Trace.Printf("rx bad header checksum, dropped")
		sec.Stop()
		return
	}
	pkt.TrimTo(totalLen) // strip link padding
	var src, dst Addr
	hdr := pkt.Bytes()
	copy(src[:], hdr[12:16])
	copy(dst[:], hdr[16:20])
	if dst != p.cfg.Local && dst != LimitedBroadcast && dst != p.subnetBroadcast() {
		if p.cfg.Forward {
			p.forward(src, dst, pkt)
		} else {
			p.stats.NotLocal++
			p.cfg.Metrics.InAddrErrors.Inc()
		}
		sec.Stop()
		return
	}
	h := pkt.Pull(ihl) // header including any options, which we ignore
	proto := h[9]
	id := binary.BigEndian.Uint16(h[4:6])
	ff := binary.BigEndian.Uint16(h[6:8])
	fragOff := int(ff&0x1fff) * 8
	moreFrags := ff&flagMF != 0

	if fragOff != 0 || moreFrags {
		p.stats.FragmentsReceived++
		p.cfg.Metrics.ReasmReqds.Inc()
		pkt = p.reassemble(reasmKey{src, dst, proto, id}, fragOff, moreFrags, pkt)
		if pkt == nil {
			sec.Stop()
			return
		}
		p.stats.Reassembled++
		p.cfg.Metrics.ReasmOKs.Inc()
	}

	handler, okh := p.handlers[proto]
	if !okh {
		p.stats.UnknownProto++
		p.cfg.Metrics.InUnknownProtos.Inc()
		p.cfg.Trace.Printf("rx unknown protocol %d from %s", proto, src)
		sec.Stop()
		return
	}
	p.stats.Received++
	p.cfg.Metrics.InDelivers.Inc()
	if p.cfg.Trace.On() {
		p.cfg.Trace.Printf("rx %s -> %s proto %d len %d", src, dst, proto, pkt.Len())
	}
	sec.Stop()
	handler(src, dst, pkt)
}

// forward re-routes a transit datagram: decrement the TTL (updating the
// header checksum incrementally, RFC 1624), pick the next hop, and send
// it back out the interface — the router-on-a-stick configuration, since
// each host owns a single interface in this substrate.
func (p *IP) forward(src, dst Addr, pkt *basis.Packet) {
	b := pkt.Bytes()
	if b[8] <= 1 {
		p.stats.TTLExpired++
		p.cfg.Metrics.InHdrErrors.Inc()
		p.cfg.Trace.Printf("TTL expired forwarding %s -> %s", src, dst)
		if p.TimeExceeded != nil {
			p.TimeExceeded(src, b)
		}
		return
	}
	// The wire packet has no link-layer headroom left; a router copies
	// the datagram into a fresh frame, as real forwarding does.
	fwd := basis.NewPacket(ethernet.Headroom, ethernet.Tailroom, b) //foxvet:boundary-copy forwarding: a router re-buffers into a fresh frame, as real forwarding does
	fb := fwd.Bytes()
	fb[8]--
	// Refresh the header checksum over the modified header.
	fb[10], fb[11] = 0, 0
	ihl := int(fb[0]&0x0f) * 4
	binary.BigEndian.PutUint16(fb[10:12], ^checksum.SumFig10(0, fb[:ihl]))

	next := dst
	if !p.cfg.Local.SameSubnet(dst, p.cfg.Netmask) {
		if p.cfg.Gateway.IsUnspecified() {
			p.stats.ResolveFailures++
			p.cfg.Metrics.OutNoRoutes.Inc()
			return
		}
		next = p.cfg.Gateway
	}
	p.stats.Forwarded++
	p.cfg.Metrics.ForwDatagrams.Inc()
	p.cfg.Trace.Printf("forward %s -> %s via %s ttl %d", src, dst, next, fb[8])
	p.resolver.Resolve(next, func(mac ethernet.Addr, ok bool) {
		if !ok {
			p.stats.ResolveFailures++
			p.cfg.Metrics.OutDiscards.Inc()
			return
		}
		p.eth.Send(mac, ethernet.TypeIPv4, fwd)
	})
}

// reassemble merges one fragment, returning the whole datagram's payload
// when complete and nil otherwise.
func (p *IP) reassemble(key reasmKey, off int, more bool, pkt *basis.Packet) *basis.Packet {
	r, ok := p.reasm[key]
	if !ok {
		r = &reassembly{}
		p.reasm[key] = r
		r.timer = timers.Start(p.s, func() {
			if p.reasm[key] == r {
				delete(p.reasm, key)
				p.stats.ReassemblyTimeouts++
				p.cfg.Metrics.ReasmFails.Inc()
				p.cfg.Trace.Printf("reassembly of id %d from %s timed out", key.id, key.src)
			}
		}, p.cfg.ReassemblyTimeout)
	}
	data := append([]byte(nil), pkt.Bytes()...) //foxvet:boundary-copy reassembly: fragments outlive their wire packets until the datagram completes
	r.frags = append(r.frags, fragment{off: off, data: data, last: !more})

	// Check completeness: contiguous coverage from 0 through a last
	// fragment. Fragment counts are small; a quadratic scan is fine.
	end := -1
	for _, f := range r.frags {
		if f.last {
			end = f.off + len(f.data)
		}
	}
	if end < 0 {
		return nil
	}
	assembled := make([]byte, end)
	covered := make([]bool, end)
	for _, f := range r.frags {
		if f.off+len(f.data) > end {
			continue // overlapping junk past the end; ignore
		}
		copy(assembled[f.off:], f.data) //foxvet:boundary-copy reassembly: splicing retained fragments back into one datagram
		for i := f.off; i < f.off+len(f.data); i++ {
			covered[i] = true
		}
	}
	for _, c := range covered {
		if !c {
			return nil
		}
	}
	r.timer.Clear()
	delete(p.reasm, key)
	return basis.FromWire(assembled)
}

// Network returns the protocol.Network view of this IP layer for one
// transport protocol number — the composition seam the TCP and UDP
// functors plug into.
func (p *IP) Network(proto byte) protocol.Network {
	return &network{ip: p, proto: proto}
}

type network struct {
	ip    *IP
	proto byte
}

var _ protocol.Network = (*network)(nil)

func (n *network) LocalAddr() protocol.Address { return n.ip.cfg.Local }

// Attach hands h the source address as a protocol.Address. Converting an
// Addr to the interface allocates, and a transport hears from the same
// peer segment after segment, so the last conversion is kept.
func (n *network) Attach(h protocol.Handler) {
	var last Addr
	var boxed protocol.Address
	n.ip.Register(n.proto, func(src, dst Addr, pkt *basis.Packet) {
		if boxed == nil || src != last {
			last, boxed = src, src
		}
		h(boxed, pkt)
	})
}

func (n *network) Send(dst protocol.Address, pkt *basis.Packet) error {
	a, ok := dst.(Addr)
	if !ok {
		return fmt.Errorf("ip: cannot send to %T address %v", dst, dst)
	}
	return n.ip.Send(a, n.proto, pkt)
}

func (n *network) MTU() int { return n.ip.MTU() }

func (n *network) Headroom() int { return Headroom }

func (n *network) Tailroom() int { return ethernet.Tailroom }

// PseudoHeaderChecksum computes the folded partial sum of the TCP/UDP
// pseudo-header — IP_AUX's check function.
func (n *network) PseudoHeaderChecksum(dst protocol.Address, length int) uint16 {
	a, ok := dst.(Addr)
	if !ok {
		return 0
	}
	if length < 0 || length > 0xffff {
		return 0 // the pseudo-header length field cannot express it
	}
	var acc checksum.Accumulator
	acc.Add(n.ip.cfg.Local[:])
	acc.Add(a[:])
	acc.AddUint16(uint16(n.proto))
	acc.AddUint16(uint16(length))
	return acc.Partial()
}
