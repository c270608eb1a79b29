package tcp_test

// The wire-image oracle. Send-side packets are recycled without being
// cleared and retransmitted in place, so what must hold is stated on the
// cable: every TCP data frame any host transmits carries exactly the
// bytes its source stream has at that sequence number — first
// transmissions, retransmissions and frames that waited on ARP alike —
// and Ethernet padding is zero, whatever the buffer under it held before
// (the Etherleak disclosure, CVE-2003-0001). A tap on the segment checks
// every frame of a run.
//
// Received frames are recycled too — an upcall only borrows its frame —
// so the oracle also stands at the far end: every Data upcall must bring
// exactly the bytes the peer's stream has at the offset delivery has
// reached, checked inside the upcall, while the bytes are still the
// upcall's to read. A segment held out of order and delivered from a
// frame the device took back would show here (as poison, under -race).

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/arp"
	"repro/internal/ethernet"
	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/wire"
)

// pattern returns n bytes, none zero (a stale byte under padding shows)
// and with a period coprime to every segment size in use.
func pattern(salt byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 1 + byte((i+int(salt))%251)
	}
	return b
}

// wireOracle checks frames against the streams their senders are
// writing. Its tap runs on the medium's coroutine, so it reports with
// Errorf, never Fatal.
type wireOracle struct {
	t      *testing.T
	stream map[string][]byte // by sending port
	iss    map[string]uint32
	seen   map[string]map[uint32]int // transmissions per (port, seq) of data frames

	dataFrames  int
	retransmits int
	padded      int // data frames short enough to be padded
	fullBefore  bool
	etherleak   int // padded data frames sent after a full-sized one from the same host

	delivered map[string]int // bytes upcalled so far, by the port whose stream they are
	upcalls   int
}

func newWireOracle(t *testing.T) *wireOracle {
	return &wireOracle{t: t, stream: map[string][]byte{}, iss: map[string]uint32{}, seen: map[string]map[uint32]int{},
		delivered: map[string]int{}}
}

// receiver returns the handler of a connection whose peer writes from's
// stream: Data checks each upcall against the stream where delivery
// stands, then hands it to sink.
func (o *wireOracle) receiver(from string, sink *collector) tcp.Handler {
	h := sink.handler()
	collect := h.Data
	h.Data = func(c *tcp.Conn, d []byte) {
		o.upcalls++
		src, off := o.stream[from], o.delivered[from]
		o.delivered[from] += len(d)
		if off+len(d) > len(src) {
			o.t.Errorf("delivery of %s's stream: %d bytes at offset %d, past its %d bytes", from, len(d), off, len(src))
		} else if want := src[off : off+len(d)]; !bytes.Equal(d, want) {
			i := 0
			for d[i] == want[i] {
				i++
			}
			o.t.Errorf("delivery of %s's stream: upcall of %d bytes at offset %d differs at byte %d: %#02x, want %#02x",
				from, len(d), off, i, d[i], want[i])
		}
		collect(c, d)
	}
	return h
}

func (o *wireOracle) tap(from string, f []byte) {
	const ethHdr, fcs = 14, 4
	if len(f) < ethHdr+fcs || binary.BigEndian.Uint16(f[12:14]) != ethernet.TypeIPv4 {
		return
	}
	dgram := f[ethHdr : len(f)-fcs]
	if len(dgram) < 20 || dgram[9] != ip.ProtoTCP {
		return
	}
	ihl, total := int(dgram[0]&0x0f)*4, int(binary.BigEndian.Uint16(dgram[2:4]))
	if total > len(dgram) || ihl+20 > total {
		o.t.Errorf("%s sent a malformed datagram: ihl %d total %d in %d bytes", from, ihl, total, len(dgram))
		return
	}
	for i, b := range dgram[total:] {
		if b != 0 {
			o.t.Errorf("%s: padding byte %d of %d is %#02x, want zero (frame of %d bytes)", from, i, len(dgram)-total, b, len(f))
			break
		}
	}
	seg := dgram[ihl:total]
	seq, flags := binary.BigEndian.Uint32(seg[4:8]), seg[13]
	payload := seg[int(seg[12]>>4)*4:]
	if flags&0x02 != 0 { // SYN
		o.iss[from] = seq
	}
	if len(payload) == 0 {
		return
	}
	o.dataFrames++
	if o.seen[from] == nil {
		o.seen[from] = map[uint32]int{}
	}
	if o.seen[from][seq]++; o.seen[from][seq] > 1 {
		o.retransmits++
	}
	if total < 46 {
		o.padded++
		if o.fullBefore {
			o.etherleak++
		}
	} else if len(payload) >= 1000 {
		o.fullBefore = true
	}
	src, off := o.stream[from], int(seq-o.iss[from]-1)
	if off < 0 || off+len(payload) > len(src) {
		o.t.Errorf("%s sent %d bytes at stream offset %d, outside its %d-byte stream", from, len(payload), off, len(src))
		return
	}
	if want := src[off : off+len(payload)]; !bytes.Equal(payload, want) {
		i := 0
		for payload[i] == want[i] {
			i++
		}
		o.t.Errorf("%s: data frame seq %d (transmission %d, %d bytes) differs from the stream at byte %d: %#02x, want %#02x",
			from, seq, o.seen[from][seq], len(payload), i, payload[i], want[i])
	}
}

// Loss, duplication and reordering in both directions, both hosts
// sending: fast retransmits, RTO retransmits and spurious ones all
// re-marshal in place. Then short writes over buffers that last held a
// full segment — the frames Ethernet pads.
func TestWireImageUnderFaults(t *testing.T) {
	wcfg := wire.Config{Seed: 5, Loss: 0.03, Duplicate: 0.02, Jitter: 0.05}
	runPairOn(t, wcfg, tcp.Config{InitialWindow: 16 << 10}, func(s *sim.Scheduler, seg *wire.Segment, a, b tcpHost) {
		o := newWireOracle(t)
		// The stream each host writes: a bulk part, then single bytes.
		const bulk, shorts = 150 << 10, 8
		o.stream[a.A.String()] = pattern(3, bulk+shorts)
		o.stream[b.A.String()] = pattern(101, bulk+shorts)
		seg.SetTap(o.tap)

		var atA, atB collector
		var server *tcp.Conn
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { server = c; return o.receiver(a.A.String(), &atB) })
		client, err := a.TCP.Open(b.A, 80, o.receiver(b.A.String(), &atA))
		if err != nil {
			t.Fatal(err)
		}
		for server == nil {
			s.Sleep(10 * time.Millisecond)
		}
		send := func(c *tcp.Conn, stream []byte, done *bool) {
			if err := c.Write(stream[:bulk]); err != nil {
				t.Errorf("bulk write: %v", err)
			}
			// Let the flight drain so every buffer is back on the free
			// list, then write one byte at a time: each goes out alone
			// (nothing outstanding for Nagle to wait on) in the buffer
			// the last full segment retired.
			s.Sleep(5 * time.Second)
			for i := 0; i < shorts; i++ {
				if err := c.Write(stream[bulk+i : bulk+i+1]); err != nil {
					t.Errorf("short write: %v", err)
				}
				s.Sleep(2 * time.Second)
			}
			*done = true
		}
		var aDone, bDone bool
		s.Fork("server-writer", func() { send(server, o.stream[b.A.String()], &bDone) })
		send(client, o.stream[a.A.String()], &aDone)
		for deadline := s.Now() + sim.Time(5*time.Minute); !bDone || atA.buf.Len() < bulk+shorts || atB.buf.Len() < bulk+shorts; {
			if s.Now() > deadline {
				t.Fatalf("transfer stalled: a got %d, b got %d of %d", atA.buf.Len(), atB.buf.Len(), bulk+shorts)
			}
			s.Sleep(100 * time.Millisecond)
		}
		if !bytes.Equal(atB.buf.Bytes(), o.stream[a.A.String()]) || !bytes.Equal(atA.buf.Bytes(), o.stream[b.A.String()]) {
			t.Fatal("delivered streams differ from the sent ones")
		}
		held := a.TCP.Stats().OutOfOrder + b.TCP.Stats().OutOfOrder
		if o.retransmits == 0 || o.etherleak == 0 || held == 0 {
			t.Fatalf("the run did not exercise the cases: %d data frames, %d retransmitted, %d padded after a full segment, %d held out of order",
				o.dataFrames, o.retransmits, o.etherleak, held)
		}
		t.Logf("%d data frames checked, %d retransmissions, %d padded (%d over a retired full-size buffer); %d upcalls checked, %d segments delivered from an out-of-order hold",
			o.dataFrames, o.retransmits, o.padded, o.etherleak, o.upcalls, held)
	})
}

// An RTO fires while the segment's first transmission is still waiting
// for ARP: the entry aged out mid-connection and the request is lost to
// a partition. TCP retransmits from the same buffer it lent to ip, twice,
// before resolution completes; ip must have kept its own copies, and all
// three frames leave intact when the partition heals.
func TestWireImageAcrossDeferredSend(t *testing.T) {
	s := sim.New(sim.Config{})
	s.Run(func() {
		seg := wire.NewSegment(s, wire.Config{}, nil)
		var hosts [2]tcpHost
		var resolvers [2]*arp.ARP
		for i := range hosts {
			n := byte(i + 1)
			addr := ip.HostAddr(n)
			port := seg.NewPort(addr.String(), nil)
			eth := ethernet.New(port, ethernet.HostAddr(n), ethernet.Config{})
			resolvers[i] = arp.New(s, eth, addr, arp.Config{EntryTTL: 300 * time.Millisecond})
			ipl := ip.New(s, eth, resolvers[i], ip.Config{Local: addr})
			hosts[i] = tcpHost{TCP: tcp.New(s, ipl.Network(ip.ProtoTCP), tcp.Config{}), IP: ipl, Eth: eth, Port: port, A: addr}
		}
		a, b := hosts[0], hosts[1]
		o := newWireOracle(t)
		o.stream[a.A.String()] = pattern(7, 8000)
		seg.SetTap(o.tap)

		var atB collector
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { return atB.handler() })
		conn, err := a.TCP.Open(b.A, 80, tcp.Handler{})
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Write(o.stream[a.A.String()][:5000]); err != nil {
			t.Fatal(err)
		}
		s.Sleep(time.Second) // delivered and acknowledged; a's entry for b has aged out
		if _, fresh := resolvers[0].Lookup(b.A); fresh {
			t.Fatal("ARP entry still fresh; the test would not defer a send")
		}
		requests := resolvers[0].Stats().RequestsSent

		seg.Partition(map[string]int{a.A.String(): 0, b.A.String(): 1})
		if err := conn.Write(o.stream[a.A.String()][5000:]); err != nil {
			t.Fatal(err)
		}
		first := tcp.SndUna(conn)
		s.Sleep(1700 * time.Millisecond) // RTOs at ~0.5 s and ~1.5 s; ARP retries at 1 s (cut)
		if got := conn.Stats().Retransmits; got != 2 {
			t.Fatalf("%d retransmissions during the partition, want 2 (the test's timeline moved)", got)
		}
		if n := o.seen[a.A.String()][first]; n != 0 {
			t.Fatalf("segment %d reached the wire %d times while unresolved", first, n)
		}
		seg.Heal()
		s.Sleep(2 * time.Second) // ARP retry at 2 s succeeds; everything held goes out

		if got := resolvers[0].Stats().RequestsSent - requests; got != 3 {
			t.Fatalf("%d ARP requests for the deferred sends, want 3", got)
		}
		if n := o.seen[a.A.String()][first]; n != 3 {
			t.Fatalf("segment %d reached the wire %d times, want the original and both retransmissions", first, n)
		}
		if !bytes.Equal(atB.buf.Bytes(), o.stream[a.A.String()]) {
			t.Fatalf("b received %d bytes, differing from the %d sent", atB.buf.Len(), len(o.stream[a.A.String()]))
		}
	})
}
