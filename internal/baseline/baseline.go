// Package baseline is the comparator for the paper's Table 1: a
// conventional, monolithic TCP in the style of the Berkeley-derived
// x-kernel v3.2 implementation the paper measures against. It speaks
// exactly the same wire format as repro/internal/tcp (the two
// interoperate, and the tests prove it), but it is built the way 1994 C
// stacks were built:
//
//   - one big receive function with inlined header prediction, not a
//     module per specification section;
//   - direct calls all the way through — no to_do queue, no action
//     values, no per-event closures;
//   - headers parsed in place off the wire bytes and written into
//     preallocated scratch, minimizing allocation on the per-segment
//     path.
//
// It implements what the comparison needs to be fair — handshake,
// sliding-window transfer with MSS, delayed ACKs, Nagle, Jacobson RTT
// estimation with backoff, fast retransmit, and the full close handshake
// — but none of the paper's structural claims. The difference Table 1
// reports is then attributable to structure, which is the experiment.
//
// Its loss recovery is Tahoe, with classic Nagle, as the x-kernel era's
// was: a fast retransmit drops cwnd to one MSS, and a second hole in a
// window waits for the retransmission timer. repro/internal/tcp recovers
// with RFC 5681 fast recovery, RFC 6582 NewReno partial ACKs and RFC 3042
// limited transmit instead. That is the one declared behavioural
// difference between the two: a clean wire never shows it, a lossy one
// (the benchmark's loss_w64k) does.
package baseline

import (
	"encoding/binary"
	"errors"
	"time"

	"repro/internal/basis"
	"repro/internal/checksum"
	"repro/internal/profile"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/timers"
)

const (
	fFIN = 1 << 0
	fSYN = 1 << 1
	fRST = 1 << 2
	fPSH = 1 << 3
	fACK = 1 << 4

	hdrLen = 20
)

// Errors mirror the structured implementation's user-visible failures.
var (
	ErrReset   = errors.New("baseline: connection reset by peer")
	ErrRefused = errors.New("baseline: connection refused")
	ErrTimeout = errors.New("baseline: operation timed out")
	ErrClosed  = errors.New("baseline: connection closed")
)

// Config carries the few knobs the benchmark harness needs.
type Config struct {
	InitialWindow    int          // advertised receive window; default 4096
	ComputeChecksums *bool        // default true
	UserTimeout      sim.Duration // default 30s
	MSL              sim.Duration // default 30s
	AckDelay         sim.Duration // default 200ms
	MinRTO           sim.Duration // default 500ms
	MaxRTO           sim.Duration // default 64s
	// CopyPerKB and ChecksumPerKB charge calibrated 1994-hardware
	// per-kilobyte costs (the experiments package uses bcopy's 61 µs/KB
	// and the x-kernel checksum's 375 µs/KB from the paper).
	CopyPerKB     sim.Duration
	ChecksumPerKB sim.Duration
	Prof          *profile.Profile
}

func (c *Config) fill() {
	if c.InitialWindow == 0 {
		c.InitialWindow = 4096
	}
	if c.UserTimeout == 0 {
		c.UserTimeout = 30 * time.Second
	}
	if c.MSL == 0 {
		c.MSL = 30 * time.Second
	}
	if c.AckDelay == 0 {
		c.AckDelay = 200 * time.Millisecond
	}
	if c.MinRTO == 0 {
		c.MinRTO = 500 * time.Millisecond
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = 64 * time.Second
	}
}

func (c *Config) checksums() bool { return c.ComputeChecksums == nil || *c.ComputeChecksums }

// Stats counts endpoint activity.
type Stats struct {
	SegsSent     uint64
	SegsReceived uint64
	Retransmits  uint64
	Predicted    uint64 // header-prediction hits
	BadChecksum  uint64
}

type connKey struct {
	raddr protocol.Address
	rport uint16
	lport uint16
}

// state numbers (RFC 793; no Syn_Active/Passive split here — that
// refinement is the structured implementation's).
type state int

const (
	stClosed state = iota
	stListen
	stSynSent
	stSynRcvd
	stEstab
	stFinWait1
	stFinWait2
	stCloseWait
	stClosing
	stLastAck
	stTimeWait
)

// Handler carries the user upcalls.
type Handler struct {
	Data       func(c *Conn, data []byte)
	PeerClosed func(c *Conn)
	Error      func(c *Conn, err error)
}

// TCP is one host's baseline endpoint.
type TCP struct {
	s         *sim.Scheduler
	net       protocol.Network
	cfg       Config
	conns     map[connKey]*Conn
	listeners map[uint16]func(*Conn) Handler
	ephemeral uint16
	stats     Stats
}

// rexseg is one retransmission-queue entry.
type rexseg struct {
	seq     uint32
	data    []byte
	flags   uint8
	sentAt  sim.Time
	rexmits int
	timed   bool
}

// Conn is one baseline connection.
type Conn struct {
	t   *TCP
	key connKey
	st  state
	h   Handler

	iss, sndUna, sndNxt uint32
	sndWnd, maxWnd      uint32
	wl1, wl2            uint32
	irs, rcvNxt         uint32
	rcvWnd              uint32
	mss                 int

	sendBuf   []byte // queued unsent bytes (flat buffer, C-style)
	rexmitQ   []rexseg
	ooo       []rexseg // out-of-order received
	finQueued bool
	finSent   bool
	finSeq    uint32

	srtt, rttvar, rto sim.Duration
	backoff           int
	cwnd, ssthresh    uint32
	dupAcks           int
	lastProgress      sim.Time

	rexmitT *timers.Timer
	delackT *timers.Timer
	twT     *timers.Timer

	ackPending bool
	unacked    int

	openC, closeC *sim.Cond
	openDone      bool
	openErr       error
	closeDone     bool
	err           error
}

// New attaches a baseline endpoint to net.
func New(s *sim.Scheduler, net protocol.Network, cfg Config) *TCP {
	cfg.fill()
	t := &TCP{
		s: s, net: net, cfg: cfg,
		conns:     make(map[connKey]*Conn),
		listeners: make(map[uint16]func(*Conn) Handler),
		ephemeral: 49151,
	}
	net.Attach(t.input)
	return t
}

// Stats returns a snapshot of the counters.
func (t *TCP) Stats() Stats { return t.stats }

// MTU is the largest segment payload.
func (t *TCP) MTU() int { return t.net.MTU() - hdrLen }

// Listen installs an accept factory on port.
func (t *TCP) Listen(port uint16, accept func(*Conn) Handler) {
	t.listeners[port] = accept
}

// Open actively opens a connection and blocks until established.
func (t *TCP) Open(remote protocol.Address, rport uint16, h Handler) (*Conn, error) {
	t.ephemeral++
	key := connKey{raddr: remote, rport: rport, lport: t.ephemeral}
	c := t.newConn(key)
	c.h = h
	t.conns[key] = c
	c.st = stSynSent
	c.iss = uint32(uint64(t.s.Now()) / uint64(4*time.Microsecond))
	c.sndUna, c.sndNxt = c.iss, c.iss+1
	c.pushRexmit(rexseg{seq: c.iss, flags: fSYN, sentAt: t.s.Now(), timed: true})
	c.xmit(c.iss, fSYN, nil, true)
	c.armRexmit()
	for !c.openDone {
		c.openC.Wait()
	}
	if c.openErr != nil {
		return nil, c.openErr
	}
	return c, nil
}

func (t *TCP) newConn(key connKey) *Conn {
	c := &Conn{
		t: t, key: key,
		rcvWnd: uint32(t.cfg.InitialWindow),
		mss:    536,
		rto:    time.Second,
		cwnd:   536, ssthresh: 0xffff,
		lastProgress: t.s.Now(),
	}
	c.openC = sim.NewCond(t.s)
	c.closeC = sim.NewCond(t.s)
	return c
}

// State reports the connection state name (for tests).
func (c *Conn) Established() bool { return c.st == stEstab }

// Err returns the terminal error.
func (c *Conn) Err() error { return c.err }

// ---- output path -------------------------------------------------------

// xmit writes one segment straight to the wire: header into headroom,
// payload already in place, checksum inline. withMSS adds the MSS option.
func (c *Conn) xmit(seqNo uint32, flags uint8, data []byte, withMSS bool) {
	t := c.t
	sec := t.cfg.Prof.Start(profile.CatTCP)
	hl := hdrLen
	if withMSS {
		hl += 4
	}
	cp := t.cfg.Prof.Start(profile.CatCopy)
	pkt := basis.NewPacket(t.net.Headroom()+hl, t.net.Tailroom(), data)
	cp.Stop()
	if t.cfg.CopyPerKB != 0 && len(data) > 0 {
		dsec := t.cfg.Prof.Start(profile.CatCopy)
		t.s.Charge(t.cfg.CopyPerKB * sim.Duration(len(data)) / 1024)
		dsec.Stop()
	}
	h := pkt.Push(hl)
	binary.BigEndian.PutUint16(h[0:2], c.key.lport)
	binary.BigEndian.PutUint16(h[2:4], c.key.rport)
	binary.BigEndian.PutUint32(h[4:8], seqNo)
	binary.BigEndian.PutUint32(h[8:12], c.rcvNxt)
	h[12] = byte(hl/4) << 4
	h[13] = flags
	wnd := c.rcvWnd
	if wnd > 0xffff {
		wnd = 0xffff
	}
	binary.BigEndian.PutUint16(h[14:16], uint16(wnd))
	h[16], h[17], h[18], h[19] = 0, 0, 0, 0
	if withMSS {
		h[20], h[21] = 2, 4
		binary.BigEndian.PutUint16(h[22:24], uint16(t.MTU()))
	}
	if t.cfg.checksums() {
		cks := t.cfg.Prof.Start(profile.CatChecksum)
		var acc checksum.Accumulator
		acc.AddUint16(t.net.PseudoHeaderChecksum(c.key.raddr, pkt.Len()))
		acc.Add(pkt.Bytes())
		binary.BigEndian.PutUint16(h[16:18], acc.Checksum())
		if t.cfg.ChecksumPerKB != 0 {
			t.s.Charge(t.cfg.ChecksumPerKB * sim.Duration(pkt.Len()) / 1024)
		}
		cks.Stop()
	}
	if flags&fACK != 0 {
		c.ackPending = false
		c.unacked = 0
		c.delackT.Clear()
	}
	t.stats.SegsSent++
	t.net.Send(c.key.raddr, pkt)
	sec.Stop()
}

func (c *Conn) pushRexmit(r rexseg) {
	c.rexmitQ = append(c.rexmitQ, r)
}

func (c *Conn) armRexmit() {
	c.rexmitT.Clear()
	d := c.rto << uint(c.backoff)
	if d > c.t.cfg.MaxRTO {
		d = c.t.cfg.MaxRTO
	}
	c.rexmitT = timers.Start(c.t.s, c.onRexmit, d)
}

func (c *Conn) onRexmit() {
	if c.st == stClosed || len(c.rexmitQ) == 0 {
		return
	}
	if sim.Duration(c.t.s.Now()-c.lastProgress) >= c.t.cfg.UserTimeout {
		c.fail(ErrTimeout)
		return
	}
	c.backoff++
	c.ssthresh = maxu32(c.flight()/2, 2*uint32(c.mss))
	c.cwnd = uint32(c.mss)
	r := &c.rexmitQ[0]
	r.rexmits++
	r.sentAt = c.t.s.Now()
	c.t.stats.Retransmits++
	flags := r.flags
	withMSS := flags&fSYN != 0
	c.xmit(r.seq, flags, r.data, withMSS)
	c.armRexmit()
}

func (c *Conn) flight() uint32 { return c.sndNxt - c.sndUna }

func maxu32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

// output pushes as much queued data as windows allow — the single send
// routine of a conventional stack.
func (c *Conn) output() {
	if c.st != stEstab && c.st != stCloseWait {
		if c.finNeedsSending() {
			c.sendFin()
		}
		return
	}
	for len(c.sendBuf) > 0 {
		wnd := c.sndWnd
		if c.cwnd < wnd {
			wnd = c.cwnd
		}
		fl := c.flight()
		if fl >= wnd {
			break
		}
		n := int(wnd - fl)
		if n > c.mss {
			n = c.mss
		}
		if n > len(c.sendBuf) {
			n = len(c.sendBuf)
		}
		if n < c.mss && n < len(c.sendBuf) && uint32(n) < c.maxWnd/2 {
			break // SWS
		}
		if n < c.mss && n == len(c.sendBuf) && fl > 0 {
			break // Nagle
		}
		flags := uint8(fACK)
		if n == len(c.sendBuf) {
			flags |= fPSH
		}
		data := c.sendBuf[:n]
		c.sendBuf = c.sendBuf[n:]
		r := rexseg{seq: c.sndNxt, data: data, flags: flags, sentAt: c.t.s.Now()}
		if !c.anyTimed() {
			r.timed = true
		}
		c.pushRexmit(r)
		wasEmpty := len(c.rexmitQ) == 1
		c.sndNxt += uint32(n)
		c.xmit(r.seq, flags, data, false)
		if wasEmpty {
			c.armRexmit()
		}
	}
	if c.finNeedsSending() {
		c.sendFin()
	}
}

func (c *Conn) finNeedsSending() bool {
	return c.finQueued && !c.finSent && len(c.sendBuf) == 0 &&
		(c.st == stEstab || c.st == stCloseWait || c.st == stSynRcvd)
}

func (c *Conn) sendFin() {
	c.finSent = true
	c.finSeq = c.sndNxt
	c.pushRexmit(rexseg{seq: c.sndNxt, flags: fFIN | fACK, sentAt: c.t.s.Now()})
	c.sndNxt++
	c.xmit(c.finSeq, fFIN|fACK, nil, false)
	if len(c.rexmitQ) == 1 {
		c.armRexmit()
	}
	if c.st == stEstab || c.st == stSynRcvd {
		c.st = stFinWait1
	} else if c.st == stCloseWait {
		c.st = stLastAck
	}
}

func (c *Conn) anyTimed() bool {
	for i := range c.rexmitQ {
		if c.rexmitQ[i].timed && c.rexmitQ[i].rexmits == 0 {
			return true
		}
	}
	return false
}

// ---- user operations -----------------------------------------------------

// Write queues data and pushes output. It blocks only when more than one
// window of data is already queued, to bound memory like a socket buffer.
func (c *Conn) Write(data []byte) error {
	for len(data) > 0 {
		if c.err != nil {
			return c.err
		}
		if c.finQueued {
			return ErrClosed
		}
		space := 64<<10 - len(c.sendBuf)
		if space <= 0 {
			c.openC.Wait() // reuse openC as a buffer-space cond
			continue
		}
		n := len(data)
		if n > space {
			n = space
		}
		c.sendBuf = append(c.sendBuf, data[:n]...)
		data = data[n:]
		c.output()
	}
	return nil
}

// Close sends a FIN after queued data and waits for it to be acked.
func (c *Conn) Close() error {
	if c.err != nil {
		return c.err
	}
	c.finQueued = true
	c.output()
	for !c.closeDone {
		c.closeC.Wait()
	}
	return c.err
}

func (c *Conn) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.st = stClosed
	c.teardown()
	if !c.openDone {
		c.openDone, c.openErr = true, err
	}
	c.closeDone = true
	c.openC.Broadcast()
	c.closeC.Broadcast()
	if c.h.Error != nil {
		c.h.Error(c, err)
	}
}

func (c *Conn) teardown() {
	c.rexmitT.Clear()
	c.delackT.Clear()
	c.twT.Clear()
	if c.t.conns[c.key] == c {
		delete(c.t.conns, c.key)
	}
}

// ---- input path ----------------------------------------------------------

// input is the whole receive side: parse, find, predict, process — one
// function with inlined branches, the monolithic shape the paper
// contrasts its DAG-of-functions structure against.
func (t *TCP) input(src protocol.Address, pkt *basis.Packet) {
	sec := t.cfg.Prof.Start(profile.CatTCP)
	defer sec.Stop()
	b := pkt.Bytes()
	if len(b) < hdrLen {
		return
	}
	if t.cfg.checksums() && binary.BigEndian.Uint16(b[16:18]) != 0 {
		cks := t.cfg.Prof.Start(profile.CatChecksum)
		var acc checksum.Accumulator
		acc.AddUint16(t.net.PseudoHeaderChecksum(src, len(b)))
		acc.Add(b)
		bad := acc.Partial() != 0xffff
		if t.cfg.ChecksumPerKB != 0 {
			t.s.Charge(t.cfg.ChecksumPerKB * sim.Duration(len(b)) / 1024)
		}
		cks.Stop()
		if bad {
			t.stats.BadChecksum++
			return
		}
	}
	t.stats.SegsReceived++
	srcPort := binary.BigEndian.Uint16(b[0:2])
	dstPort := binary.BigEndian.Uint16(b[2:4])
	seqNo := binary.BigEndian.Uint32(b[4:8])
	ackNo := binary.BigEndian.Uint32(b[8:12])
	off := int(b[12]>>4) * 4
	if off < hdrLen || off > len(b) {
		return
	}
	flags := b[13] & 0x3f
	wnd := uint32(binary.BigEndian.Uint16(b[14:16]))
	var mssOpt int
	for o := b[hdrLen:off]; len(o) >= 2; {
		if o[0] == 1 {
			o = o[1:]
			continue
		}
		if o[0] == 0 {
			break
		}
		if o[0] == 2 && o[1] == 4 && len(o) >= 4 {
			mssOpt = int(binary.BigEndian.Uint16(o[2:4]))
		}
		if int(o[1]) < 2 || int(o[1]) > len(o) {
			break
		}
		o = o[o[1]:]
	}
	data := b[off:]

	key := connKey{raddr: src, rport: srcPort, lport: dstPort}
	c, ok := t.conns[key]
	if !ok {
		// LISTEN or CLOSED.
		if accept, ok := t.listeners[dstPort]; ok && flags&fSYN != 0 && flags&(fACK|fRST) == 0 {
			c = t.newConn(key)
			t.conns[key] = c
			c.h = accept(c)
			c.st = stSynRcvd
			c.irs, c.rcvNxt = seqNo, seqNo+1
			if mssOpt > 0 {
				c.mss = min(mssOpt, t.MTU())
				c.cwnd = uint32(c.mss)
			}
			c.sndWnd, c.maxWnd, c.wl1 = wnd, wnd, seqNo
			c.iss = uint32(uint64(t.s.Now()) / uint64(4*time.Microsecond))
			c.sndUna, c.sndNxt = c.iss, c.iss+1
			c.pushRexmit(rexseg{seq: c.iss, flags: fSYN | fACK, sentAt: t.s.Now(), timed: true})
			c.xmit(c.iss, fSYN|fACK, nil, true)
			c.armRexmit()
			return
		}
		if flags&fRST == 0 {
			t.reset(key, seqNo, ackNo, flags, len(data))
		}
		return
	}
	c.segment(seqNo, ackNo, flags, wnd, mssOpt, data)
}

// reset answers a segment for a nonexistent connection.
func (t *TCP) reset(key connKey, seqNo, ackNo uint32, flags uint8, dlen int) {
	c := t.newConn(key) // scratch connection for formatting only
	if flags&fACK != 0 {
		c.rcvNxt = 0
		c.xmit(ackNo, fRST, nil, false)
	} else {
		l := uint32(dlen)
		if flags&fSYN != 0 {
			l++
		}
		if flags&fFIN != 0 {
			l++
		}
		c.rcvNxt = seqNo + l
		c.xmit(0, fRST|fACK, nil, false)
	}
}

func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqGT(a, b uint32) bool  { return int32(a-b) > 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// segment processes one segment for an existing connection.
func (c *Conn) segment(seqNo, ackNo uint32, flags uint8, wnd uint32, mssOpt int, data []byte) {
	t := c.t

	// Header prediction (the hot path, inlined).
	if c.st == stEstab && flags&(fSYN|fFIN|fRST) == 0 && flags&fACK != 0 &&
		seqNo == c.rcvNxt && wnd == c.sndWnd {
		if len(data) == 0 && seqGT(ackNo, c.sndUna) && seqLEQ(ackNo, c.sndNxt) {
			t.stats.Predicted++
			c.ackUpdate(ackNo)
			c.output()
			return
		}
		if len(data) > 0 && ackNo == c.sndUna && len(c.ooo) == 0 &&
			uint32(len(data)) <= c.rcvWnd {
			t.stats.Predicted++
			c.rcvNxt += uint32(len(data))
			if c.h.Data != nil {
				c.h.Data(c, data)
			}
			c.unacked++
			if c.unacked >= 2 {
				c.xmit(c.sndNxt, fACK, nil, false)
			} else if c.delackT == nil || c.delackT.Cleared() {
				c.ackPending = true
				c.delackT = timers.Start(t.s, c.onDelack, t.cfg.AckDelay)
			}
			return
		}
	}

	switch c.st {
	case stSynSent:
		ackOK := false
		if flags&fACK != 0 {
			if seqLEQ(ackNo, c.iss) || seqGT(ackNo, c.sndNxt) {
				if flags&fRST == 0 {
					c.xmit(ackNo, fRST, nil, false)
				}
				return
			}
			ackOK = true
		}
		if flags&fRST != 0 {
			if ackOK {
				c.fail(ErrRefused)
			}
			return
		}
		if flags&fSYN == 0 {
			return
		}
		c.irs, c.rcvNxt = seqNo, seqNo+1
		if mssOpt > 0 {
			c.mss = min(mssOpt, t.MTU())
			c.cwnd = uint32(c.mss)
		}
		c.sndWnd, c.maxWnd, c.wl1, c.wl2 = wnd, wnd, seqNo, ackNo
		if ackOK {
			c.ackUpdate(ackNo)
			c.st = stEstab
			c.openDone = true
			c.openC.Broadcast()
			c.xmit(c.sndNxt, fACK, nil, false)
			c.output()
		} else {
			c.st = stSynRcvd
			c.xmit(c.iss, fSYN|fACK, nil, true)
		}
		return
	case stClosed:
		return
	}

	// Window acceptability (abbreviated: the common cases).
	if len(data) > 0 && seqGT(seqNo+uint32(len(data)), c.rcvNxt+c.rcvWnd) {
		over := seqNo + uint32(len(data)) - (c.rcvNxt + c.rcvWnd)
		if int(over) < len(data) {
			data = data[:len(data)-int(over)]
			flags &^= fFIN
		} else {
			c.xmit(c.sndNxt, fACK, nil, false)
			return
		}
	}
	if seqGT(seqNo, c.rcvNxt+c.rcvWnd) {
		if flags&fRST == 0 {
			c.xmit(c.sndNxt, fACK, nil, false)
		}
		return
	}

	if flags&fRST != 0 {
		// In-window RST check: anywhere in the receive window counts.
		if seqLT(seqNo, c.rcvNxt) || seqGT(seqNo, c.rcvNxt+c.rcvWnd) {
			return
		}
		switch c.st {
		case stSynRcvd:
			c.teardown()
		case stClosing, stLastAck, stTimeWait:
			c.closeDone = true
			c.closeC.Broadcast()
			c.teardown()
		default:
			c.fail(ErrReset)
		}
		return
	}
	if flags&fSYN != 0 && seqGT(seqNo, c.rcvNxt) {
		c.xmit(c.sndNxt, fRST, nil, false)
		c.fail(ErrReset)
		return
	}
	if flags&fACK == 0 {
		return
	}

	// ACK processing.
	switch c.st {
	case stSynRcvd:
		if seqLEQ(c.sndUna, ackNo) && seqLEQ(ackNo, c.sndNxt) {
			c.st = stEstab
			c.openDone = true
			c.openC.Broadcast()
			c.ackUpdate(ackNo)
		} else {
			c.xmit(ackNo, fRST, nil, false)
			return
		}
	default:
		if seqGT(ackNo, c.sndNxt) {
			c.xmit(c.sndNxt, fACK, nil, false)
			return
		}
		if seqGT(ackNo, c.sndUna) {
			c.ackUpdate(ackNo)
		} else if len(data) == 0 && wnd == c.sndWnd && len(c.rexmitQ) > 0 {
			c.dupAcks++
			if c.dupAcks == 3 {
				c.ssthresh = maxu32(c.flight()/2, 2*uint32(c.mss))
				c.cwnd = uint32(c.mss)
				r := &c.rexmitQ[0]
				r.rexmits++
				c.t.stats.Retransmits++
				c.xmit(r.seq, r.flags, r.data, false)
			}
		}
	}
	// Window update.
	if seqLT(c.wl1, seqNo) || (c.wl1 == seqNo && seqLEQ(c.wl2, ackNo)) {
		c.sndWnd, c.wl1, c.wl2 = wnd, seqNo, ackNo
		if wnd > c.maxWnd {
			c.maxWnd = wnd
		}
	}

	// FIN-ack driven transitions.
	if c.finSent && seqGT(c.sndUna, c.finSeq) {
		switch c.st {
		case stFinWait1:
			c.st = stFinWait2
			c.closeDone = true
			c.closeC.Broadcast()
		case stClosing:
			c.enterTimeWait()
		case stLastAck:
			c.closeDone = true
			c.closeC.Broadcast()
			c.teardown()
			c.st = stClosed
			return
		}
	}

	// Text.
	if len(data) > 0 && (c.st == stEstab || c.st == stFinWait1 || c.st == stFinWait2) {
		if seqNo == c.rcvNxt {
			c.rcvNxt += uint32(len(data))
			if c.h.Data != nil {
				c.h.Data(c, data)
			}
			// Drain the out-of-order list.
			for len(c.ooo) > 0 && seqLEQ(c.ooo[0].seq, c.rcvNxt) {
				q := c.ooo[0]
				c.ooo = c.ooo[1:]
				if end := q.seq + uint32(len(q.data)); seqGT(end, c.rcvNxt) {
					tail := q.data[c.rcvNxt-q.seq:]
					c.rcvNxt = end
					if c.h.Data != nil {
						c.h.Data(c, tail)
					}
				}
				if q.flags&fFIN != 0 {
					flags |= fFIN
					seqNo = q.seq
					data = q.data
				}
			}
			c.unacked++
			if c.unacked >= 2 {
				c.xmit(c.sndNxt, fACK, nil, false)
			} else if c.delackT == nil || c.delackT.Cleared() {
				c.ackPending = true
				c.delackT = timers.Start(c.t.s, c.onDelack, c.t.cfg.AckDelay)
			}
		} else if seqGT(seqNo, c.rcvNxt) {
			// Insert out of order (sorted).
			at := len(c.ooo)
			for i := range c.ooo {
				if seqGT(c.ooo[i].seq, seqNo) {
					at = i
					break
				}
			}
			cp := make([]byte, len(data))
			copy(cp, data)
			c.ooo = append(c.ooo, rexseg{})
			copy(c.ooo[at+1:], c.ooo[at:])
			c.ooo[at] = rexseg{seq: seqNo, data: cp, flags: flags & fFIN}
			c.xmit(c.sndNxt, fACK, nil, false)
			return
		} else {
			// Partially or fully duplicate data.
			end := seqNo + uint32(len(data))
			if seqGT(end, c.rcvNxt) {
				fresh := data[c.rcvNxt-seqNo:]
				c.rcvNxt = end
				if c.h.Data != nil {
					c.h.Data(c, fresh)
				}
			}
			c.xmit(c.sndNxt, fACK, nil, false)
		}
	}

	// FIN.
	switch {
	case flags&fFIN != 0 && c.st == stTimeWait:
		// The peer's FIN again: our last ACK was lost. Acknowledge it
		// and restart the 2×MSL timeout (RFC 793, TIME-WAIT).
		c.xmit(c.sndNxt, fACK, nil, false)
		c.twT.Clear()
		c.twT = timers.Start(c.t.s, c.onTimeWait, 2*c.t.cfg.MSL)
	case flags&fFIN != 0 && seqNo+uint32(len(data)) == c.rcvNxt:
		c.rcvNxt++
		c.xmit(c.sndNxt, fACK, nil, false)
		if c.h.PeerClosed != nil {
			c.h.PeerClosed(c)
		}
		switch c.st {
		case stEstab, stSynRcvd:
			c.st = stCloseWait
		case stFinWait1:
			c.st = stClosing
		case stFinWait2:
			c.enterTimeWait()
		}
	}
	c.output()
}

func (c *Conn) enterTimeWait() {
	c.st = stTimeWait
	c.rexmitT.Clear()
	c.closeDone = true
	c.closeC.Broadcast()
	c.twT = timers.Start(c.t.s, c.onTimeWait, 2*c.t.cfg.MSL)
}

func (c *Conn) onTimeWait() {
	c.st = stClosed
	c.teardown()
}

func (c *Conn) onDelack() {
	if c.ackPending && c.st != stClosed {
		c.xmit(c.sndNxt, fACK, nil, false)
	}
}

// ackUpdate advances snd_una, trims the retransmission queue, samples
// the RTT, grows cwnd, and restarts the timer.
func (c *Conn) ackUpdate(ackNo uint32) {
	now := c.t.s.Now()
	for len(c.rexmitQ) > 0 {
		r := &c.rexmitQ[0]
		l := uint32(len(r.data))
		if r.flags&(fSYN|fFIN) != 0 {
			l++
		}
		if seqGT(r.seq+l, ackNo) {
			break
		}
		if r.timed && r.rexmits == 0 {
			c.rtt(sim.Duration(now - r.sentAt))
		}
		c.rexmitQ = c.rexmitQ[1:]
	}
	c.sndUna = ackNo
	c.lastProgress = now
	c.backoff = 0
	c.dupAcks = 0
	if c.cwnd < c.ssthresh {
		c.cwnd += uint32(c.mss)
	} else {
		c.cwnd += maxu32(uint32(c.mss)*uint32(c.mss)/c.cwnd, 1)
	}
	if len(c.rexmitQ) == 0 {
		c.rexmitT.Clear()
	} else {
		c.armRexmit()
	}
	c.openC.Broadcast() // writers waiting on buffer space
}

func (c *Conn) rtt(m sim.Duration) {
	if m <= 0 {
		return
	}
	if c.srtt == 0 {
		c.srtt, c.rttvar = m, m/2
	} else {
		err := m - c.srtt
		c.srtt += err / 8
		if err < 0 {
			err = -err
		}
		c.rttvar += (err - c.rttvar) / 4
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < c.t.cfg.MinRTO {
		c.rto = c.t.cfg.MinRTO
	}
	if c.rto > c.t.cfg.MaxRTO {
		c.rto = c.t.cfg.MaxRTO
	}
}
