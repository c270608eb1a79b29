package tcp

import (
	"repro/internal/basis"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// Conn is one TCP connection. Every mutation of its TCB happens inside
// the quasi-synchronous executor below: operations and asynchronous
// events enqueue actions; run drains them. The thread that enqueues is
// the thread that drains — the design choice the paper makes explicit:
// "the thread executing an operation then executes actions, one at a
// time, until at least those actions it placed on the queue have
// completed execution."
type Conn struct {
	t       *TCP
	key     connKey
	name    string // key rendered once, for event labels
	state   State
	tcb     *TCB
	handler Handler

	// listener is non-nil while this connection sits in a listener's
	// half-open table (SYN received, handshake incomplete).
	listener *Listener

	executing bool

	// Synchronization with user threads (paper footnote 3).
	openCond  *sim.Cond
	closeCond *sim.Cond
	bufCond   *sim.Cond
	readCond  *sim.Cond

	// Pull-model receive state (read.go); used when Handler.Data is nil.
	recv recvState

	// watch is the door's per-connection stamp queue (observe.go), nil
	// unless something observes the endpoint's door.
	watch *basis.FIFO[stamp]

	openDone  bool
	openErr   error
	closeDone bool
	closeErr  error
	termErr   error // terminal error, sticky
	deleted   bool
}

func newConn(t *TCP, key connKey) *Conn {
	c := &Conn{
		t:     t,
		key:   key,
		name:  key.String(),
		state: StateClosed,
		tcb:   newTCB(&t.cfg, t.s.Now()),
	}
	c.openCond = sim.NewCond(t.s)
	c.closeCond = sim.NewCond(t.s)
	c.bufCond = sim.NewCond(t.s)
	c.readCond = sim.NewCond(t.s)
	c.bindTimers()
	t.observeAttach(c)
	return c
}

// State reports the connection state.
func (c *Conn) State() State { return c.state }

// setState is the single door through which every state-machine move
// passes, so no transition can forget its accounting (observeState).
func (c *Conn) setState(to State) {
	from := c.state
	if from == to {
		return
	}
	c.state = to
	c.observeState(from, to)
}

// ConnStats is a snapshot of one connection's counters and estimators —
// the per-connection visibility Laminar-style TCP work depends on. The
// underlying fields are plain (not atomic): they are mutated only inside
// the quasi-synchronous executor, so reading them on-scheduler or after
// the simulation ends is race-free by the handoff discipline.
type ConnStats struct {
	State         State
	BytesIn       uint64 // payload bytes delivered in order to the user
	BytesOut      uint64 // payload bytes handed to the wire (excl. rexmits)
	SegsIn        uint64 // segments processed by this connection
	SegsOut       uint64 // segments emitted, excluding retransmissions
	Retransmits   uint64
	DupAcks       uint64 // duplicate ACKs received
	SRTT          sim.Duration
	RTTVar        sim.Duration
	RTO           sim.Duration
	SendWindow    uint32 // peer's most recent advertised window
	CongWindow    uint32
	Ssthresh      uint32 // slow-start threshold
	RecvWindow    uint32 // our receive window
	SndNxt        uint32 // next sequence number to send
	RcvNxt        uint32 // next sequence number expected
	FlightSize    uint32 // bytes sent but not yet acknowledged
	ToDoHighWater int    // deepest the to_do queue has been
}

// Stats snapshots the connection's statistics. Valid even after the
// connection is deleted from the demux table: the TCB survives, so
// post-run inspection (foxstat, tests) sees final values.
func (c *Conn) Stats() ConnStats {
	tcb := c.tcb
	return ConnStats{
		State:         c.state,
		BytesIn:       tcb.bytesIn,
		BytesOut:      tcb.bytesOut,
		SegsIn:        tcb.segsIn,
		SegsOut:       tcb.segsOut,
		Retransmits:   tcb.rexmits,
		DupAcks:       tcb.dupAcksSeen,
		SRTT:          tcb.srtt,
		RTTVar:        tcb.rttvar,
		RTO:           tcb.rto,
		SendWindow:    tcb.sndWnd,
		CongWindow:    tcb.cwnd,
		Ssthresh:      tcb.ssthresh,
		RecvWindow:    tcb.rcvWnd,
		SndNxt:        uint32(tcb.sndNxt),
		RcvNxt:        uint32(tcb.rcvNxt),
		FlightSize:    tcb.flightSize(),
		ToDoHighWater: tcb.toDoHW,
	}
}

// Name returns the connection's diagnostic label, as used in events.
func (c *Conn) Name() string { return c.name }

// Endpoint returns the TCP instance this connection belongs to.
func (c *Conn) Endpoint() *TCP { return c.t }

// LocalPort and RemotePort report the connection's ports; RemoteAddr its
// peer.
func (c *Conn) LocalPort() uint16            { return c.key.lport }
func (c *Conn) RemotePort() uint16           { return c.key.rport }
func (c *Conn) RemoteAddr() protocol.Address { return c.key.raddr }

// Err returns the connection's terminal error, if any.
func (c *Conn) Err() error { return c.termErr }

// SetHandler replaces the connection's upcall set — the staged-handler
// idiom: a user that opened with a minimal handler can install a richer
// one once the connection is established.
func (c *Conn) SetHandler(h Handler) { c.handler = h }

// MSS reports the effective send maximum segment size.
func (c *Conn) MSS() int { return c.tcb.mss }

// enqueue appends an action to the to_do queue.
func (c *Conn) enqueue(a action) {
	if c.t.cfg.DirectDispatch {
		// Ablation mode: no queue, direct (reentrant) dispatch.
		c.perform(a)
		return
	}
	c.tcb.toDo.Enqueue(a)
	if n := c.tcb.toDo.Len(); n > c.tcb.toDoHW {
		c.tcb.toDoHW = n
	}
	if c.t.obs.door {
		c.observeEnqueue(a)
	}
}

// run drains the to_do queue unless an outer frame of the same thread is
// already draining it — the executor of the paper's Figure 7.
func (c *Conn) run() {
	if c.t.cfg.DirectDispatch || c.executing {
		return
	}
	c.executing = true
	for {
		a, ok := c.tcb.toDo.Dequeue()
		if !ok {
			break
		}
		if !c.t.obs.door {
			c.perform(a)
			continue
		}
		sp := c.observeBegin(a)
		c.perform(a)
		c.observeEnd(a, &sp)
	}
	c.executing = false
}

// perform executes one action. Dispatch order mirrors Fig. 8.
func (c *Conn) perform(a action) {
	switch a.kind {
	case actProcessData:
		c.receiveSegment(a.seg)
	case actSendSegment:
		c.emit(a.seg)
	case actUserData:
		c.note(evDelivered, int64(len(a.seg.data)), 0)
		if c.handler.Data != nil {
			c.handler.Data(c, a.seg.data)
			// Data borrows its bytes: a held segment's hold ends here.
			if a.seg.hold != nil {
				c.t.release(a.seg)
			}
		} else {
			c.bufferData(a.seg)
		}
	case actUserError:
		c.failConnection(a.err)
	case actSetTimer:
		c.setTimer(a.which, a.d)
	case actClearTimer:
		c.clearTimer(a.which)
	case actTimerExpired:
		c.timerExpired(a.which)
	case actMaybeSend:
		c.sendModule()
	case actCompleteOpen:
		if !c.openDone {
			c.openDone = true
			c.openErr = a.err
			c.openCond.Broadcast()
			if a.err == nil && c.handler.Established != nil {
				c.handler.Established(c)
			}
		}
	case actCompleteClose:
		if !c.closeDone {
			c.closeDone = true
			c.closeErr = a.err
			c.closeCond.Broadcast()
		}
	case actPeerClosed:
		c.recv.eof = true
		c.readCond.Broadcast()
		if c.handler.PeerClosed != nil {
			c.handler.PeerClosed(c)
		}
	case actDeleteTCB:
		c.deleteTCB()
	}
}

// failConnection delivers a terminal error to every waiter and tears the
// connection down.
func (c *Conn) failConnection(err error) {
	if c.termErr == nil {
		c.termErr = err
	}
	c.setState(StateClosed)
	if !c.openDone {
		c.openDone = true
		c.openErr = err
		c.openCond.Broadcast()
	}
	if !c.closeDone {
		c.closeDone = true
		c.closeErr = err
		c.closeCond.Broadcast()
	}
	c.bufCond.Broadcast()
	c.readCond.Broadcast()
	if c.handler.Error != nil {
		c.handler.Error(c, err)
	}
	c.enqueue(action{kind: actDeleteTCB})
}

// deleteTCB clears timers, removes the connection from the demux map,
// returns every byte it charged to the endpoint memory account, and
// gives the unacknowledged segments' packets back to the free list.
func (c *Conn) deleteTCB() {
	if c.deleted {
		return
	}
	c.deleted = true
	c.setState(StateClosed)
	c.leaveHalfOpen()
	for id := timerID(0); id < numTimers; id++ {
		c.clearTimer(id)
	}
	if c.t.conns[c.key] == c {
		delete(c.t.conns, c.key)
	}
	// Release the send queue, the reassembly queue (its frames go home,
	// and the slots are nilled so the backing array retains nothing), and
	// the receive-buffer charge. The receive buffer itself stays readable
	// — Read drains delivered data even after teardown — but it no longer
	// counts against the account.
	tcb := c.tcb
	// The TCB outlives the connection (Stats reads it), so whatever stays
	// on rexmitQ stays reachable for as long as the user holds the Conn.
	for {
		sg, ok := tcb.rexmitQ.PopFront()
		if !ok {
			break
		}
		sg.retired = true
		c.t.recycle(sg)
	}
	if tcb.queuedBytes > 0 {
		c.t.memCharge(-tcb.queuedBytes)
		tcb.queued.Clear()
		tcb.queuedBytes = 0
		tcb.queuedFront = 0
	}
	for i, sg := range tcb.outOfOrder {
		c.t.release(sg)
		tcb.outOfOrder[i] = nil
	}
	tcb.outOfOrder = tcb.outOfOrder[:0]
	if tcb.oooBytes > 0 {
		c.t.memCharge(-tcb.oooBytes)
		tcb.oooBytes = 0
	}
	if c.recv.charged > 0 {
		c.t.memCharge(-c.recv.charged)
		c.recv.charged = 0
	}
	c.bufCond.Broadcast()
}

// enter and leave bracket every entry to the executor — a user call, a
// timer expiry, a packet arrival: between them the thread mutates the
// TCB and enqueues, and leave drains to_do before the entry closes, so
// "the thread that enqueues is the thread that drains".
func (c *Conn) enter(k entryKind, n int) entry { return c.t.observeEnter(c, k, n, nil) }

func (c *Conn) leave(e entry) {
	c.run()
	c.t.observeLeave(e)
}

// Write queues data for transmission, blocking the calling thread while
// the send buffer is full. It does not copy: the connection keeps
// referring to data's bytes until they are segmentized — copied, once,
// into a packet — which happens when the window next admits them and can
// be after Write returns (up to SendBufferLimit bytes wait behind a
// closed window). Nothing tells the caller when that has happened short
// of Close returning, so hand Write a slice you will not write to again
// while the connection lives. That rules out the slice a Data upcall was
// given, which is borrowed from the received frame and overwritten when
// the upcall returns: a handler that echoes writes a copy.
func (c *Conn) Write(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	start := c.t.observeUserStart()
	for len(data) > 0 {
		if c.termErr != nil {
			return c.termErr
		}
		if c.tcb.finQueued || c.state == StateClosed && c.openDone {
			return ErrClosed
		}
		space := c.t.cfg.SendBufferLimit - c.tcb.queuedBytes
		if space <= 0 {
			c.bufCond.Wait()
			continue
		}
		n := len(data)
		if n > space {
			n = space
		}
		e := c.enter(enterWrite, n)
		c.tcb.queuePush(data[:n])
		c.t.memCharge(n)
		c.enqueue(action{kind: actMaybeSend})
		c.leave(e)
		data = data[n:]
	}
	c.t.observeUserDone(enterWrite, start)
	return nil
}

// WriteUrgent queues data like Write but marks its final byte as the
// urgent point; outgoing segments carry URG until it is sent. The peer's
// Handler.Urgent upcall reports the advancing urgent pointer; data still
// arrives in-band through Handler.Data, as modern stacks deliver it.
func (c *Conn) WriteUrgent(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	e := c.enter(enterUrgent, len(data))
	c.tcb.sndUpSeq = c.tcb.sndNxt + seq(sat32(c.tcb.queuedBytes)) + seq(len(data))
	c.tcb.urgentPending = true
	c.leave(e)
	return c.Write(data)
}

// Close initiates a graceful close (FIN after all queued data) and
// blocks until our FIN is acknowledged or the connection fails.
func (c *Conn) Close() error {
	if c.termErr != nil {
		return c.termErr
	}
	c.Shutdown() // a second close just waits with the first
	for !c.closeDone {
		c.closeCond.Wait()
	}
	return c.closeErr
}

// Shutdown initiates a graceful close without waiting for the FIN to be
// acknowledged. Use it from inside upcalls — Close would block the
// device thread that is delivering the upcall, which can never then
// receive the acknowledgment it is waiting for.
func (c *Conn) Shutdown() {
	if c.termErr != nil || c.tcb.finQueued {
		return
	}
	e := c.enter(enterClose, 0)
	c.stateClose()
	c.leave(e)
}

// Abort resets the connection: RST to the peer, error to every waiter.
func (c *Conn) Abort() {
	e := c.enter(enterAbort, 0)
	c.stateAbort(ErrAborted)
	c.leave(e)
}
