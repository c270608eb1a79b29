package tcp

import (
	"io"

	"repro/internal/basis"
)

// This file adds the pull model for receiving data. A connection whose
// Handler.Data is nil buffers in-order data instead of upcalling, and the
// user drains it with Read. The buffered byte count closes the advertised
// window, so a slow reader exerts end-to-end flow control — the mechanism
// the paper's benchmark leans on ("letting TCP's flow control mechanisms
// regulate the speed at which data is delivered") — and draining reopens
// it under RFC 1122 §4.2.3.3 receiver silly-window avoidance: the window
// update is not sent until it is worth sending.

// recvState lives on the Conn rather than the TCB because it belongs to
// the user interface, not the protocol machine.
type recvState struct {
	buf      basis.Deque[[]byte]
	buffered int
	// charged is how many buffered bytes are currently charged to the
	// endpoint memory account. It can trail buffered: deleteTCB returns
	// the charge while leaving delivered data readable.
	charged int
	eof     bool // peer FIN consumed, buffer exhaustion means EOF
}

// bufferData stores sg's in-order text for Read and closes the window
// accordingly. Called by the executor when no Data upcall is installed.
// The buffer holds the text by reference until Read copies it out — the
// receive path's one copy — so it keeps sg's frame, and leaves it to the
// collector afterwards: nothing here releases it.
func (c *Conn) bufferData(sg *segment) {
	sg.keep()
	data := sg.data
	c.recv.buf.PushBack(data)
	c.recv.buffered += len(data)
	c.recv.charged += len(data)
	c.t.memCharge(len(data))
	c.updateRcvWnd()
	c.readCond.Broadcast()
}

// updateRcvWnd recomputes the advertised window from buffer occupancy.
func (c *Conn) updateRcvWnd() {
	c.tcb.rcvWnd = sat32(c.t.cfg.InitialWindow - c.recv.buffered)
}

// Read copies buffered in-order data into dst, blocking the calling
// coroutine until at least one byte is available, the peer closes
// (io.EOF), or the connection fails. Draining the buffer reopens the
// advertised window; when the opening crosses the silly-window threshold
// (one MSS or half the buffer, whichever is less) a window update is
// volunteered so a stalled sender resumes promptly.
func (c *Conn) Read(dst []byte) (int, error) {
	if c.handler.Data != nil {
		return 0, errSegment("Read requires a connection without a Data handler")
	}
	start := c.t.observeUserStart()
	for c.recv.buffered == 0 {
		if c.termErr != nil {
			return 0, c.termErr
		}
		if c.recv.eof {
			return 0, io.EOF
		}
		c.readCond.Wait()
	}
	n := 0
	for n < len(dst) {
		front, ok := c.recv.buf.Front()
		if !ok {
			break
		}
		k := copy(dst[n:], front)
		n += k
		if k == len(front) {
			c.recv.buf.PopFront()
		} else {
			c.recv.buf.PopFront()
			c.recv.buf.PushFront(front[k:])
		}
	}
	e := c.enter(enterRead, n)
	c.finishRead(n)
	c.leave(e)
	c.t.observeUserDone(enterRead, start)
	return n, nil
}

// finishRead settles the accounting for n bytes drained from the receive
// buffer: memory-account release, window recomputation, and — when the
// reopening crosses the silly-window threshold — queueing a volunteered
// window update (the caller drains the queue). Split from Read so replay
// can re-execute a journaled read against a reconstructed buffer.
func (c *Conn) finishRead(n int) {
	c.recv.buffered -= n
	if rel := min(n, c.recv.charged); rel > 0 {
		c.recv.charged -= rel
		c.t.memCharge(-rel)
	}
	c.updateRcvWnd()

	// Receiver SWS avoidance: volunteer a window update only once the
	// window has reopened substantially past what the peer last heard.
	threshold := min(c.tcb.mss32(), sat32(c.t.cfg.InitialWindow/2))
	if c.tcb.rcvWnd >= c.tcb.lastAdvWnd+threshold {
		c.tcb.ackNow = true
		c.enqueue(action{kind: actMaybeSend})
	}
}

// ReadFull reads exactly len(dst) bytes unless EOF or an error cuts the
// stream short, returning the bytes read.
func (c *Conn) ReadFull(dst []byte) (int, error) {
	total := 0
	for total < len(dst) {
		n, err := c.Read(dst[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Buffered reports bytes received in order but not yet Read.
func (c *Conn) Buffered() int { return c.recv.buffered }
