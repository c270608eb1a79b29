package tcp

// This file implements the paper's §4 fast path: "fast-path receive and
// send routines which handle the normal cases quickly, and defer to the
// full code for the less common cases." The receive side is Van
// Jacobson's header prediction: in ESTABLISHED, a segment with no
// surprises is either the next pure ACK or the next in-order data
// segment, and both can skip the full DAG.

// fastPathIn tries the predicted cases; it reports false to defer to the
// full Receive module.
//
//foxvet:hotpath
func (c *Conn) fastPathIn(sg *segment) bool {
	tcb := c.tcb
	// Predictions: nothing but ACK (and maybe PSH), the exact next
	// sequence number, no window change, nothing urgent.
	if sg.flags&(flagSYN|flagFIN|flagRST|flagURG) != 0 ||
		!sg.has(flagACK) ||
		sg.seq != tcb.rcvNxt ||
		uint32(sg.wnd) != tcb.sndWnd {
		return false
	}

	if len(sg.data) == 0 {
		// Pure ACK for new data, with nothing retransmitted pending.
		if seqGT(sg.ack, tcb.sndUna) && seqLEQ(sg.ack, tcb.sndNxt) {
			c.ackAdvance(sg.ack)
			return true
		}
		return false
	}

	// In-order data, pure duplicate ACK field, no reassembly pending,
	// and it fits entirely inside the receive window.
	if sg.ack == tcb.sndUna &&
		len(tcb.outOfOrder) == 0 &&
		uint32(len(sg.data)) <= tcb.rcvWnd {
		c.deliver(sg)
		tcb.unackedSegs++
		if tcb.unackedSegs >= 2 || !c.t.cfg.delayedAcks() {
			tcb.ackNow = true
		} else {
			tcb.ackPending = true
		}
		c.enqueue(action{kind: actMaybeSend})
		return true
	}
	return false
}
