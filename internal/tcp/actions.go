package tcp

import (
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// action is the paper's tcp_action datatype (Fig. 8): everything that can
// appear on a connection's to_do queue. "Executing an operation computes
// the corresponding actions and queues them onto the connection's to_do
// queue"; the executor in conn.go then performs them one at a time.
// Actions are designed not to wait; anything that must happen later is
// expressed by starting a timer or queueing another action.
//
// The datatype is one flat tagged value: kind is the constructor — its
// row in telemetry.ActKind, the one table of Fig. 8 names — and each
// constructor reads only its own operands, listed below. A value, not an
// interface, so that queueing an action never allocates.
//
//	Process_Data      seg    an internalized incoming segment, for the
//	                         Receive module
//	Send_Segment      seg    a fully-formed outgoing segment, for the
//	                         Action module to externalize; a data segment
//	                         brings the packet the Send module copied its
//	                         payload into — the single copy of the send
//	                         path — on its first transmission and on every
//	                         later one, a payload-less segment goes out
//	                         through the endpoint's scratch packet. Enqueue
//	                         it with Conn.queueSend, which counts it on the
//	                         segment.
//	User_Data         seg    a segment whose text, seg.data, is next in
//	                         sequence, for the user
//	User_Error        err    a reset or timeout, for the user
//	Set_Timer         which, d
//	Clear_Timer       which
//	Timer_Expiration  which  enqueued by the timer's expiration; the State
//	                         and Resend modules act on it synchronously
//	Maybe_Send               ask the Send module to segmentize whatever the
//	                         window now permits
//	Complete_Open     err    unblock a user waiting in Open
//	Complete_Close    err    unblock a user waiting in Close
//	Peer_Closed              report the peer's FIN to the user
//	Delete_TCB               remove the connection from the demux table
type action struct {
	kind  telemetry.ActKind
	which timerID
	d     sim.Duration
	seg   *segment
	err   error
}

// The constructors, under the names the modules use.
const (
	actProcessData   = telemetry.ActProcessData
	actSendSegment   = telemetry.ActSendSegment
	actUserData      = telemetry.ActUserData
	actUserError     = telemetry.ActUserError
	actSetTimer      = telemetry.ActSetTimer
	actClearTimer    = telemetry.ActClearTimer
	actTimerExpired  = telemetry.ActTimerExpired
	actMaybeSend     = telemetry.ActMaybeSend
	actCompleteOpen  = telemetry.ActCompleteOpen
	actCompleteClose = telemetry.ActCompleteClose
	actPeerClosed    = telemetry.ActPeerClosed
	actDeleteTCB     = telemetry.ActDeleteTCB
)
