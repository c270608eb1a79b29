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
// expressed by starting a timer or queueing another action. kind is the
// constructor's row in the one table of action names.
type action interface {
	kind() telemetry.ActKind
}

// actProcessData carries an internalized incoming segment to the Receive
// module (the paper's Process_Data).
type actProcessData struct {
	seg *segment
}

// actSendSegment carries a fully-formed outgoing segment to the Action
// module for externalization (the paper's Send_Segment). A data segment
// brings the packet the Send module copied its payload into — the single
// copy of the send path — on its first transmission and on every later
// one; a payload-less segment goes out through the endpoint's scratch
// packet. Enqueue it with Conn.queueSend, which counts it on the segment.
type actSendSegment struct {
	seg *segment
}

// actUserData delivers in-sequence data to the user (the paper's
// User_Data).
type actUserData struct {
	data []byte
}

// actUserError delivers an error (reset, timeout) to the user.
type actUserError struct {
	err error
}

// actSetTimer starts one of the connection's timers (Set_Timer).
type actSetTimer struct {
	which timerID
	d     sim.Duration
}

// actClearTimer cancels one of the connection's timers (Clear_Timer).
type actClearTimer struct {
	which timerID
}

// actTimerExpired is enqueued by a timer's handler thread; the State and
// Resend modules act on it synchronously (Timer_Expiration).
type actTimerExpired struct {
	which timerID
}

// actMaybeSend asks the Send module to segmentize whatever the window
// now permits.
type actMaybeSend struct{}

// actCompleteOpen unblocks a user waiting in Open.
type actCompleteOpen struct {
	err error
}

// actCompleteClose unblocks a user waiting in Close.
type actCompleteClose struct {
	err error
}

// actPeerClosed reports the peer's FIN to the user.
type actPeerClosed struct{}

// actDeleteTCB removes the connection from the endpoint's demux table.
type actDeleteTCB struct{}
