package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/basis"
	"repro/internal/sim"
)

func TestSelfTimesOnHandBuiltTree(t *testing.T) {
	// app.txn [0,100], parked for 30 while innermost
	//   tcp.write [10,50], parked for 10
	//     ip.lower_tx [20,30]
	//   tcp.close [60,70]
	// tcp.rx [35,45] on another coroutine, a root
	spans := []span{
		{kind: spTxn, parent: -1, start: 0, end: 100, away: 30},
		{kind: spWrite, parent: 0, start: 10, end: 50, away: 10},
		{kind: spLowerTx, parent: 1, start: 20, end: 30},
		{kind: spRx, parent: -1, thread: 1, start: 35, end: 45},
		{kind: spClose, parent: 0, start: 60, end: 70},
	}
	want := []int64{100 - 30 - 40 - 10, 40 - 10 - 10, 10, 10, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spanNames[spans[i].kind], got[i], want[i])
		}
	}
}

func TestTracerChargesParkedTimeAsAway(t *testing.T) {
	const busy = 2 * time.Millisecond
	var spans []span
	s := newScheduler()
	s.Run(func() {
		tr := newTracer(s, 16)
		wake := sim.NewCond(s)
		done := false
		s.Fork("parker", func() {
			outer := tr.begin(spTxn, 5)
			inner := tr.begin(spWrite, -1)
			wake.Wait() // parked: the main coroutine burns wall time meanwhile
			tr.end(inner)
			tr.end(outer)
			done = true
		})
		s.Yield()
		for t0 := time.Now(); time.Since(t0) < busy; {
		}
		wake.Signal()
		for !done {
			s.Yield()
		}
		spans = tr.finished()
	})
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	txn, write := spans[0], spans[1]
	if write.parent != 0 || write.txn != 5 {
		t.Errorf("write span parent %d txn %d, want parent 0 and the inherited txn 5", write.parent, write.txn)
	}
	if write.away < int64(busy) {
		t.Errorf("write.away = %v, want at least the %v it was parked", time.Duration(write.away), busy)
	}
	self := selfTimes(spans)
	if dur := write.end - write.start; self[1] > dur-int64(busy) {
		t.Errorf("write self %v of duration %v still holds the parked time", time.Duration(self[1]), time.Duration(dur))
	}
	if txn.away != 0 {
		t.Errorf("txn.away = %d: away belongs to the innermost span only", txn.away)
	}
}

func TestFinishedDropsOpenSpansAndRemapsParents(t *testing.T) {
	tr := &tracer{spans: []span{
		{kind: spTxn, parent: -1, start: 1},          // never ended
		{kind: spWrite, parent: 0, start: 2, end: 3}, // its parent is gone
		{kind: spRx, parent: -1, start: 4, end: 9},
		{kind: spUpcall, parent: 2, start: 5, end: 6},
	}}
	got := tr.finished()
	if len(got) != 3 {
		t.Fatalf("kept %d spans, want 3", len(got))
	}
	if got[0].parent != -1 || got[1].parent != -1 || got[2].parent != 1 {
		t.Errorf("parents = %d %d %d, want -1 -1 1", got[0].parent, got[1].parent, got[2].parent)
	}
}

// segment returns a packet that starts like a TCP header with the given
// ports.
func segment(src, dst uint16) *basis.Packet {
	return basis.NewPacket(0, 0, []byte{byte(src >> 8), byte(src), byte(dst >> 8), byte(dst)})
}

func TestPacketSpansFindTheirTransactionByPort(t *testing.T) {
	var spans []span
	s := newScheduler()
	s.Run(func() {
		tr := newTracer(s, 16)
		txn := tr.begin(spTxn, 7)
		tr.end(tr.beginPkt(spLowerTx, segment(50000, serverPort))) // a client send binds its port
		tr.end(txn)
		s.Fork("device", func() {
			tr.end(tr.beginPkt(spRx, segment(serverPort, 50000))) // the reply, seen on another coroutine
			tr.end(tr.beginPkt(spRx, segment(serverPort, 50001))) // a port nobody bound
		})
		s.Yield()
		spans = tr.finished()
	})
	if len(spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(spans))
	}
	for i, want := range []int32{7, 7, 7, -1} {
		if spans[i].txn != want {
			t.Errorf("span %d (%s) txn = %d, want %d", i, spanNames[spans[i].kind], spans[i].txn, want)
		}
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	spans := []span{{kind: spTxn, parent: -1, txn: 3, start: 1000, end: 5000}, {kind: spWrite, parent: 0, txn: 3, start: 2000, end: 3000, away: 500}}
	if err := writeChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Name != "tcp.write" || doc.TraceEvents[1].Dur != 1 {
		t.Errorf("events = %+v", doc.TraceEvents)
	}
}
