package flight

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// record a small journal exercising every record kind and cause kind.
func sampleJournal() *bytes.Buffer {
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	r.Hdr("host1", 1500, []byte(`{"initial_window":4096}`))
	op := r.UserOp(0, "10.0.0.2:80<->:49152", "open", 0)
	r.Begin(CauseUser, op)
	r.OpenConn(0, "10.0.0.2:80<->:49152", "active", "10.0.0.2", 80, 49152, true, false)
	enq1 := r.Enqueue(0, "10.0.0.2:80<->:49152", "Send_Segment", []byte("seq=1 flags=S"))
	r.EndCause()
	r.Beg(0, "10.0.0.2:80<->:49152", enq1)
	var d []byte
	d = AppendDelta(d, "snd_nxt", 1, 2)
	d = AppendDelta(d, "state", 0, 2)
	r.End("10.0.0.2:80<->:49152", enq1, d)
	r.BeginPkt(700, 2, 0x12, 65535, 0, 1460, 0)
	enq2 := r.Enqueue(10, "10.0.0.2:80<->:49152", "Process_Data", nil)
	r.EndCause()
	r.Begin(CauseAct, enq2)
	r.Enqueue(10, "10.0.0.2:80<->:49152", "Maybe_Send", nil)
	r.EndCause()
	r.Begin(CauseTimer, 0)
	r.Enqueue(20, "10.0.0.2:80<->:49152", "Timer_Expiration(rexmit)", nil)
	r.EndCause()
	return &buf
}

func TestRoundTrip(t *testing.T) {
	buf := sampleJournal()
	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(recs) != 9 {
		t.Fatalf("got %d records, want 9", len(recs))
	}
	if recs[0].Kind != KindHdr || recs[0].Host != "host1" || recs[0].MTU != 1500 {
		t.Errorf("bad hdr: %+v", recs[0])
	}
	if string(recs[0].Cfg) != `{"initial_window":4096}` {
		t.Errorf("bad cfg: %s", recs[0].Cfg)
	}
	if recs[1].Kind != KindUop || recs[1].Op != "open" || recs[1].Seq != 1 {
		t.Errorf("bad uop: %+v", recs[1])
	}
	if recs[2].Kind != KindOpen || recs[2].Origin != "active" || !recs[2].Pull || recs[2].Hop {
		t.Errorf("bad open: %+v", recs[2])
	}
	if recs[2].CK != CauseUser || recs[2].Cz != 1 {
		t.Errorf("open cause: %+v", recs[2])
	}
	if recs[3].Args != "seq=1 flags=S" {
		t.Errorf("enq args: %q", recs[3].Args)
	}
	if recs[4].Kind != KindBeg || recs[4].EqSeq != recs[3].Seq {
		t.Errorf("beg: %+v", recs[4])
	}
	end := recs[5]
	if end.Kind != KindEnd || end.Delta["snd_nxt"] != [2]int64{1, 2} || end.Delta["state"] != [2]int64{0, 2} {
		t.Errorf("end delta: %+v", end)
	}
	pkt := recs[6]
	if pkt.CK != CausePkt || pkt.PSeq != 700 || pkt.PAck != 2 || pkt.PFlag != 0x12 || pkt.PWnd != 65535 || pkt.PMSS != 1460 {
		t.Errorf("pkt cause: %+v", pkt)
	}
	if recs[7].CK != CauseAct || recs[7].Cz != pkt.Seq {
		t.Errorf("act cause: %+v", recs[7])
	}
	if recs[8].CK != CauseTimer || recs[8].Timer != 0 {
		t.Errorf("tmr cause: %+v", recs[8])
	}
}

func TestChain(t *testing.T) {
	buf := sampleJournal()
	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Maybe_Send (seq 5) <- Process_Data (seq 4) <- packet.
	chain, err := Chain(recs, 5)
	if err != nil {
		t.Fatalf("Chain: %v", err)
	}
	if len(chain) != 2 || chain[0].Seq != 4 || chain[1].Seq != 5 {
		t.Fatalf("chain: %+v", chain)
	}
	if chain[0].CK != CausePkt {
		t.Errorf("root should be packet-caused: %+v", chain[0])
	}
	if _, err := Chain(recs, 999); err == nil {
		t.Error("Chain of unknown seq should fail")
	}
	var dot bytes.Buffer
	if err := Dot(&dot, recs); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"digraph flight", "n4 -> n5", "p4 -> n4", "Maybe_Send"} {
		if !strings.Contains(dot.String(), want) {
			t.Errorf("dot output missing %q:\n%s", want, dot.String())
		}
	}
}

func TestEscaping(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	r.Enqueue(1, `we"ird\name`+"\x01", "User_Error", []byte(`err="boom"`))
	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if recs[0].Conn != `we"ird\name`+"\x01" {
		t.Errorf("conn round-trip: %q", recs[0].Conn)
	}
	if recs[0].Args != `err="boom"` {
		t.Errorf("args round-trip: %q", recs[0].Args)
	}
}

func TestCorruptionDetected(t *testing.T) {
	good := sampleJournal().Bytes()
	cases := map[string][]byte{
		"truncated tail":   good[:len(good)-5],
		"flipped byte":     append(append([]byte{}, good[:40]...), append([]byte{'x'}, good[41:]...)...),
		"bad length":       append([]byte("99999999999 "), good...),
		"missing newline":  bytes.Replace(good, []byte("\n"), []byte(" "), 1),
		"non-digit prefix": append([]byte("zz "), good...),
	}
	for name, data := range cases {
		if _, err := ReadAll(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

// A corrupted journal is reported with the exact frame offset and
// record index of the damage, not a bare error.
func TestCorruptionLocated(t *testing.T) {
	good := sampleJournal().Bytes()

	// Find the third record's frame offset by scanning the pristine
	// journal, then break that record's framing with a single bit flip
	// in its length prefix.
	sc := NewScanner(bytes.NewReader(good))
	var offsets []int64
	for {
		if _, err := sc.Next(); err != nil {
			break
		}
		offsets = append(offsets, sc.Offset())
	}
	if len(offsets) < 4 {
		t.Fatalf("sample journal too short: %d records", len(offsets))
	}
	target := offsets[2]
	bad := append([]byte(nil), good...)
	bad[target] ^= 0x40 // length digit -> non-digit: framing breaks here

	_, err := ReadAll(bytes.NewReader(bad))
	var c *Corruption
	if !errors.As(err, &c) {
		t.Fatalf("want *Corruption, got %v", err)
	}
	if c.Offset != target {
		t.Errorf("located offset %d, want %d", c.Offset, target)
	}
	if c.Index != 2 {
		t.Errorf("located record index %d, want 2", c.Index)
	}
	if !strings.Contains(c.Error(), "offset") {
		t.Errorf("error text should name the offset: %v", c)
	}

	// Records before the damage are still returned.
	recs, _ := ReadAll(bytes.NewReader(bad))
	if len(recs) != 2 {
		t.Errorf("got %d intact records before the damage, want 2", len(recs))
	}
}

// Sync forwards to writers that implement the Syncer seam and is a
// no-op for plain writers.
func TestSyncSeam(t *testing.T) {
	var plain bytes.Buffer
	r := NewRecorder(&plain)
	if err := r.Sync(); err != nil {
		t.Errorf("plain writer Sync: %v", err)
	}
	sw := &syncWriter{}
	r = NewRecorder(sw)
	r.Enqueue(0, "c", "Maybe_Send", nil)
	if err := r.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if sw.syncs != 1 {
		t.Errorf("syncs = %d, want 1", sw.syncs)
	}
	var nilRec *Recorder
	if err := nilRec.Sync(); err != nil {
		t.Errorf("nil recorder Sync: %v", err)
	}
}

type syncWriter struct {
	bytes.Buffer
	syncs int
}

func (s *syncWriter) Sync() error { s.syncs++; return nil }

func TestWriteErrorSticky(t *testing.T) {
	r := NewRecorder(failWriter{})
	r.Enqueue(0, "c", "Maybe_Send", nil)
	if r.Err() == nil {
		t.Fatal("write error not surfaced")
	}
	r.Enqueue(0, "c", "Maybe_Send", nil) // must not panic, stays failed
	if r.Err() == nil {
		t.Fatal("error not sticky")
	}
	var nilRec *Recorder
	if nilRec.Err() != nil {
		t.Fatal("nil recorder Err should be nil")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }

// The enabled steady-state emit path must not allocate: buffers are owned
// by the Recorder and reused. Warm up first so they reach working size.
func TestEmitNoAllocs(t *testing.T) {
	r := NewRecorder(io.Discard)
	args := []byte("seq=12345 flags=24 len=512 rexmits=0")
	var delta []byte
	delta = AppendDelta(delta, "snd_nxt", 100000, 100512)
	delta = AppendDelta(delta, "cwnd", 4096, 4632)
	conn := "10.0.0.2:80<->:49152"
	emit := func() {
		r.BeginPkt(1, 2, 0x10, 4096, 0, 0, 512)
		seq := r.Enqueue(12345, conn, "Process_Data", args)
		r.EndCause()
		r.Begin(CauseAct, seq)
		r.Enqueue(12345, conn, "Maybe_Send", nil)
		r.EndCause()
		r.Beg(12345, conn, seq)
		r.End(conn, seq, delta)
	}
	emit()
	if n := testing.AllocsPerRun(100, emit); n > 0 {
		t.Errorf("emit path allocates %v times per record batch", n)
	}
}

// FuzzScanner: whatever the bytes, the scanner never panics, and every
// failure is a *Corruption located inside the input.
func FuzzScanner(f *testing.F) {
	good := sampleJournal().Bytes()
	f.Add(good)
	for _, pos := range []int{0, 2, len(good) / 2, len(good) - 1} {
		f.Add(good[:pos])
		bad := append([]byte(nil), good...)
		bad[pos] ^= 0x40
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := NewScanner(bytes.NewReader(data))
		for {
			_, err := sc.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				c, ok := err.(*Corruption)
				if !ok {
					t.Fatalf("error %T is not a *Corruption: %v", err, err)
				}
				if c.Offset > int64(len(data)) {
					t.Fatalf("corruption at %d, past the %d-byte input", c.Offset, len(data))
				}
				return
			}
		}
	})
}
