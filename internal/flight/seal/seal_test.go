package seal

import (
	"bytes"
	"errors"
	"io"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/flight"
)

// journal writes a header and n enqueue/beg/end triples: 1+3n records.
func journal(w io.Writer, n int) *flight.Recorder {
	r := flight.NewRecorder(w)
	r.Hdr("host1", 1500, []byte(`{"iw":4096}`))
	conn := "10.0.0.2:80<->:49152"
	var delta []byte
	delta = flight.AppendDelta(delta, "snd_una", 100000, 100512)
	delta = flight.AppendDelta(delta, "cwnd", 4096, 4632)
	for i := 0; i < n; i++ {
		q := r.Enqueue(int64(i), conn, "Process_Data", []byte("seq=1 flags=16 len=512"))
		r.Beg(int64(i), conn, q)
		r.End(conn, q, delta)
	}
	return r
}

// sealed returns a synced sealed journal of 1+3n records.
func sealed(t testing.TB, n int) []byte {
	var buf bytes.Buffer
	if err := journal(NewWriter(&buf), n).Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	return buf.Bytes()
}

// frameStarts returns the offset of every frame in an intact journal.
func frameStarts(t testing.TB, data []byte) []int64 {
	sc := flight.NewScanner(bytes.NewReader(data))
	var out []int64
	for {
		_, err := sc.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("pristine journal: %v", err)
		}
		out = append(out, sc.Offset())
	}
}

// locates reports whether err names the frame holding byte pos: a
// *flight.Corruption at that frame, or a *VerifyError whose batch spans it.
func locates(err error, starts []int64, pos int64) bool {
	at := starts[sort.Search(len(starts), func(i int) bool { return starts[i] > pos })-1]
	var ve *VerifyError
	var co *flight.Corruption
	switch {
	case errors.As(err, &ve):
		return ve.Offset <= at && at <= ve.SealOffset
	case errors.As(err, &co):
		return co.Offset == at
	}
	return false
}

func TestSealChainRoundTrip(t *testing.T) {
	var buf, plain bytes.Buffer
	w := NewWriter(&buf)
	if err := journal(w, 100).Sync(); err != nil { // 301 records
		t.Fatalf("Sync: %v", err)
	}
	journal(&plain, 100)
	rep, err := Verify(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Records != 301 || rep.Batches != 2 || len(rep.Head) != 64 { // 256 + a synced 45
		t.Errorf("report %+v, want 301 records in 2 batches", rep)
	}
	mib := w.MIB()
	if mib.RecordsSealed.Load() != 301 || mib.BatchesSealed.Load() != 2 || mib.SyncSeals.Load() != 1 {
		t.Errorf("MIB: records %d, batches %d, sync seals %d",
			mib.RecordsSealed.Load(), mib.BatchesSealed.Load(), mib.SyncSeals.Load())
	}
	// The seal records decode through the plain flight reader, and
	// without them the journal is byte-for-byte the unsealed one.
	sc := flight.NewScanner(bytes.NewReader(buf.Bytes()))
	var rest bytes.Buffer
	var lens []int
	for {
		rec, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Kind == flight.KindSeal {
			lens = append(lens, rec.BatchN)
			if rec.Batch != uint64(len(lens)-1) || len(rec.SealH) != 64 {
				t.Errorf("bad seal record: %+v", rec)
			}
			continue
		}
		rest.WriteString(strconv.Itoa(len(sc.Body())) + " ")
		rest.Write(sc.Body())
		rest.WriteByte('\n')
	}
	if len(lens) != 2 || lens[0] != BatchSize || lens[1] != 45 {
		t.Errorf("batch lengths %v, want [256 45]", lens)
	}
	if !bytes.Equal(rest.Bytes(), plain.Bytes()) {
		t.Error("sealed journal minus its seals differs from the unsealed journal")
	}
}

// Any flipped bit anywhere fails verification, and the error names the
// frame or the batch that holds it.
func TestTamperDetectedInEveryBatch(t *testing.T) {
	pristine := sealed(t, 100)
	starts := frameStarts(t, pristine)
	for pos := 5; pos < len(pristine); pos += 97 {
		data := append([]byte(nil), pristine...)
		data[pos] ^= 0x10
		_, err := Verify(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("bit flip at %d not detected", pos)
		}
		if !locates(err, starts, int64(pos)) {
			t.Errorf("bit flip at %d reported elsewhere: %v", pos, err)
		}
	}
}

// A digit flip that keeps the framing and the JSON valid is caught by
// the chain, and the error spans the altered record.
func TestSemanticTamperCaughtByChain(t *testing.T) {
	pristine := sealed(t, 8)
	data := append([]byte(nil), pristine...)
	i := bytes.Index(data, []byte(`"at":3`))
	if i < 0 {
		t.Fatal("marker not found")
	}
	data[i+len(`"at":`)] = '7' // same byte count: framing stays intact
	_, err := Verify(bytes.NewReader(data))
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("want VerifyError, got %v", err)
	}
	if !strings.Contains(ve.Reason, "do not match") || !locates(err, frameStarts(t, pristine), int64(i)) {
		t.Errorf("got %v", ve)
	}
}

// syncLog records what reached it and when it was synced.
type syncLog struct {
	bytes.Buffer
	synced int // buffer length at the last Sync
}

func (s *syncLog) Sync() error { s.synced = s.Len(); return nil }

// Sync seals the partial batch before it syncs the writer beneath, so
// what reaches stable storage always verifies.
func TestSyncDurability(t *testing.T) {
	var sink syncLog
	r := journal(NewWriter(&sink), 5)
	if _, err := Verify(bytes.NewReader(sink.Bytes())); err == nil {
		t.Fatal("a journal with no seal yet verified")
	}
	if err := r.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if sink.synced != sink.Len() {
		t.Fatalf("synced at %d of %d bytes: the seal came after the sync", sink.synced, sink.Len())
	}
	rep, err := Verify(bytes.NewReader(sink.Bytes()))
	if err != nil || rep.Records != 16 || rep.Batches != 1 {
		t.Fatalf("synced journal: %+v, %v", rep, err)
	}
}

// A journal cut after its last seal fails strict verification with an
// actionable message that spans the tail.
func TestUnsealedTailRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	r := journal(w, 90) // 271 records: one full batch, 15 unsealed
	_, err := Verify(bytes.NewReader(buf.Bytes()))
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("want VerifyError for unsealed tail, got %v", err)
	}
	if !strings.Contains(ve.Reason, "unsealed tail") || ve.Batch != 1 ||
		ve.Index != BatchSize+1 || ve.SealIndex != 272 || ve.SealOffset != int64(buf.Len()) {
		t.Errorf("got %+v", ve)
	}
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("after Sync: %v", err)
	}
}

// The steady-state emit path through the Writer — including sealing a
// full batch — must not allocate.
func TestSealedEmitNoAllocs(t *testing.T) {
	w := NewWriter(io.Discard)
	r := flight.NewRecorder(w)
	args := []byte("seq=12345 flags=24 len=512 rexmits=0")
	var delta []byte
	delta = flight.AppendDelta(delta, "snd_nxt", 100000, 100512)
	delta = flight.AppendDelta(delta, "cwnd", 4096, 4632)
	conn := "10.0.0.2:80<->:49152"
	emit := func() {
		q := r.Enqueue(12345, conn, "Process_Data", args)
		r.Beg(12345, conn, q)
		r.End(conn, q, delta)
		r.Enqueue(12345, conn, "Maybe_Send", nil)
	}
	for i := 0; i < BatchSize/4; i++ {
		emit() // warm: a batch sealed, buffers at working size
	}
	if n := testing.AllocsPerRun(200, emit); n > 0 { // 800 records, 3 seals
		t.Errorf("sealed emit path allocates %v times per 4 records", n)
	}
	if n := w.MIB().BatchesSealed.Load(); r.Err() != nil || n < 4 {
		t.Fatalf("recorder error %v, %d batches", r.Err(), n)
	}
}

// FuzzVerify: Verify never panics, fails only with a located error, and
// accepts only what a Writer writes — an accepted journal re-seals byte
// for byte from its records and the places it synced.
func FuzzVerify(f *testing.F) {
	var buf bytes.Buffer
	r := journal(NewWriter(&buf), 3)
	r.Sync()
	r.UserOp(7, "c", "close", 0)
	r.Sync()
	small := append([]byte(nil), buf.Bytes()...)
	full := sealed(f, 90)
	for _, seed := range [][]byte{small, full} {
		f.Add(seed)
		for _, pos := range []int{0, 3, len(seed) / 3, len(seed) / 2, len(seed) - 20, len(seed) - 1} {
			flipped := append([]byte(nil), seed...)
			flipped[pos] ^= 0x04
			f.Add(flipped)
			f.Add(seed[:pos])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := Verify(bytes.NewReader(data))
		if err != nil {
			switch e := err.(type) {
			case *VerifyError:
				if e.Offset > e.SealOffset || e.SealOffset > int64(len(data)) {
					t.Fatalf("range outside the input: %v", e)
				}
			case *flight.Corruption:
				if e.Offset > int64(len(data)) {
					t.Fatalf("offset outside the input: %v", e)
				}
			default:
				t.Fatalf("unlocated error %T: %v", err, err)
			}
			return
		}
		var out bytes.Buffer
		w := NewWriter(&out)
		sc := flight.NewScanner(bytes.NewReader(data))
		for {
			rec, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("accepted journal does not scan: %v", err)
			}
			if rec.Kind == flight.KindSeal {
				if rec.BatchN < BatchSize {
					w.Sync()
				}
				continue
			}
			body := sc.Body()
			w.Write([]byte(strconv.Itoa(len(body)) + " " + string(body) + "\n"))
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted journal (%+v) does not re-seal byte for byte", rep)
		}
	})
}
