package seal

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"

	"repro/internal/flight"
)

// Report summarizes a journal whose chain verified.
type Report struct {
	Batches uint64 `json:"batches"`
	Records uint64 `json:"records"` // journal records, seals not counted
	Head    string `json:"head"`    // the last seal's sh; "" for an empty journal
}

// VerifyError names the batch that failed and both ends of it: the
// first record under the failing seal and the seal itself. The altered
// bytes lie in a record from Offset to the end of the seal's frame. For
// an unsealed tail the "seal" is the journal's end: SealOffset is its
// length and SealIndex its record count.
type VerifyError struct {
	Batch      uint64
	Offset     int64 // first record of the batch
	Index      int
	SealOffset int64 // the batch's seal record
	SealIndex  int
	Reason     string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("seal verification failed: batch %d, records %d..%d at offsets %d..%d: %s",
		e.Batch, e.Index, e.SealIndex, e.Offset, e.SealOffset, e.Reason)
}

// Verify reads a sealed journal and recomputes its chain. It accepts
// exactly what a Writer produces: every seal record byte-identical to
// the one the Writer would have written, no batch longer than
// BatchSize, no empty batch, no record after the last seal. A framing
// or JSON failure comes back as *flight.Corruption, a chain failure as
// *VerifyError; both locate the damage.
func Verify(r io.Reader) (*Report, error) {
	sc := flight.NewScanner(r)
	c := newChain()
	rep := &Report{}
	var (
		first    int64 // offset and index of the open batch's first record
		firstIdx int
		end      int64 // offset just past the last record read
	)
	fail := func(batch uint64, off int64, idx int, format string, args ...any) (*Report, error) {
		return rep, &VerifyError{Batch: batch, Offset: first, Index: firstIdx,
			SealOffset: off, SealIndex: idx, Reason: fmt.Sprintf(format, args...)}
	}
	for {
		rec, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return rep, err
		}
		off, idx, body := sc.Offset(), sc.Index()-1, sc.Body()
		if c.n == 0 {
			first, firstIdx = off, idx
		}
		if rec.Kind != flight.KindSeal {
			if c.n == BatchSize {
				return fail(c.batch, off, idx, "more than %d records without a seal", BatchSize)
			}
			// Hash the frame as the Writer saw it.
			c.buf = strconv.AppendInt(c.buf[:0], int64(len(body)), 10)
			c.buf = append(c.buf, ' ')
			c.buf = append(c.buf, body...)
			c.buf = append(c.buf, '\n')
			c.h.Write(c.buf)
			c.n++
			end = off + int64(len(c.buf))
			rep.Records++
			continue
		}
		batch, n := c.batch, c.n
		if n == 0 {
			return fail(batch, off, idx, "seal covers no records")
		}
		if !bytes.Equal(c.seal(), body) {
			return fail(batch, off, idx, "its %d records do not match the seal: a record or the seal was altered", n)
		}
		rep.Batches++
	}
	if c.n > 0 {
		return fail(c.batch, end, sc.Index(), "unsealed tail: %d records after the last seal (missing Sync before shutdown?)", c.n)
	}
	if rep.Batches > 0 {
		rep.Head = hex.EncodeToString(c.head[:])
	}
	return rep, nil
}
