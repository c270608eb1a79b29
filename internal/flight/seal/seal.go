// Package seal makes a flight journal tamper-evident with one SHA-256
// hash chain over record batches. Every BatchSize records, and at every
// Sync that leaves a partial batch, the Writer appends a seal record
//
//	{"k":"seal","b":<batch>,"ln":<records>,"sh":"<hex>"}
//	sh = SHA256(previous sh ‖ the batch's frames ‖ be64(batch) ‖ be64(records))
//
// with the previous sh all zeros before batch 0. Rewriting, dropping or
// reordering any byte of any record breaks the seal of its batch, and a
// journal cut after its last seal leaves an unsealed tail; Verify finds
// either and names the damaged batch's byte range.
//
// The seal layer is pure observation: it hashes and frames what the
// Recorder already emitted and never reaches back into the executor.
// The quasisync analyzer machine-checks that property for this package,
// exactly as it does for the record.go observer hooks.
package seal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"strconv"

	"repro/internal/flight"
	"repro/internal/stats"
)

// BatchSize is the number of records a full batch holds.
const BatchSize = 256

// chain is the running state both sides of the seal share: the hash of
// the open batch, seeded with the chain head.
type chain struct {
	h     hash.Hash
	head  [32]byte // the last seal's sh; zeros before the first
	batch uint64   // the open batch's number
	n     int      // records hashed into it
	buf   []byte   // scratch: the batch trailer, then the seal body
}

func newChain() *chain {
	c := &chain{h: sha256.New(), buf: make([]byte, 0, 128)}
	c.h.Write(c.head[:])
	return c
}

// seal closes the open batch: it hashes the batch number and record
// count after the frames, makes the result the chain head, opens the
// next batch, and returns the seal record's JSON body (valid until the
// next call).
//
//foxvet:hotpath
func (c *chain) seal() []byte {
	c.buf = binary.BigEndian.AppendUint64(c.buf[:0], c.batch)
	c.buf = binary.BigEndian.AppendUint64(c.buf, uint64(c.n))
	c.h.Write(c.buf)
	c.h.Sum(c.head[:0])

	c.buf = append(c.buf[:0], `{"k":"seal","b":`...)
	c.buf = strconv.AppendUint(c.buf, c.batch, 10)
	c.buf = append(c.buf, `,"ln":`...)
	c.buf = strconv.AppendInt(c.buf, int64(c.n), 10)
	c.buf = append(c.buf, `,"sh":"`...)
	c.buf = hex.AppendEncode(c.buf, c.head[:])
	c.buf = append(c.buf, `"}`...)

	c.batch++
	c.n = 0
	c.h.Reset()
	c.h.Write(c.head[:])
	return c.buf
}

// Writer is an io.Writer over an io.Writer: it copies the Recorder's
// length-prefixed frames through, feeds them to the open batch's hash,
// and appends a seal record after every BatchSize-th record. A record
// ends at its frame's newline (record bodies escape every control
// character), so a frame may arrive in several Writes. The buffers are
// the Writer's own and reused, so the steady state allocates nothing.
//
// Like the Recorder it serves, a Writer is not safe for concurrent use;
// it runs inside the simulation scheduler's handoff discipline.
type Writer struct {
	w     io.Writer
	c     *chain
	mib   stats.SealMIB
	frame []byte // seal frame under construction
	err   error
}

// NewWriter returns a Writer sealing the journal it passes on to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, c: newChain(), frame: make([]byte, 0, 160)}
}

// MIB returns the Writer's counters, for a host registry's "seal" group.
func (w *Writer) MIB() *stats.SealMIB { return &w.mib }

// Write passes journal frames through and seals every full batch. The
// first error sticks: the Writer drops everything after it.
//
//foxvet:hotpath
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	for rest := p; len(rest) > 0; {
		i := bytes.IndexByte(rest, '\n') + 1
		if i == 0 {
			i = len(rest)
		}
		chunk := rest[:i]
		rest = rest[i:]
		if _, w.err = w.w.Write(chunk); w.err != nil {
			return 0, w.err
		}
		w.c.h.Write(chunk)
		if chunk[len(chunk)-1] != '\n' {
			continue
		}
		w.c.n++
		w.mib.RecordsSealed.Inc()
		if w.c.n == BatchSize {
			if err := w.seal(); err != nil {
				return 0, err
			}
		}
	}
	return len(p), nil
}

// Sync is the Recorder's durability seam: it seals the partial batch,
// so the tail of a run is covered by the chain, and then syncs the
// underlying writer if it is a flight.Syncer. Call it at shutdown;
// a journal that skips it ends in an unsealed tail.
func (w *Writer) Sync() error {
	if w.err != nil {
		return w.err
	}
	if w.c.n > 0 {
		if err := w.seal(); err != nil {
			return err
		}
		w.mib.SyncSeals.Inc()
	}
	if s, ok := w.w.(flight.Syncer); ok {
		w.err = s.Sync()
	}
	return w.err
}

// seal closes the open batch and writes its seal record.
//
//foxvet:hotpath
func (w *Writer) seal() error {
	body := w.c.seal()
	w.frame = strconv.AppendInt(w.frame[:0], int64(len(body)), 10)
	w.frame = append(w.frame, ' ')
	w.frame = append(w.frame, body...)
	w.frame = append(w.frame, '\n')
	if _, w.err = w.w.Write(w.frame); w.err != nil {
		return w.err
	}
	w.mib.BatchesSealed.Inc()
	return nil
}
