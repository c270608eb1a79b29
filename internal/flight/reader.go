package flight

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// maxRecordLen bounds a single record's JSON body. Anything larger is
// corruption, not data: the biggest legitimate record is a hdr with the
// resolved Config, well under a kilobyte.
const maxRecordLen = 1 << 20

// Record is the decoded form of any journal record; which fields are
// meaningful depends on Kind. One fat struct keeps decoding a single
// json.Unmarshal and lets tools switch on Kind without type assertions.
type Record struct {
	Kind string `json:"k"`
	Seq  uint64 `json:"q"`  // open/uop/enq: global sequence number
	At   int64  `json:"at"` // virtual timestamp, ns
	Conn string `json:"c"`  // connection name (connKey.String())

	// hdr
	Host string          `json:"host"`
	MTU  int             `json:"mtu"`
	Cfg  json.RawMessage `json:"cfg"`

	// open
	Origin string `json:"o"`    // "active" | "passive"
	Pull   bool   `json:"pull"` // pull-model handler (no Data callback)
	Hop    bool   `json:"hop"`  // joined a listener's half-open list
	RAddr  string `json:"ra"`
	RPort  uint16 `json:"rp"`
	LPort  uint16 `json:"lp"`

	// uop
	Op string `json:"op"` // write | read | close | abort | wurg
	N  int    `json:"n"`

	// enq
	Action string `json:"a"`
	Args   string `json:"args"`

	// cause (open/uop/enq)
	CK    string `json:"ck"` // "" | act | user | pkt | tmr
	Cz    uint64 `json:"cz"` // act/user: seq of the causing record
	PSeq  uint32 `json:"ps"` // pkt digest...
	PAck  uint32 `json:"pa"`
	PFlag uint8  `json:"pf"`
	PWnd  uint16 `json:"pw"`
	PUp   uint16 `json:"pu"`
	PMSS  uint16 `json:"pm"`
	PLen  int    `json:"pl"`
	Timer int    `json:"tw"` // tmr: which timer expired

	// beg/end
	EqSeq uint64              `json:"eq"` // seq of the enq record performed
	Delta map[string][2]int64 `json:"d"`  // end: changed fields, pre/post

	// seal (see internal/flight/seal): closes one batch of the sealed
	// hash chain.
	Batch  uint64 `json:"b"`  // batch number, 0-based
	BatchN int    `json:"ln"` // records in the batch
	SealH  string `json:"sh"` // the chain hash after it, lowercase hex SHA-256

	// flt: one scripted fault-plane transition (internal/fault) applied
	// to the wire beneath this host, for divergence attribution.
	FaultKind   string `json:"fk"` // transition kind, e.g. "partition"
	FaultDetail string `json:"fd"` // rendered transition arguments

	// ev: one protocol point event; the kind fixes what the operands
	// mean (internal/tcp owns the vocabulary).
	EvKind string `json:"ek"`
	EvA    int64  `json:"ea"`
	EvB    int64  `json:"eb"`
}

// Corruption locates a framing or decoding failure precisely: the byte
// offset of the offending record's frame and its record index.
type Corruption struct {
	Offset int64
	Index  int
	Err    error
}

func (c *Corruption) Error() string {
	return fmt.Sprintf("record %d at offset %d: %v", c.Index, c.Offset, c.Err)
}

func (c *Corruption) Unwrap() error { return c.Err }

// Scanner reads length-prefixed journal records one at a time, tracking
// byte offsets so corruption can be located, and exposing each record's
// raw JSON body for hashing (see internal/flight/seal).
type Scanner struct {
	br   *bufio.Reader
	off  int64 // offset of the NEXT record's frame
	last int64 // offset of the last returned record's frame
	idx  int   // records returned so far
	body []byte
	rec  Record
}

// NewScanner returns a scanner over one journal stream.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{br: bufio.NewReaderSize(r, 64<<10)}
}

// Next decodes the next record. It returns io.EOF at a clean end of
// stream; any other error is a *Corruption locating the failure. The
// returned pointer and Body are valid until the next call.
func (s *Scanner) Next() (*Record, error) {
	start := s.off
	body, n, err := s.readFrame()
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, &Corruption{Offset: start, Index: s.idx, Err: err}
	}
	s.off += int64(n)
	s.rec = Record{}
	if err := json.Unmarshal(body, &s.rec); err != nil {
		return nil, &Corruption{Offset: start, Index: s.idx, Err: fmt.Errorf("bad record JSON: %w", err)}
	}
	if s.rec.Kind == "" {
		return nil, &Corruption{Offset: start, Index: s.idx, Err: fmt.Errorf("record missing kind")}
	}
	s.last = start
	s.idx++
	s.body = body
	return &s.rec, nil
}

// Body returns the raw JSON body of the record Next last returned. The
// slice is only valid until the next call to Next.
func (s *Scanner) Body() []byte { return s.body }

// Offset returns the byte offset of the frame of the record Next last
// returned.
func (s *Scanner) Offset() int64 { return s.last }

// Index returns how many records have been returned so far.
func (s *Scanner) Index() int { return s.idx }

// readFrame reads one length-prefixed frame: ASCII decimal length, a
// space, the JSON body, a newline. It returns the body and the total
// frame size in bytes.
func (s *Scanner) readFrame() ([]byte, int, error) {
	n := 0
	digits := 0
	for {
		b, err := s.br.ReadByte()
		if err != nil {
			if err == io.EOF && digits == 0 {
				return nil, 0, io.EOF
			}
			return nil, 0, fmt.Errorf("truncated length prefix: %w", err)
		}
		if b == ' ' {
			if digits == 0 {
				return nil, 0, fmt.Errorf("empty length prefix")
			}
			break
		}
		if b < '0' || b > '9' {
			return nil, 0, fmt.Errorf("bad length prefix byte %q", b)
		}
		n = n*10 + int(b-'0')
		digits++
		if n > maxRecordLen {
			return nil, 0, fmt.Errorf("record length %d exceeds limit", n)
		}
	}
	if cap(s.body) < n+1 {
		s.body = make([]byte, n+1)
	}
	body := s.body[:n+1]
	if _, err := io.ReadFull(s.br, body); err != nil {
		return nil, 0, fmt.Errorf("truncated record body (want %d bytes): %w", n, err)
	}
	if body[n] != '\n' {
		return nil, 0, fmt.Errorf("record not newline-terminated (got %q)", body[n])
	}
	return body[:n], digits + 1 + n + 1, nil
}

// ReadAll decodes a whole journal. Any framing or JSON error is fatal —
// a journal is either intact or it is evidence, and a truncated tail is
// reported as a *Corruption locating exactly where the stream broke.
func ReadAll(r io.Reader) ([]Record, error) {
	sc := NewScanner(r)
	var recs []Record
	for {
		rec, err := sc.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, *rec)
	}
}
