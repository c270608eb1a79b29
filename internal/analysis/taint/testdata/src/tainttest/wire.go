// Package tainttest seeds one of each taint violation alongside the
// sanitized idioms that must stay silent.
package tainttest

import "errors"

// frame is the wire type: unmarshalFrame's first result marks it.
type frame struct {
	kind  byte
	off   uint16
	count uint16
	size  uint32
	data  []byte
}

// unmarshalFrame decodes a frame. Its body is the validation layer and
// is exempt from sink checks.
func unmarshalFrame(b []byte) (*frame, error) {
	if len(b) < 9 {
		return nil, errors.New("short frame")
	}
	f := &frame{
		kind:  b[0],
		off:   uint16(b[1])<<8 | uint16(b[2]),
		count: uint16(b[3])<<8 | uint16(b[4]),
		size:  uint32(b[5])<<24 | uint32(b[6])<<16 | uint32(b[7])<<8 | uint32(b[8]),
		data:  b[9:],
	}
	return f, nil
}

// record is a wire type marked the other way: unmarshal is a method that
// fills its receiver, so one record can be reused for every arrival.
type record struct {
	n    uint32
	data []byte
}

func (r *record) unmarshal(b []byte) error {
	if len(b) < 4 {
		return errors.New("short record")
	}
	*r = record{n: uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), data: b[4:]}
	return nil
}

// okSize validates a claimed size against the configured budget.
//
//foxvet:sanitizes
func okSize(n uint32) bool { return n <= 1<<16 }

var ledger int

func memCharge(n int) { ledger += n }
