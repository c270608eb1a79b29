package tainttest

// Seeded violations: each sink kind fires at least once.

func indexRaw(b []byte) byte {
	f, err := unmarshalFrame(b)
	if err != nil {
		return 0
	}
	return f.data[f.off] // want "slice index"
}

func sliceRaw(b []byte) []byte {
	f, err := unmarshalFrame(b)
	if err != nil {
		return nil
	}
	return f.data[:f.off] // want "slice bound"
}

func allocRaw(b []byte) []byte {
	f, err := unmarshalFrame(b)
	if err != nil {
		return nil
	}
	return make([]byte, f.size) // want "allocation size"
}

func loopRaw(b []byte) int {
	f, err := unmarshalFrame(b)
	if err != nil {
		return 0
	}
	sum := 0
	for i := 0; i < int(f.count); i++ { // want "loop bound"
		sum += i
	}
	return sum
}

func chargeRaw(b []byte) {
	f, err := unmarshalFrame(b)
	if err != nil {
		return
	}
	memCharge(int(f.size)) // want "memory-accounting charge"
}

// A struct an unmarshal method fills in place is as much the peer's as
// one an unmarshal function returns.
func allocFromReused(r *record, b []byte) []byte {
	if err := r.unmarshal(b); err != nil {
		return nil
	}
	return make([]byte, r.n) // want "allocation size"
}

// Taint propagates through locals, arithmetic, and conversions.
func propagated(f *frame, buf []byte) byte {
	n := int(f.off)
	m := n + 4
	return buf[m] // want "slice index"
}

// A helper fed wire data returns wire data.
func double(n uint16) int { return int(n) * 2 }

func throughCall(f *frame, buf []byte) byte {
	return buf[double(f.off)] // want "slice index"
}

// A comparison where both sides are attacker-chosen proves nothing.
func bothTainted(f *frame) []byte {
	if f.size > uint32(f.count) {
		return make([]byte, f.size) // want "allocation size"
	}
	return nil
}
