package checksum

import (
	"testing"
	"testing/quick"
)

// refSum is an independent reference: big-endian 16-bit words summed into
// a wide accumulator, folded once at the end, odd byte padded with zero.
func refSum(initial uint16, data []byte) uint16 {
	sum := uint64(initial)
	for i := 0; i+2 <= len(data); i += 2 {
		sum += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if len(data)%2 == 1 {
		sum += uint64(data[len(data)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return uint16(sum)
}

func TestRFC1071Example(t *testing.T) {
	// The worked example from RFC 1071 §3: words 0001 f203 f4f5 f6f7.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	const want = 0xddf2
	for name, f := range map[string]func(uint16, []byte) uint16{
		"fig10": SumFig10, "wide": SumWide, "naive": SumNaive, "ref": refSum,
	} {
		if got := f(0, data); got != want {
			t.Errorf("%s: sum = %#04x, want %#04x", name, got, want)
		}
	}
	if got := Checksum(data); got != ^uint16(want) {
		t.Errorf("Checksum = %#04x, want %#04x", got, ^uint16(want))
	}
}

func TestEmptyInput(t *testing.T) {
	if SumFig10(0x1234, nil) != 0x1234 {
		t.Error("fig10 changed sum on empty input")
	}
	if SumWide(0x1234, nil) != 0x1234 {
		t.Error("wide changed sum on empty input")
	}
	if SumNaive(0x1234, nil) != 0x1234 {
		t.Error("naive changed sum on empty input")
	}
}

func TestOddLengths(t *testing.T) {
	for n := 0; n <= 9; n++ {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(0x11 * (i + 1))
		}
		want := refSum(0, data)
		if got := SumFig10(0, data); got != want {
			t.Errorf("fig10 len %d: %#04x want %#04x", n, got, want)
		}
		if got := SumWide(0, data); got != want {
			t.Errorf("wide len %d: %#04x want %#04x", n, got, want)
		}
		if got := SumNaive(0, data); got != want {
			t.Errorf("naive len %d: %#04x want %#04x", n, got, want)
		}
	}
}

func TestAllOnesInput(t *testing.T) {
	// An all-0xff buffer sums to 0xffff (the one's-complement -0).
	data := make([]byte, 1024)
	for i := range data {
		data[i] = 0xff
	}
	if got := SumFig10(0, data); got != 0xffff {
		t.Errorf("fig10 = %#04x", got)
	}
	if got := SumWide(0, data); got != 0xffff {
		t.Errorf("wide = %#04x", got)
	}
}

func TestFold(t *testing.T) {
	cases := map[uint32]uint16{
		0:          0,
		0xffff:     0xffff,
		0x10000:    1,
		0x1fffe:    0xffff,
		0xffffffff: 0xffff,
		0x12345678: 0x68ac + 0, // 0x1234+0x5678 = 0x68ac
		0x0001ffff: 1,          // 0xffff+1 = 0x10000 -> fold again -> 1
	}
	for in, want := range cases {
		if got := Fold(in); got != want {
			t.Errorf("Fold(%#x) = %#04x, want %#04x", in, got, want)
		}
	}
}

// Property: all three implementations agree with the reference for random
// data and random nonzero initial sums.
func TestPropertyImplementationsAgree(t *testing.T) {
	f := func(initial uint16, data []byte) bool {
		want := refSum(initial, data)
		return SumFig10(initial, data) == want &&
			SumWide(initial, data) == want &&
			SumNaive(initial, data) == want
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: a receiver summing data whose checksum field was filled in by
// the sender obtains 0xffff.
func TestPropertyVerifyComplement(t *testing.T) {
	f := func(data []byte) bool {
		if len(data)%2 == 1 {
			data = append(data, 0) // field-bearing headers are even
		}
		buf := append([]byte{0, 0}, data...)
		ck := ^SumWide(0, buf)
		buf[0], buf[1] = byte(ck>>8), byte(ck)
		return SumWide(0, buf) == 0xffff
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAccumulatorMatchesContiguous(t *testing.T) {
	a := []byte("pseudo-hdr12") // 12 bytes, even
	b := []byte("tcp-header-20bytes!!")
	c := []byte("payload")
	var acc Accumulator
	acc.Add(a)
	acc.Add(b)
	acc.Add(c)
	all := append(append(append([]byte{}, a...), b...), c...)
	if acc.Partial() != refSum(0, all) {
		t.Fatalf("accumulator %#04x, contiguous %#04x", acc.Partial(), refSum(0, all))
	}
	if acc.Checksum() != ^refSum(0, all) {
		t.Fatal("Checksum not complement of Partial")
	}
}

// Property: splitting a buffer into arbitrary-length regions (odd lengths
// included) never changes the accumulated sum.
func TestPropertyAccumulatorSplitInvariant(t *testing.T) {
	f := func(data []byte, cuts []uint8) bool {
		var acc Accumulator
		rest := data
		for _, c := range cuts {
			if len(rest) == 0 {
				break
			}
			n := int(c) % (len(rest) + 1)
			acc.Add(rest[:n])
			rest = rest[n:]
		}
		acc.Add(rest)
		return acc.Partial() == refSum(0, data)
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAccumulatorAddUint16(t *testing.T) {
	var acc Accumulator
	acc.AddUint16(0x1234)
	acc.AddUint16(0xffff)
	want := refSum(0, []byte{0x12, 0x34, 0xff, 0xff})
	if acc.Partial() != want {
		t.Fatalf("got %#04x want %#04x", acc.Partial(), want)
	}
}

func TestAccumulatorAddUint16PanicsAtOddOffset(t *testing.T) {
	var acc Accumulator
	acc.Add([]byte{1})
	defer func() {
		if recover() == nil {
			t.Fatal("AddUint16 at odd parity did not panic")
		}
	}()
	acc.AddUint16(7)
}

func TestLargeBufferRenormalization(t *testing.T) {
	// Exceed the Figure 10 renormalization chunk to exercise that path.
	data := make([]byte, renormalizeEvery*2+6)
	for i := range data {
		data[i] = byte(i * 7)
	}
	want := refSum(0, data)
	if got := SumFig10(0, data); got != want {
		t.Fatalf("fig10 on %d bytes: %#04x want %#04x", len(data), got, want)
	}
}

// TestCarrySaturation drives the routines where every add carries: an
// all-0xff buffer (each 64-bit add of SumWide overflows, each 16-bit add
// of the others wraps), at every length that mixes SumWide's 32-byte
// rounds, 8-byte words and 1–7-byte tail, from every initial sum that
// sits on a fold boundary — alone, and cut at every odd offset through an
// Accumulator, where a region's last byte pairs with the next one's first.
func TestCarrySaturation(t *testing.T) {
	ff := make([]byte, 71)
	for i := range ff {
		ff[i] = 0xff
	}
	for n := 0; n <= len(ff); n++ {
		data := ff[:n]
		for _, initial := range []uint16{0, 1, 0x00ff, 0xff00, 0xfffe, 0xffff} {
			want := refSum(initial, data)
			if got := SumWide(initial, data); got != want {
				t.Errorf("wide len %d initial %#04x: %#04x want %#04x", n, initial, got, want)
			}
			if got := SumFig10(initial, data); got != want {
				t.Errorf("fig10 len %d initial %#04x: %#04x want %#04x", n, initial, got, want)
			}
			if got := SumNaive(initial, data); got != want {
				t.Errorf("naive len %d initial %#04x: %#04x want %#04x", n, initial, got, want)
			}
		}
		want := refSum(0, data)
		for cut := 1; cut < n; cut += 2 {
			var acc Accumulator
			acc.Add(data[:cut])
			acc.Add(data[cut:])
			if acc.Partial() != want {
				t.Errorf("accumulator len %d cut %d: %#04x want %#04x", n, cut, acc.Partial(), want)
			}
		}
	}
}

// TestWideAgreesOnFrameSizedInputs checks SumWide against the reference
// on seeded random buffers of every length a frame can have, with random
// initial sums; the quick.Check property above rarely generates inputs
// long enough to leave the 32-byte loop more than a few times.
func TestWideAgreesOnFrameSizedInputs(t *testing.T) {
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	buf := make([]byte, 1600)
	for n := 0; n < len(buf); n++ {
		for i := range buf[:n] {
			buf[i] = byte(next() >> 24)
		}
		initial := uint16(next() >> 40)
		if got, want := SumWide(initial, buf[:n]), refSum(initial, buf[:n]); got != want {
			t.Fatalf("len %d initial %#04x: %#04x want %#04x", n, initial, got, want)
		}
	}
}
