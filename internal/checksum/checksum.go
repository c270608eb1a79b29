// Package checksum implements the Internet checksum (RFC 1071) three ways,
// reproducing the paper's §5 checksum study:
//
//   - SumFig10: the paper's Figure 10 inner loop — 4-byte loads whose two
//     16-bit halves are accumulated into a 32-bit sum, letting up to 16
//     bits of carries collect in the top half before renormalizing. This
//     is the "optimized using the techniques described by Braden, Borman,
//     and Partridge [RFC 1071]" routine the paper clocked at 343 µs/KB.
//   - SumWide: the natural widening of the same idea — 8-byte loads added
//     whole into 64-bit accumulators with end-around carry and one fold at
//     the end (the staging the paper expected of a better code generator).
//     This is the routine the stack runs.
//   - SumNaive: a 16-bit-word-at-a-time loop with per-addition carry
//     folding — "a slower algorithm", standing in for the x-kernel routine
//     the paper clocked at 375 µs/KB.
//
// All three agree on all inputs (a property test enforces it). The
// protocol stack computes checksums through an Accumulator so that the
// pseudo-header, the transport header, and the payload are summed in place
// without being copied into one buffer.
package checksum

import (
	"encoding/binary"
	"math/bits"
)

// Fold reduces a 32-bit partial one's-complement sum to 16 bits.
//
//foxvet:hotpath
func Fold(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return uint16(sum)
}

// renormalizeEvery bounds how many bytes the Figure 10 loop consumes
// between renormalizations, honoring the paper's requirement that "no more
// than 2^16 2-byte quantities are summed" while carries collect in the top
// half of the accumulator.
const renormalizeEvery = 1 << 16

// SumFig10 returns the folded (not inverted) one's-complement sum of data
// added to the folded partial sum initial, using the paper's Figure 10
// loop: 4 bytes per iteration, high and low halves accumulated separately,
// odd bytes handled outside the loop.
//
//foxvet:hotpath
func SumFig10(initial uint16, data []byte) uint16 {
	sum := uint32(initial)
	for len(data) >= renormalizeEvery {
		sum = uint32(Fold(fig10Words(sum, data[:renormalizeEvery])))
		data = data[renormalizeEvery:]
	}
	limit := len(data) &^ 3
	sum = fig10Words(sum, data[:limit])
	// "check odd bytes, renormalize" — the code outside the loop.
	switch len(data) - limit {
	case 1:
		sum += uint32(data[limit]) << 8
	case 2:
		sum += uint32(binary.BigEndian.Uint16(data[limit:]))
	case 3:
		sum += uint32(binary.BigEndian.Uint16(data[limit:]))
		sum += uint32(data[limit+2]) << 8
	}
	return Fold(sum)
}

// fig10Words is the word_check loop of Figure 10: n and limit are
// multiples of 4; each 4-byte load contributes its two 16-bit halves.
//
//foxvet:hotpath
func fig10Words(sum uint32, data []byte) uint32 {
	for n := 0; n+4 <= len(data); n += 4 {
		byte4 := binary.BigEndian.Uint32(data[n:])
		low := byte4 & 0xffff
		high := byte4 >> 16
		sum += high + low
	}
	return sum
}

// SumWide returns the folded (not inverted) one's-complement sum of data
// added to initial. It is the routine the stack runs (Accumulator.Add):
// 8-byte loads added whole into 64-bit accumulators with end-around carry
// — RFC 1071's observation that the one's-complement sum may be taken
// over words of any multiple of 16 bits and folded once at the end. Two
// independent accumulators take alternate words, so the adds of one
// 32-byte round overlap, and a carry out of one add rides into the next
// add of the same accumulator instead of being folded on the spot.
//
//foxvet:hotpath
func SumWide(initial uint16, data []byte) uint16 {
	s0, s1 := uint64(initial), uint64(0)
	var c0, c1 uint64
	for len(data) >= 32 {
		s0, c0 = bits.Add64(s0, binary.BigEndian.Uint64(data[0:8]), c0)
		s1, c1 = bits.Add64(s1, binary.BigEndian.Uint64(data[8:16]), c1)
		s0, c0 = bits.Add64(s0, binary.BigEndian.Uint64(data[16:24]), c0)
		s1, c1 = bits.Add64(s1, binary.BigEndian.Uint64(data[24:32]), c1)
		data = data[32:]
	}
	for len(data) >= 8 {
		s0, c0 = bits.Add64(s0, binary.BigEndian.Uint64(data[0:8]), c0)
		data = data[8:]
	}
	if len(data) > 0 {
		// The last 1–7 bytes, as the high bytes of a zero-padded word: the
		// loop above consumed a multiple of 8, so 16-bit pairing is intact
		// and an odd final byte lands in the high half of its word.
		var last [8]byte
		copy(last[:], data)
		s1, c1 = bits.Add64(s1, binary.BigEndian.Uint64(last[:]), c1)
	}
	// Bring the two pending carries and the two accumulators together,
	// each step end-around, then fold 64 → 32 → 16 bits.
	s0, c0 = bits.Add64(s0, c1, c0)
	s0, c0 = bits.Add64(s0, s1, c0)
	s0, c0 = bits.Add64(s0, 0, c0)
	s0 += c0 // cannot carry: the add above left s0 = 0 if it carried
	sum := s0>>32 + s0&0xffffffff
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return uint16(sum)
}

// SumNaive returns the folded (not inverted) one's-complement sum of data
// added to initial, two bytes at a time with a carry fold after every
// addition — the "slower algorithm".
//
//foxvet:hotpath
func SumNaive(initial uint16, data []byte) uint16 {
	sum := uint32(initial)
	n := 0
	for ; n+2 <= len(data); n += 2 {
		sum += uint32(data[n])<<8 | uint32(data[n+1])
		for sum > 0xffff {
			sum = sum&0xffff + 1
		}
	}
	if n < len(data) {
		sum += uint32(data[n]) << 8
		for sum > 0xffff {
			sum = sum&0xffff + 1
		}
	}
	return uint16(sum)
}

// Checksum returns the Internet checksum of data: the bitwise complement
// of the one's-complement sum, as stored in IP/TCP/UDP header fields.
//
//foxvet:hotpath
func Checksum(data []byte) uint16 {
	return ^SumWide(0, data)
}

// Accumulator sums discontiguous byte regions — pseudo-header, transport
// header, payload — without copying them together. Regions may have odd
// length; the accumulator tracks byte parity so pairing stays correct
// across region boundaries.
//
// The zero value is an empty accumulator.
type Accumulator struct {
	sum uint16
	odd bool
}

// Add folds the bytes of data into the running sum.
//
//foxvet:hotpath
func (a *Accumulator) Add(data []byte) {
	if len(data) == 0 {
		return
	}
	if a.odd {
		// The pending odd byte from the previous region pairs with our
		// first byte as the low half of a 16-bit word; Sum* already added
		// it shifted high, so only the low byte remains to add.
		a.sum = Fold(uint32(a.sum) + uint32(data[0]))
		data = data[1:]
		a.odd = false
	}
	a.sum = SumWide(a.sum, data)
	if len(data)%2 == 1 {
		a.odd = true
	}
}

// AddUint16 folds one big-endian 16-bit value into the running sum. It
// panics if called at odd byte parity — header fields are word-aligned.
//
//foxvet:hotpath
func (a *Accumulator) AddUint16(v uint16) {
	if a.odd {
		panic("checksum: AddUint16 at odd offset")
	}
	a.sum = Fold(uint32(a.sum) + uint32(v))
}

// Partial returns the folded, non-inverted sum so far — the form the
// paper's IP_AUX "check" function returns for the pseudo-header.
func (a *Accumulator) Partial() uint16 { return a.sum }

// Checksum returns the complement of the sum: the header field value.
// An all-zero sum complements to 0xffff; UDP's convention that a computed
// zero checksum is transmitted as 0xffff is the caller's concern.
func (a *Accumulator) Checksum() uint16 { return ^a.sum }
