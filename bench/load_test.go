package main

import "testing"

func TestVerifierCatchesFlippedByteAndShortReply(t *testing.T) {
	pat := makePattern(1, 4096)
	reply := pat[phase(3) : phase(3)+4096]

	whole := verifier{expect: reply}
	whole.feed(reply[:1000])
	whole.feed(reply[1000:])
	if !whole.complete() {
		t.Error("an exact reply in two pieces did not verify")
	}

	flipped := append([]byte(nil), reply...)
	flipped[2345] ^= 0x01
	v := verifier{expect: reply}
	v.feed(flipped[:2000])
	if v.bad {
		t.Error("bad before the flipped byte arrived")
	}
	v.feed(flipped[2000:])
	if !v.bad || v.complete() {
		t.Error("a flipped byte passed")
	}

	short := verifier{expect: reply}
	short.feed(reply[:4095])
	if short.done() || short.complete() {
		t.Error("a reply one byte short counted as done")
	}

	long := verifier{expect: reply}
	long.feed(reply)
	long.feed([]byte{0})
	long.feed([]byte{0}) // past the end twice: still no panic
	if !long.bad || long.complete() {
		t.Error("a reply one byte long passed")
	}

	other := verifier{expect: reply}
	other.feed(pat[phase(4) : phase(4)+4096])
	if !other.bad {
		t.Error("the reply to the connection's next request passed for this one")
	}
}

func TestPatternDependsOnSeed(t *testing.T) {
	a, b := makePattern(1, 64), makePattern(2, 64)
	if string(a) == string(b) {
		t.Error("two seeds gave one pattern")
	}
	if string(a) != string(makePattern(1, 64)) {
		t.Error("one seed gave two patterns")
	}
}
