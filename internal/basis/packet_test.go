package basis

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestPacketNewCopiesPayload(t *testing.T) {
	data := []byte("hello world")
	p := NewPacket(40, 4, data)
	data[0] = 'X' // mutate the source; the packet must hold its own copy
	if !bytes.Equal(p.Bytes(), []byte("hello world")) {
		t.Fatalf("payload aliased caller data: %q", p.Bytes())
	}
	if p.Headroom() != 40 || p.Tailroom() != 4 {
		t.Fatalf("headroom=%d tailroom=%d", p.Headroom(), p.Tailroom())
	}
}

func TestPacketPushPullRoundTrip(t *testing.T) {
	p := NewPacket(20+20, 0, []byte("payload"))
	// TCP header (20 bytes) then IP header (20 bytes), written in place.
	tcph := p.Push(20)
	copy(tcph, []byte("TCPHDR"))
	iph := p.Push(20)
	copy(iph, []byte("IPHDR"))
	if p.Len() != 47 {
		t.Fatalf("Len after pushes = %d", p.Len())
	}

	// Receive side: strip in the opposite order.
	gotIP := p.Pull(20)
	if !bytes.HasPrefix(gotIP, []byte("IPHDR")) {
		t.Fatalf("IP header corrupted: %q", gotIP[:5])
	}
	gotTCP := p.Pull(20)
	if !bytes.HasPrefix(gotTCP, []byte("TCPHDR")) {
		t.Fatalf("TCP header corrupted: %q", gotTCP[:6])
	}
	if string(p.Bytes()) != "payload" {
		t.Fatalf("payload corrupted: %q", p.Bytes())
	}
}

func TestPacketPushPanicsWithoutHeadroom(t *testing.T) {
	p := NewPacket(4, 0, []byte("x"))
	defer func() {
		if recover() == nil {
			t.Fatal("Push beyond headroom did not panic")
		}
	}()
	p.Push(5)
}

func TestPacketPullBeyondViewReturnsNil(t *testing.T) {
	p := NewPacket(0, 0, []byte("abc"))
	if got := p.Pull(4); got != nil {
		t.Fatalf("Pull(4) on 3-byte packet = %v", got)
	}
	if got := p.Pull(-1); got != nil {
		t.Fatal("Pull(-1) returned non-nil")
	}
	if p.Len() != 3 {
		t.Fatal("failed Pull consumed bytes")
	}
}

func TestPacketExtendAndTrimTail(t *testing.T) {
	p := NewPacket(0, 4, []byte("data"))
	fcs := p.Extend(4)
	copy(fcs, []byte{1, 2, 3, 4})
	if p.Len() != 8 {
		t.Fatalf("Len after Extend = %d", p.Len())
	}
	if !p.TrimTail(4) {
		t.Fatal("TrimTail failed")
	}
	if string(p.Bytes()) != "data" {
		t.Fatalf("payload after trim = %q", p.Bytes())
	}
	if p.TrimTail(5) {
		t.Fatal("TrimTail(5) on 4-byte view succeeded")
	}
}

func TestPacketExtendPanicsWithoutTailroom(t *testing.T) {
	p := NewPacket(0, 2, []byte("x"))
	defer func() {
		if recover() == nil {
			t.Fatal("Extend beyond tailroom did not panic")
		}
	}()
	p.Extend(3)
}

func TestPacketTrimTo(t *testing.T) {
	p := FromWire([]byte("totallen-padding"))
	if !p.TrimTo(8) {
		t.Fatal("TrimTo failed")
	}
	if string(p.Bytes()) != "totallen" {
		t.Fatalf("TrimTo view = %q", p.Bytes())
	}
	if p.TrimTo(9) {
		t.Fatal("TrimTo beyond view succeeded")
	}
	if !p.TrimTo(0) {
		t.Fatal("TrimTo(0) failed")
	}
}

func TestPacketFromWire(t *testing.T) {
	raw := []byte{0xde, 0xad}
	p := FromWire(raw)
	if p.Len() != 2 || p.Headroom() != 0 || p.Tailroom() != 0 {
		t.Fatalf("FromWire geometry wrong: %s", p)
	}
}

func TestPacketCloneIsDeep(t *testing.T) {
	p := NewPacket(8, 0, []byte("abcd"))
	p.Push(2)
	c := p.Clone()
	p.Bytes()[0] = 0xff
	if c.Bytes()[0] == 0xff {
		t.Fatal("Clone shares storage with original")
	}
	if c.Len() != p.Len() || c.Headroom() != p.Headroom() {
		t.Fatal("Clone geometry differs")
	}
}

func TestAllocPacketZeroed(t *testing.T) {
	p := AllocPacket(4, 4, 16)
	for i, b := range p.Bytes() {
		if b != 0 {
			t.Fatalf("byte %d not zero", i)
		}
	}
	if p.Len() != 16 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestAllocPacketPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	AllocPacket(-1, 0, 0)
}

// Property: pushing then pulling n bytes is the identity on the payload
// view for any payload and any split of pushes.
func TestPacketPropertyPushPullIdentity(t *testing.T) {
	f := func(payload []byte, a, b uint8) bool {
		p := NewPacket(int(a)+int(b), 0, payload)
		p.Push(int(a))
		p.Push(int(b))
		p.Pull(int(b))
		p.Pull(int(a))
		return bytes.Equal(p.Bytes(), payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Reset re-views the same storage: after the layers below have pushed
// headers and extended trailers over a packet, its owner gets the payload
// view back with the bytes untouched, and can lay a different payload
// size over the same store.
func TestPacketResetReviewsInPlace(t *testing.T) {
	p := AllocPacket(8, 6, 5)
	copy(p.Bytes(), "hello")
	copy(p.Push(8), "HDRHDRHD")
	copy(p.Extend(4), "TAIL")
	if p.Headroom() != 0 || p.Tailroom() != 2 {
		t.Fatalf("after push/extend: headroom=%d tailroom=%d", p.Headroom(), p.Tailroom())
	}
	p.Reset(8, 5)
	if string(p.Bytes()) != "hello" || p.Headroom() != 8 || p.Tailroom() != 6 {
		t.Fatalf("Reset(8,5): %q headroom=%d tailroom=%d", p.Bytes(), p.Headroom(), p.Tailroom())
	}
	p.Reset(8, 2) // a shorter payload over the same store: old bytes stay behind the view
	if string(p.Bytes()) != "he" || p.Tailroom() != 9 {
		t.Fatalf("Reset(8,2): %q tailroom=%d", p.Bytes(), p.Tailroom())
	}
	if got := p.Extend(3); string(got) != "llo" {
		t.Fatalf("bytes past a shortened view = %q; Reset must not clear", got)
	}
}

func TestPacketResetPanicsBeyondStore(t *testing.T) {
	p := AllocPacket(4, 4, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("Reset past the backing store did not panic")
		}
	}()
	p.Reset(4, 13)
}
