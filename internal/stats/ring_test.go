package stats

import (
	"encoding/json"
	"testing"
)

func TestNewRegistrySizedCapacity(t *testing.T) {
	r := NewRegistrySized("h", 8)
	for i := 0; i < 100; i++ {
		r.Ring().Add(int64(i), EvRetransmit, "c", 0, 0)
	}
	if r.Ring().Len() != 8 {
		t.Fatalf("Len = %d, want configured capacity 8", r.Ring().Len())
	}
	if r.Ring().Total() != 100 {
		t.Fatalf("Total = %d, want 100", r.Ring().Total())
	}
	// The retained window is exactly the last 8 adds, oldest first.
	for i, ev := range r.Ring().Events() {
		if want := int64(92 + i); ev.At != want {
			t.Fatalf("event %d At = %d, want %d", i, ev.At, want)
		}
	}
	// Non-positive capacities fall back to the default.
	if got := NewRegistrySized("h", 0).Ring(); len(got.buf) != RingSize {
		t.Fatalf("zero capacity gave %d slots, want RingSize", len(got.buf))
	}
	if got := NewRegistrySized("h", -3).Ring(); len(got.buf) != RingSize {
		t.Fatalf("negative capacity gave %d slots, want RingSize", len(got.buf))
	}
}

// Events that survive a wraparound must round-trip through JSON with
// their kind intact. Kind (the enum) is deliberately json:"-"; KindS is
// the serialized form, and it must be populated on every retained slot —
// including slots that were overwritten after the ring wrapped.
func TestEventRingWrapJSONRoundTrip(t *testing.T) {
	r := NewEventRing(3)
	kinds := []EventKind{
		EvStateTransition, EvRetransmit, EvRTOBackoff, EvZeroWindow,
		EvRST, EvChallengeACK, EvMemPressure,
	}
	for i, k := range kinds {
		r.Add(int64(i), k, "conn", 1, 2)
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	data, err := json.Marshal(evs)
	if err != nil {
		t.Fatal(err)
	}
	var back []Event
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for i, ev := range back {
		orig := kinds[len(kinds)-3+i]
		if ev.KindS != orig.String() {
			t.Errorf("event %d KindS = %q, want %q", i, ev.KindS, orig.String())
		}
		if ev.Kind != 0 {
			t.Errorf("event %d Kind = %d survived JSON; the enum is json:\"-\"", i, ev.Kind)
		}
		if ev.At != int64(len(kinds)-3+i) {
			t.Errorf("event %d At = %d, out of order", i, ev.At)
		}
	}
}
