package basis

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestHeapEmpty(t *testing.T) {
	h := NewHeap[int](func(a, b int) bool { return a < b })
	if !h.Empty() || h.Len() != 0 {
		t.Fatal("new heap not empty")
	}
	if _, ok := h.Pop(); ok {
		t.Fatal("Pop on empty heap reported ok")
	}
	if _, ok := h.Min(); ok {
		t.Fatal("Min on empty heap reported ok")
	}
}

func TestHeapSortsDescendingInput(t *testing.T) {
	h := NewHeap[int](func(a, b int) bool { return a < b })
	for i := 100; i > 0; i-- {
		h.Push(i)
	}
	for want := 1; want <= 100; want++ {
		v, ok := h.Pop()
		if !ok || v != want {
			t.Fatalf("Pop = %d,%v; want %d", v, ok, want)
		}
	}
}

func TestHeapMinDoesNotRemove(t *testing.T) {
	h := NewHeap[int](func(a, b int) bool { return a < b })
	h.Push(5)
	h.Push(2)
	h.Push(9)
	if v, _ := h.Min(); v != 2 {
		t.Fatalf("Min = %d", v)
	}
	if h.Len() != 3 {
		t.Fatal("Min consumed an element")
	}
}

func TestHeapStructKeys(t *testing.T) {
	type sleeper struct {
		wake int64
		id   int
	}
	h := NewHeap[sleeper](func(a, b sleeper) bool { return a.wake < b.wake })
	h.Push(sleeper{30, 1})
	h.Push(sleeper{10, 2})
	h.Push(sleeper{20, 3})
	order := []int{2, 3, 1}
	for _, want := range order {
		s, _ := h.Pop()
		if s.id != want {
			t.Fatalf("wake order wrong: got id %d want %d", s.id, want)
		}
	}
}

// Property: popping everything yields a sorted permutation of the input.
func TestHeapPropertyHeapsort(t *testing.T) {
	f := func(vals []int32) bool {
		h := NewHeap[int32](func(a, b int32) bool { return a < b })
		for _, v := range vals {
			h.Push(v)
		}
		out := make([]int32, 0, len(vals))
		for !h.Empty() {
			v, _ := h.Pop()
			out = append(out, v)
		}
		if len(out) != len(vals) {
			return false
		}
		want := append([]int32(nil), vals...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if out[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: after any interleaving of pushes and pops, Min is always the
// smallest live element.
func TestHeapPropertyMinInvariant(t *testing.T) {
	f := func(ops []int16) bool {
		h := NewHeap[int16](func(a, b int16) bool { return a < b })
		var live []int16
		for _, v := range ops {
			if v%3 == 0 && len(live) > 0 {
				got, _ := h.Pop()
				minIdx := 0
				for i, lv := range live {
					if lv < live[minIdx] {
						minIdx = i
					}
				}
				if got != live[minIdx] {
					return false
				}
				live = append(live[:minIdx], live[minIdx+1:]...)
			} else {
				h.Push(v)
				live = append(live, v)
			}
		}
		return h.Len() == len(live)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Track keeps every element's index current through pushes, pops and
// removals from the middle, and Remove leaves a valid heap behind.
func TestHeapTrackAndRemove(t *testing.T) {
	type item struct{ key, pos int }
	h := NewHeap[*item](func(a, b *item) bool { return a.key < b.key })
	h.Track(func(v *item, i int) { v.pos = i })
	r := NewRand(7)
	var in []*item
	for step := 0; step < 5000; step++ {
		if len(in) == 0 || r.Intn(3) > 0 {
			it := &item{key: r.Intn(100), pos: -2}
			h.Push(it)
			in = append(in, it)
		} else {
			k := r.Intn(len(in))
			it := in[k]
			in = append(in[:k], in[k+1:]...)
			h.Remove(it.pos)
			if it.pos != -1 {
				t.Fatalf("removed element left with pos %d", it.pos)
			}
		}
		for _, it := range in {
			if h.items[it.pos] != it {
				t.Fatalf("step %d: element with key %d tracked at %d, which holds another", step, it.key, it.pos)
			}
		}
	}
	if h.Len() != len(in) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(in))
	}
	last := -1
	for !h.Empty() {
		it, _ := h.Pop()
		if it.key < last || it.pos != -1 {
			t.Fatalf("popped key %d after %d (pos %d)", it.key, last, it.pos)
		}
		last = it.key
	}
}
