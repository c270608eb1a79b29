package basis

// Heap is a binary min-heap priority queue. The paper's scheduler keeps
// its sleep queue in exactly this structure ("the sleep queue, a priority
// queue implemented as a heap, is also quite fast"), and the paper proposes
// replacing the scheduler's ready FIFO with a priority queue to prioritize
// latency-sensitive actions; both uses are served by this type.
//
// less must define a strict weak ordering. Construct with NewHeap.
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
	moved func(v T, i int) // see Track
}

// NewHeap returns an empty heap ordered by less (smallest first).
func NewHeap[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less, moved: func(T, int) {}}
}

// Len reports the number of elements.
func (h *Heap[T]) Len() int { return len(h.items) }

// Empty reports whether the heap holds no elements.
func (h *Heap[T]) Empty() bool { return len(h.items) == 0 }

// Track makes the heap report where its elements are, so a caller that
// keeps the index with the element can Remove it: moved(v, i) runs each
// time v comes to rest at index i, and moved(v, -1) when v leaves.
func (h *Heap[T]) Track(moved func(v T, i int)) { h.moved = moved }

// Push inserts v.
func (h *Heap[T]) Push(v T) {
	h.items = append(h.items, v)
	h.moved(v, len(h.items)-1)
	h.up(len(h.items) - 1)
}

// Pop removes and returns the minimum element; false if empty.
func (h *Heap[T]) Pop() (T, bool) {
	var zero T
	if len(h.items) == 0 {
		return zero, false
	}
	min := h.items[0]
	h.Remove(0)
	return min, true
}

// Remove deletes the element at index i, as last reported through Track.
func (h *Heap[T]) Remove(i int) {
	var zero T
	n := len(h.items) - 1
	h.moved(h.items[i], -1)
	h.items[i], h.items[n] = h.items[n], zero
	h.items = h.items[:n]
	if i < n {
		h.moved(h.items[i], i)
		h.down(i)
		h.up(i)
	}
}

// Min returns the minimum element without removing it; false if empty.
func (h *Heap[T]) Min() (T, bool) {
	var zero T
	if len(h.items) == 0 {
		return zero, false
	}
	return h.items[0], true
}

func (h *Heap[T]) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.moved(h.items[i], i)
	h.moved(h.items[j], j)
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(h.items[l], h.items[smallest]) {
			smallest = l
		}
		if r < n && h.less(h.items[r], h.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
