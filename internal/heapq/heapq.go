// Package heapq is the typed binary min-heap shared by the list scheduler
// and the discrete-event simulator. Elements live by value in an arena
// sized at construction, so Push and Pop neither box nor allocate. The
// comparator must be a strict total order for the pop sequence to be
// deterministic.
package heapq

// Heap is a binary min-heap over a pre-sized arena, ordered by less.
type Heap[T any] struct {
	a    []T
	less func(a, b T) bool
}

// New returns an empty heap whose arena holds capacity elements before it
// grows.
func New[T any](capacity int, less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{a: make([]T, 0, capacity), less: less}
}

// Len returns the number of elements in the heap.
func (h *Heap[T]) Len() int { return len(h.a) }

// Min returns the least element without removing it. The heap must not be
// empty.
func (h *Heap[T]) Min() T { return h.a[0] }

// Reset empties the heap onto its retained arena.
func (h *Heap[T]) Reset() { h.a = h.a[:0] }

// Push adds v to the heap.
//
//cqla:noalloc
func (h *Heap[T]) Push(v T) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.a[i], h.a[parent]) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

// Pop removes and returns the least element. The heap must not be empty.
//
//cqla:noalloc
func (h *Heap[T]) Pop() T {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	var zero T
	h.a[last] = zero // release references held by pointer-carrying types
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.less(h.a[l], h.a[smallest]) {
			smallest = l
		}
		if r < last && h.less(h.a[r], h.a[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		h.a[i], h.a[smallest] = h.a[smallest], h.a[i]
		i = smallest
	}
}
