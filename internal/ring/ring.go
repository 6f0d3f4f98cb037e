// Package ring provides the FIFO queue behind the cycle-level models'
// queues (decode, load and store queues, store drain, writeback, prefetch,
// SCROB, TLB): a ring buffer that grows by doubling and otherwise reuses
// its storage, so steady-state pushes and pops allocate nothing.
//
// Popped slots keep their contents. PushSlot hands a slot back with
// whatever a previous occupant left in it, which lets element types that
// own buffers (a store-queue entry's lane slice) recycle them.
package ring

// Queue is a FIFO of T. The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T
	head int
	n    int
}

// New returns an empty queue with room for at least capacity elements.
func New[T any](capacity int) Queue[T] {
	size := 1
	for size < capacity {
		size <<= 1
	}
	return Queue[T]{buf: make([]T, size)}
}

// slot maps a front-relative position (0 ≤ i < len(buf)) to a buf index;
// len(buf) is zero or a power of two.
func (q *Queue[T]) slot(i int) int {
	return (q.head + i) & (len(q.buf) - 1)
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Cap returns how many elements the queue holds before it grows.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// At returns a pointer to element i, counted from the front (0 ≤ i < Len).
func (q *Queue[T]) At(i int) *T {
	if uint(i) >= uint(q.n) {
		panic("ring: index out of range")
	}
	return &q.buf[q.slot(i)]
}

// Front returns a pointer to the oldest element. The queue must not be
// empty (the result would be a stale slot).
func (q *Queue[T]) Front() *T { return &q.buf[q.head] }

// Push appends v at the back.
func (q *Queue[T]) Push(v T) { *q.PushSlot() = v }

// PushSlot appends one element at the back and returns a pointer to it.
// The slot holds whatever its previous occupant left there.
func (q *Queue[T]) PushSlot() *T {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.n++
	return &q.buf[q.slot(q.n-1)]
}

// PopFront removes and returns the oldest element (Len > 0).
func (q *Queue[T]) PopFront() T {
	if q.n == 0 {
		panic("ring: PopFront of an empty queue")
	}
	v := q.buf[q.head]
	q.head = q.slot(1)
	q.n--
	return v
}

// Remove deletes element i (0 ≤ i < Len), keeping the order of the rest.
// The removed slot's contents move to the back's vacated slot, so buffers
// it owns stay in the ring for PushSlot to recycle.
func (q *Queue[T]) Remove(i int) {
	if i == 0 {
		q.PopFront()
		return
	}
	removed := *q.At(i)
	for j := i; j < q.n-1; j++ {
		*q.At(j) = *q.At(j + 1)
	}
	*q.At(q.n - 1) = removed
	q.n--
}

// Clear empties the queue without releasing its storage.
func (q *Queue[T]) Clear() {
	q.head = 0
	q.n = 0
}

func (q *Queue[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	for i := 0; i < q.n; i++ {
		buf[i] = *q.At(i)
	}
	q.buf = buf
	q.head = 0
}
