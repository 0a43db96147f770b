package sim

// Ring is a double-ended queue in a power-of-two circular buffer: the one
// container behind the packet path's FIFOs and sequence windows. Element
// i (0 is the front) sits at buf[(head+i)&(len(buf)-1)]. The zero value
// is empty and allocates nothing; a push onto a full ring doubles the
// buffer (to ringMin slots the first time), unrolling it in queue order,
// and nothing shrinks it, so a ring stops allocating once it has held its
// longest queue. A pop zeroes the slot it vacates, so the ring keeps no
// reference to what it handed back. Pointers from At and Front stay valid
// until the next push.
type Ring[T any] struct {
	buf  []T // nil or a power-of-two length
	head int
	n    int
}

// ringMin is a ring's first buffer size.
const ringMin = 16

// FromStock gives an empty ring the buffer a ring of the previous run on
// the recycled engine e grew, from e's stock under k (one key per holder
// kind), and registers the ring's buffer there for the next run.
func (r *Ring[T]) FromStock(e *Engine, k LocalKey) {
	s := StockOf[T](e, k)
	b := s.Take()
	r.buf = b[:cap(b)]
	s.Keep(&r.buf)
}

// Reserve grows the buffer, if it must, to the smallest power of two that
// holds n elements.
func (r *Ring[T]) Reserve(n int) {
	if n <= len(r.buf) {
		return
	}
	size := max(len(r.buf), 1)
	for size < n {
		size *= 2
	}
	r.resize(size)
}

// Len returns the number of elements in the ring.
func (r *Ring[T]) Len() int { return r.n }

// At returns a pointer to element i, counted from the front.
func (r *Ring[T]) At(i int) *T {
	if uint(i) >= uint(r.n) {
		panic("sim: ring index out of range")
	}
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

// Front returns a pointer to the oldest element.
func (r *Ring[T]) Front() *T { return r.At(0) }

// PushBack appends v behind the newest element.
func (r *Ring[T]) PushBack(v T) {
	if r.n == len(r.buf) {
		r.resize(max(ringMin, 2*len(r.buf)))
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// PopFront removes and returns the oldest element.
func (r *Ring[T]) PopFront() T {
	x := r.At(0)
	v := *x
	var zero T
	*x = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// PopBack removes and returns the newest element.
func (r *Ring[T]) PopBack() T {
	x := r.At(r.n - 1)
	v := *x
	var zero T
	*x = zero
	r.n--
	return v
}

// resize moves the elements to a new buffer of size slots, front at 0.
func (r *Ring[T]) resize(size int) {
	buf := make([]T, size)
	if r.n > 0 {
		n := copy(buf, r.buf[r.head:min(r.head+r.n, len(r.buf))])
		copy(buf[n:r.n], r.buf)
	}
	r.buf, r.head = buf, 0
}
