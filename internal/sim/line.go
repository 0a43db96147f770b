package sim

import "time"

// Line is a FIFO of firings on one engine, for constant-delay hops: a
// wired link's propagation, where every value pushed fires after the ones
// pushed before it. Push draws the value's sequence number exactly where
// Schedule would, but only the line's earliest firing sits in the heap;
// firing it arms the next one under the key reserved at its Push. A line's
// firings are sorted by (at, seq) - at never decreases along the line
// (Push enforces it) and seq always grows - so its head is its smallest
// key, the heap's minimum is the minimum over every pending firing, and
// the engine pops in exactly the (at, seq) order it would if each Push
// were a Schedule. The heap holds one entry per busy line instead of one
// per value in flight.
//
// Values wait in a Ring of {value, at, seq} entries whose buffer comes
// from an engine-local Stock, so a line built on a recycled engine starts
// with the ring a line of the previous run grew. A line cannot be
// cancelled and must not be used after its engine is recycled.
type Line[T any] struct {
	eng  *Engine
	ring Ring[lineEntry[T]] // in push order
	fn   func(T)
	fire func() // pre-bound pop: arming allocates no closure
}

type lineEntry[T any] struct {
	v   T
	at  time.Duration
	seq uint64
}

// NewLine returns an empty line on e that calls fn with each pushed value
// when its firing comes due. k names the engine-local stock the line's
// ring comes from: one key per element type T.
func NewLine[T any](e *Engine, k LocalKey, fn func(T)) *Line[T] {
	l := &Line[T]{eng: e, fn: fn}
	l.ring.FromStock(e, k)
	l.fire = l.pop
	return l
}

// Push fires fn(v) after delay of virtual time; a negative delay is
// treated as zero. It draws the next sequence number as Schedule would.
// It panics if the firing would sort before the line's last one: the
// FIFO order is what keeps the engine's pop order exact.
func (l *Line[T]) Push(delay time.Duration, v T) {
	e := l.eng
	if delay < 0 {
		delay = 0
	}
	at := e.now + delay
	n := l.ring.Len()
	if n > 0 && at < l.ring.At(n-1).at {
		panic("sim: line push fires before the line's tail (a line's delay must not shrink)")
	}
	seq := e.nextSeq()
	mSched.Inc()
	l.ring.PushBack(lineEntry[T]{v: v, at: at, seq: seq})
	if n == 0 {
		e.arm(at, seq, l.fire)
	} else {
		e.parked++
	}
}

// pop fires the head: it arms the next firing under its reserved key, then
// hands the head's value to fn, which may push onto the line again.
func (l *Line[T]) pop() {
	v := l.ring.PopFront().v
	if l.ring.Len() > 0 {
		next := l.ring.Front()
		l.eng.parked--
		l.eng.arm(next.at, next.seq, l.fire)
	}
	l.fn(v)
}
