package sim

import (
	"slices"
	"testing"
)

// ringModel is the plain-slice deque a Ring is checked against, plus the
// buffer size the growth rule predicts: ringMin on the first push, double
// on every push onto a full ring, and Reserve's power of two.
type ringModel struct {
	elems []int
	size  int
}

// FuzzRing drives a Ring and the model with the same script, one byte an
// operation: push back, pop front, pop back, a Reserve of up to 63 slots,
// or a write through At. After every operation the ring must hold the
// model's elements in order (read through At and Front), its buffer must
// be the size the growth rule predicts - so a ring that never fills keeps
// its buffer and wraps in place - and every slot outside the elements
// must be zero: a pop keeps no reference. A pop from an empty ring and an
// At outside the elements panic.
func FuzzRing(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 0, 2, 0, 0, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		var r Ring[int]
		var m ringModel
		next := 1 // pushed values are 1, 2, ...: zero marks an empty slot
		for i, b := range script {
			switch b % 5 {
			case 0:
				r.PushBack(next)
				m.elems = append(m.elems, next)
				if len(m.elems) > m.size {
					m.size = max(ringMin, 2*m.size)
				}
				next++
			case 1:
				if len(m.elems) == 0 {
					mustPanic(t, "PopFront on an empty ring", func() { r.PopFront() })
					break
				}
				if got := r.PopFront(); got != m.elems[0] {
					t.Fatalf("op %d: PopFront = %d, want %d", i, got, m.elems[0])
				}
				m.elems = m.elems[1:]
			case 2:
				if len(m.elems) == 0 {
					mustPanic(t, "PopBack on an empty ring", func() { r.PopBack() })
					break
				}
				last := len(m.elems) - 1
				if got := r.PopBack(); got != m.elems[last] {
					t.Fatalf("op %d: PopBack = %d, want %d", i, got, m.elems[last])
				}
				m.elems = m.elems[:last]
			case 3:
				n := int(b >> 2)
				r.Reserve(n)
				if n > m.size {
					size := max(m.size, 1)
					for size < n {
						size *= 2
					}
					m.size = size
				}
			case 4:
				if len(m.elems) == 0 {
					mustPanic(t, "Front on an empty ring", func() { r.Front() })
					break
				}
				j := int(b>>3) % len(m.elems)
				*r.At(j) = next
				m.elems[j] = next
				next++
			}
			checkRing(t, i, &r, &m)
		}
	})
}

// checkRing compares r with the model after operation op.
func checkRing(t *testing.T, op int, r *Ring[int], m *ringModel) {
	t.Helper()
	if r.Len() != len(m.elems) || len(r.buf) != m.size {
		t.Fatalf("op %d: %d elements in %d slots, model %d in %d", op, r.Len(), len(r.buf), len(m.elems), m.size)
	}
	got := make([]int, r.Len())
	for i := range got {
		got[i] = *r.At(i)
	}
	if !slices.Equal(got, m.elems) {
		t.Fatalf("op %d: ring holds %v, model %v", op, got, m.elems)
	}
	if r.Len() > 0 && *r.Front() != m.elems[0] {
		t.Fatalf("op %d: Front = %d, want %d", op, *r.Front(), m.elems[0])
	}
	mustPanic(t, "At(Len())", func() { r.At(r.Len()) })
	mustPanic(t, "At(-1)", func() { r.At(-1) })
	live := 0
	for _, v := range r.buf {
		if v != 0 {
			live++
		}
	}
	if live != r.Len() {
		t.Fatalf("op %d: %d non-zero slots for %d elements", op, live, r.Len())
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestRingFromStock: a ring taken from a recycled engine's stock starts
// empty in the buffer its predecessor grew, so refilling it to the same
// length allocates nothing.
func TestRingFromStock(t *testing.T) {
	e := New(1)
	k := NewLocalKey()
	var r Ring[int]
	r.FromStock(e, k)
	for i := 1; i <= 100; i++ {
		r.PushBack(i)
	}
	r.PopFront()
	e.Recycle()
	var again Ring[int]
	again.FromStock(e, k)
	if again.Len() != 0 || len(again.buf) != 128 {
		t.Fatalf("ring from the stock holds %d elements in %d slots, want 0 in 128", again.Len(), len(again.buf))
	}
	fill := func() {
		for i := 1; i <= 100; i++ {
			again.PushBack(i)
		}
		for again.Len() > 0 {
			again.PopFront()
		}
	}
	if allocs := testing.AllocsPerRun(10, fill); allocs != 0 {
		t.Fatalf("refilling the stocked ring allocates %v times, want 0", allocs)
	}
}
