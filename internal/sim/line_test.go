package sim

import (
	"testing"
	"time"
)

// TestLinePushBeforeTailPanics: a push that would fire before the line's
// last firing breaks the FIFO order the exact pop order rests on, so it
// panics instead of firing out of order. An equal time is fine: the later
// push carries the larger sequence number.
func TestLinePushBeforeTailPanics(t *testing.T) {
	e := New(1)
	var got []int
	l := NewLine(e, lineKey, func(v int) { got = append(got, v) })
	l.Push(3*time.Millisecond, 1)
	l.Push(3*time.Millisecond, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a push before the tail did not panic")
			}
		}()
		l.Push(2*time.Millisecond, 3)
	}()
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 || e.Now() != 3*time.Millisecond {
		t.Fatalf("fired %v at %v, want [1 2] at 3ms", got, e.Now())
	}
}

// TestLineRingWrapsAndGrows pushes and fires so the ring's head wraps
// around its end several times and the ring grows while wrapped; every
// value must come out once, in push order.
func TestLineRingWrapsAndGrows(t *testing.T) {
	e := New(1)
	next := 0
	l := NewLine(e, lineKey, func(v int) {
		if v != next {
			t.Fatalf("fired %d, want %d", v, next)
		}
		next++
	})
	pushed := 0
	for round := 1; round <= 40; round++ {
		for i := 0; i < round; i++ {
			l.Push(time.Millisecond, pushed)
			pushed++
		}
		e.RunUntil(e.Now() + time.Microsecond*time.Duration(500+round))
	}
	e.Run()
	if next != pushed || e.Pending() != 0 {
		t.Fatalf("fired %d of %d, %d still pending", next, pushed, e.Pending())
	}
}

// BenchmarkLine is a link's propagation hop in steady state: one push and
// one firing per iteration with about 100 values in flight.
func BenchmarkLine(b *testing.B) {
	const inFlight = 100
	e := New(1)
	l := NewLine(e, lineKey, func(int) {})
	for i := 0; i < inFlight; i++ {
		l.Push(inFlight, i)
		e.RunUntil(e.Now() + 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Push(inFlight, i)
		e.RunUntil(e.Now() + 1)
	}
}
