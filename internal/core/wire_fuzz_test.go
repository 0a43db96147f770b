package core

import (
	"math"
	"testing"
)

// FuzzQuantizeRate holds the feedback quantizer's contract for any
// float64 a capacity estimate can become: the decoded rate is finite and
// non-negative; it is zero ("no feedback") exactly when the input is zero,
// negative or NaN; and across the rates the paper's links span, 10 kbit/s
// to 12 Gbit/s, the decoded packet interval is within 0.5 µs of the
// input's. The seed corpus is testdata/fuzz/FuzzQuantizeRate.
func FuzzQuantizeRate(f *testing.F) {
	interval := func(bps float64) float64 { return feedbackMSS * 8 / bps * 1e6 } // µs
	f.Fuzz(func(t *testing.T, bps float64) {
		got := QuantizeRate(bps)
		if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
			t.Fatalf("QuantizeRate(%v) = %v, want a finite rate >= 0", bps, got)
		}
		if none := !(bps > 0); (got == 0) != none {
			t.Fatalf("QuantizeRate(%v) = %v: zero must mean exactly a zero, negative or NaN input", bps, got)
		}
		if bps >= 1e4 && bps <= 1.2e10 {
			want := interval(bps)
			if d := math.Abs(interval(got) - want); d > 0.5+1e-9*want {
				t.Fatalf("QuantizeRate(%v) = %v: interval %v µs, input's %v µs (off by %v)", bps, got, interval(got), want, d)
			}
		}
	})
}
