package stats

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestP2SmallN: below five samples the estimator answers exactly.
func TestP2SmallN(t *testing.T) {
	e := NewP2(0.5)
	if e.Value() != 0 {
		t.Fatalf("empty estimator: got %v", e.Value())
	}
	e.Add(7)
	if e.Value() != 7 {
		t.Fatalf("one sample: got %v", e.Value())
	}
	e.Add(1)
	e.Add(9)
	// Samples {1,7,9}: the median is 7.
	if e.Value() != 7 {
		t.Fatalf("three samples: got %v, want 7", e.Value())
	}
}

// TestP2Accuracy compares streaming estimates against exact order
// statistics across distributions with different shapes: uniform, normal,
// and a heavy-tailed exponential (the shape of network delay).
func TestP2Accuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := []struct {
		name   string
		sample func() float64
	}{
		{"uniform", func() float64 { return rng.Float64() * 100 }},
		{"normal", func() float64 { return 50 + 12*rng.NormFloat64() }},
		{"exponential", func() float64 { return rng.ExpFloat64() * 30 }},
	}
	quantiles := []float64{10, 50, 90, 95, 99}
	const n = 50000
	for _, d := range dists {
		exact := &Series{}
		digest := NewP2Digest()
		ests := make([]*P2, len(quantiles))
		for i, q := range quantiles {
			ests[i] = NewP2(q / 100)
		}
		for i := 0; i < n; i++ {
			v := d.sample()
			exact.Add(v)
			digest.Add(v)
			for _, e := range ests {
				e.Add(v)
			}
		}
		for i, q := range quantiles {
			want := exact.Percentile(q)
			got := ests[i].Value()
			// Tolerance: 2% of the distribution's spread.
			tol := 0.02 * (exact.Max() - exact.Min())
			if math.Abs(got-want) > tol {
				t.Errorf("%s p%.0f: got %.3f, exact %.3f (tol %.3f)", d.name, q, got, want, tol)
			}
			// The digest's estimators are independent P2s: same answer.
			if q == 50 || q == 95 {
				if dg := digest.Percentile(q); dg != got {
					t.Errorf("%s p%.0f: digest %v, lone estimator %v", d.name, q, dg, got)
				}
			}
		}
		if got, want := digest.Mean(), exact.Mean(); math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("%s mean: got %v, exact %v", d.name, got, want)
		}
		if digest.Min() != exact.Min() || digest.Max() != exact.Max() {
			t.Errorf("%s min/max: got %v/%v, exact %v/%v",
				d.name, digest.Min(), digest.Max(), exact.Min(), exact.Max())
		}
		if digest.Len() != n {
			t.Errorf("%s len: got %d, want %d", d.name, digest.Len(), n)
		}
	}
}

// TestP2DigestExtremes: percentile 0/100 answer exactly from min/max, and
// untracked interior percentiles panic rather than silently answering
// with the wrong quantile.
func TestP2DigestExtremes(t *testing.T) {
	d := NewP2Digest()
	for _, v := range []float64{5, 1, 9, 3, 7, 2, 8} {
		d.Add(v)
	}
	if d.Percentile(0) != 1 || d.Percentile(100) != 9 {
		t.Fatalf("extremes: got %v/%v, want 1/9", d.Percentile(0), d.Percentile(100))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for untracked percentile")
		}
	}()
	d.Percentile(33)
}

// TestDurationP2 checks the duration adapter converts to milliseconds
// like DurationSeries and satisfies the shared DelayDist interface.
func TestDurationP2(t *testing.T) {
	var exact DelayDist = &DurationSeries{}
	var stream DelayDist = NewDurationP2()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		v := time.Duration(rng.ExpFloat64() * float64(40*time.Millisecond))
		exact.AddDuration(v)
		stream.AddDuration(v)
	}
	for _, q := range []float64{50, 95} {
		want, got := exact.Percentile(q), stream.Percentile(q)
		if math.Abs(got-want) > 0.05*want+0.5 {
			t.Errorf("p%.0f: stream %v, exact %v", q, got, want)
		}
	}
}

// BenchmarkP2Add measures the per-sample cost of the digest,
// the hot-path price a metro flow pays per delivered packet.
func BenchmarkP2Add(b *testing.B) {
	d := NewP2Digest()
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = rng.ExpFloat64() * 30
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Add(vals[i&4095])
	}
}
