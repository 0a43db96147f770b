package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestPercentileBasics(t *testing.T) {
	s := &Series{}
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 100}, {50, 50.5}, {95, 95.05}, {25, 25.75},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	s := &Series{}
	if s.Percentile(50) != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty series must report zeros")
	}
}

func TestPercentileSingle(t *testing.T) {
	s := &Series{}
	s.Add(7)
	for _, p := range []float64{0, 50, 100} {
		if s.Percentile(p) != 7 {
			t.Fatalf("P%v of single = %v", p, s.Percentile(p))
		}
	}
}

func TestAddAfterQueryResorts(t *testing.T) {
	s := &Series{}
	s.Add(5)
	_ = s.Percentile(50)
	s.Add(1)
	if s.Min() != 1 {
		t.Fatal("sort flag not reset after Add")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		s := &Series{}
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				s.Add(v)
			}
		}
		if s.Len() == 0 {
			return true
		}
		prev := s.Percentile(0)
		for p := 5.0; p <= 100; p += 5 {
			cur := s.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	s := &Series{}
	s.Add(2)
	s.Add(4)
	s.Add(9)
	if got := s.Mean(); math.Abs(got-5) > 1e-9 {
		t.Fatalf("mean = %v, want 5", got)
	}
}

func TestWindowedThroughput(t *testing.T) {
	w := NewWindowed(100 * time.Millisecond)
	// 125 kB in window 0 => 10 Mbit/s; 250 kB in window 3 => 20 Mbit/s.
	w.Add(10*time.Millisecond, 62500)
	w.Add(90*time.Millisecond, 62500)
	w.Add(350*time.Millisecond, 250000)
	rates := w.RatesMbps(0, 0)
	if rates.Len() != 4 {
		t.Fatalf("windows = %d, want 4", rates.Len())
	}
	if got := rates.Max(); math.Abs(got-20) > 1e-9 {
		t.Fatalf("max rate = %v, want 20", got)
	}
	if got := rates.Min(); math.Abs(got) > 1e-9 {
		t.Fatalf("min rate = %v, want 0 (the two empty windows)", got)
	}
}

func TestWindowedRange(t *testing.T) {
	w := NewWindowed(100 * time.Millisecond)
	for i := 0; i < 10; i++ {
		w.Add(time.Duration(i)*100*time.Millisecond, 12500) // 1 Mbit/s each
	}
	all := w.RatesMbps(0, 0)
	if all.Len() != 10 {
		t.Fatalf("all windows = %d", all.Len())
	}
	mid := w.RatesMbps(200*time.Millisecond, 500*time.Millisecond)
	if mid.Len() != 3 {
		t.Fatalf("windows in [200,500) = %d, want 3", mid.Len())
	}
}

func TestWindowedDefault(t *testing.T) {
	w := NewWindowed(0)
	if w.Window != 100*time.Millisecond {
		t.Fatalf("default window = %v", w.Window)
	}
}

func TestJain(t *testing.T) {
	if got := Jain([]float64{10, 10, 10}); math.Abs(got-1) > 1e-9 {
		t.Fatalf("equal allocation Jain = %v, want 1", got)
	}
	if got := Jain([]float64{30, 0, 0}); math.Abs(got-1.0/3) > 1e-9 {
		t.Fatalf("single-user Jain = %v, want 1/3", got)
	}
	if Jain(nil) != 0 || Jain([]float64{0, 0}) != 0 {
		t.Fatal("degenerate Jain must be 0")
	}
	// Paper values are ~0.98-0.9997 for near-fair allocations.
	got := Jain([]float64{33, 33, 34})
	if got < 0.999 {
		t.Fatalf("near-equal Jain = %v", got)
	}
}

func TestJainBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		allZero := true
		for i, v := range raw {
			xs[i] = float64(v)
			if v != 0 {
				allZero = false
			}
		}
		j := Jain(xs)
		if allZero {
			return j == 0
		}
		return j >= 1/float64(len(xs))-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDurationSeries(t *testing.T) {
	var d DurationSeries
	d.AddDuration(150 * time.Millisecond)
	if got := d.Mean(); math.Abs(got-150) > 1e-9 {
		t.Fatalf("duration sample = %v ms, want 150", got)
	}
}

func TestRound2(t *testing.T) {
	if Round2(1.2345) != 1.23 || Round2(1.235) != 1.24 {
		t.Fatalf("Round2 broken: %v %v", Round2(1.2345), Round2(1.235))
	}
}
