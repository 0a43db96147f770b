package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// withMetrics runs f with collection enabled and a clean slate, restoring
// the disabled default afterwards so other tests see zero-cost mode.
func withMetrics(t *testing.T, f func()) {
	t.Helper()
	Reset()
	Enable()
	defer func() {
		Disable()
		Reset()
	}()
	f()
}

func TestDisabledMetricsRecordNothing(t *testing.T) {
	c := NewCounter("test.disabled_counter")
	w := NewWatermark("test.disabled_watermark")
	h := NewHistogram("test.disabled_histogram")
	Disable()
	c.Inc()
	c.Add(41)
	w.Observe(7)
	h.Observe(9)
	if c.v.Load() != 0 || w.v.Load() != 0 || h.count.Load() != 0 {
		t.Fatalf("disabled metrics recorded: counter=%d watermark=%d hist=%d",
			c.v.Load(), w.v.Load(), h.count.Load())
	}
}

func TestCounterWatermarkHistogram(t *testing.T) {
	c := NewCounter("test.counter")
	w := NewWatermark("test.watermark")
	h := NewHistogram("test.histogram")
	withMetrics(t, func() {
		c.Inc()
		c.Add(9)
		for _, v := range []int64{5, 12, 3, 12, 7} {
			w.Observe(v)
		}
		for _, v := range []int64{0, 1, 2, 3, 4, -8} {
			h.Observe(v)
		}
		if c.v.Load() != 10 {
			t.Fatalf("counter = %d, want 10", c.v.Load())
		}
		if w.v.Load() != 12 {
			t.Fatalf("watermark = %d, want 12", w.v.Load())
		}
		// -8 clamps to 0.
		if h.count.Load() != 6 || h.sum.Load() != 10 {
			t.Fatalf("histogram count=%d sum=%d, want 6/10", h.count.Load(), h.sum.Load())
		}
	})
	// Reset (run by withMetrics on exit) must zero everything.
	if c.v.Load() != 0 || w.v.Load() != 0 || h.count.Load() != 0 {
		t.Fatalf("Reset left state: counter=%d watermark=%d hist=%d",
			c.v.Load(), w.v.Load(), h.count.Load())
	}
}

// TestWatermarkConcurrentMax: max is order-independent, the property that
// makes watermarks (unlike gauges) safe under parallel shards.
func TestWatermarkConcurrentMax(t *testing.T) {
	w := NewWatermark("test.watermark_concurrent")
	withMetrics(t, func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					w.Observe(int64(g*1000 + i))
				}
			}(g)
		}
		wg.Wait()
		if w.v.Load() != 7999 {
			t.Fatalf("concurrent watermark = %d, want 7999", w.v.Load())
		}
	})
}

func TestDuplicateNamePanics(t *testing.T) {
	NewCounter("test.dup")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	NewHistogram("test.dup")
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram("test.buckets")
	withMetrics(t, func() {
		// 0 -> bucket le=0; 1 -> le=1; 2,3 -> le=3; 4..7 -> le=7.
		for _, v := range []int64{0, 1, 2, 3, 4, 7} {
			h.Observe(v)
		}
		s := TakeSnapshot()
		hs := s.Histograms["test.buckets"]
		want := []HistBucket{{0, 1}, {1, 1}, {3, 2}, {7, 2}}
		if len(hs.Buckets) != len(want) {
			t.Fatalf("buckets = %+v, want %+v", hs.Buckets, want)
		}
		for i, b := range want {
			if hs.Buckets[i] != b {
				t.Fatalf("bucket %d = %+v, want %+v", i, hs.Buckets[i], b)
			}
		}
	})
}

func TestSnapshotDeterministicBytes(t *testing.T) {
	c := NewCounter("test.snap_counter")
	withMetrics(t, func() {
		c.Add(3)
		var a, b bytes.Buffer
		if err := WriteSnapshotSpec(&a, ""); err != nil {
			t.Fatal(err)
		}
		if err := WriteSnapshotSpec(&b, ""); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("two snapshots of the same state differ")
		}
		var s Snapshot
		if err := json.Unmarshal(a.Bytes(), &s); err != nil {
			t.Fatalf("snapshot is not valid JSON: %v", err)
		}
		if s.Counters["test.snap_counter"] != 3 {
			t.Fatalf("snapshot counter = %d, want 3", s.Counters["test.snap_counter"])
		}
	})
}

func TestMetricNamesSortedAndComplete(t *testing.T) {
	NewCounter("test.names_a")
	NewWatermark("test.names_b")
	s := TakeSnapshot()
	if _, ok := s.Counters["test.names_a"]; !ok {
		t.Fatal("snapshot missing counter test.names_a")
	}
	if _, ok := s.Watermarks["test.names_b"]; !ok {
		t.Fatal("snapshot missing watermark test.names_b")
	}
}
