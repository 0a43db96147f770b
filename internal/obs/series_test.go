package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

var (
	tsA = Series("test.a")
	tsB = Series("test.b")
)

func TestSeriesWindowAggregation(t *testing.T) {
	r := NewSeriesRecorder()
	b := r.NewBuffer(0)
	tr := b.Track(tsA, 7)
	// Three samples in window 0, one in window 2: the window-0 aggregate
	// flushes when the window-2 sample arrives; window 2 needs Flush.
	tr.Sample(1*time.Millisecond, 10)
	tr.Sample(20*time.Millisecond, 30)
	tr.Sample(39*time.Millisecond, 20)
	tr.Sample(85*time.Millisecond, 5)
	b.Flush()
	r.Drain(b)
	pts := r.Points()
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	p := pts[0]
	if p.Name != "test.a" || p.Tid != 7 || p.Win != 0 {
		t.Fatalf("first point identity wrong: %+v", p)
	}
	if p.Count != 3 || p.Min != 10 || p.Max != 30 || p.Mean != 20 || p.Last != 20 {
		t.Fatalf("window 0 aggregate wrong: %+v", p)
	}
	if got := pts[1]; got.Win != 2 || got.Count != 1 || got.Mean != 5 {
		t.Fatalf("window 2 aggregate wrong: %+v", got)
	}
	if pts[0].Time() != 0 || pts[1].Time() != 80*time.Millisecond {
		t.Fatalf("window start times wrong: %v %v", pts[0].Time(), pts[1].Time())
	}
}

func TestSeriesNilTrackIsNoop(t *testing.T) {
	var tr *SeriesTrack
	tr.Sample(time.Millisecond, 1) // must not panic
	var b *SeriesBuffer
	if b.Track(tsA, 0) != nil {
		t.Fatal("nil buffer must yield a nil track")
	}
	b.Flush()
}

func TestSeriesTrackReuseAcrossSites(t *testing.T) {
	r := NewSeriesRecorder()
	b := r.NewBuffer(0)
	if b.Track(tsA, 1) != b.Track(tsA, 1) {
		t.Fatal("same (def, tid) must return the same track")
	}
	if b.Track(tsA, 1) == b.Track(tsA, 2) || b.Track(tsA, 1) == b.Track(tsB, 1) {
		t.Fatal("distinct (def, tid) must return distinct tracks")
	}
}

func TestSeriesMergeTotalOrder(t *testing.T) {
	// Two shards emitting interleaved windows: the merge must order by
	// (window, shard, seq) regardless of drain order.
	r := NewSeriesRecorder()
	b0, b1 := r.NewBuffer(0), r.NewBuffer(1)
	t0, t1 := b0.Track(tsA, 0), b1.Track(tsA, 0)
	for w := 0; w < 3; w++ {
		ts := time.Duration(w) * SeriesWindow
		t1.Sample(ts, float64(10+w))
		t0.Sample(ts, float64(w))
	}
	b1.Flush()
	r.Drain(b1) // drain shard 1 first: sort must still put shard 0 first
	b0.Flush()
	r.Drain(b0)
	pts := r.Points()
	if len(pts) != 6 {
		t.Fatalf("got %d points, want 6", len(pts))
	}
	for i, p := range pts {
		wantWin, wantPid := int64(i/2), i%2
		if p.Win != wantWin || p.Pid() != wantPid {
			t.Fatalf("point %d: got (win %d, pid %d), want (%d, %d)", i, p.Win, p.Pid(), wantWin, wantPid)
		}
	}
}

func TestSeriesRingOverflowCountsDropped(t *testing.T) {
	r := NewSeriesRecorder()
	r.SetBufferCap(2)
	b := r.NewBuffer(0)
	tr := b.Track(tsA, 0)
	for w := 0; w < 5; w++ {
		tr.Sample(time.Duration(w)*SeriesWindow, 1)
	}
	b.Flush()
	r.Drain(b)
	if r.Dropped != 3 {
		t.Fatalf("Dropped = %d, want 3", r.Dropped)
	}
	pts := r.Points()
	if len(pts) != 2 || pts[0].Win != 3 || pts[1].Win != 4 {
		t.Fatalf("ring must keep the newest windows, got %+v", pts)
	}
}

func TestSeriesCSVDeterministicAndFiltered(t *testing.T) {
	build := func() *SeriesRecorder {
		r := NewSeriesRecorder()
		b := r.NewBuffer(0)
		a, c := b.Track(tsA, 3), b.Track(tsB, 0)
		a.Sample(time.Millisecond, 1.5)
		a.Sample(50*time.Millisecond, 2.25)
		c.Sample(time.Millisecond, 7)
		b.Flush()
		r.Drain(b)
		return r
	}
	var w1, w2 bytes.Buffer
	if err := build().WriteCSV(&w1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteCSV(&w2); err != nil {
		t.Fatal(err)
	}
	if w1.String() != w2.String() {
		t.Fatal("CSV bytes differ across identical builds")
	}
	if !strings.HasPrefix(w1.String(), "series,tid,t_ms,count,min,mean,max,last\n") {
		t.Fatalf("missing header: %q", w1.String())
	}
	if !strings.Contains(w1.String(), "test.a,3,0,1,1.5,1.5,1.5,1.5\n") {
		t.Fatalf("unexpected CSV body:\n%s", w1.String())
	}
	var fw bytes.Buffer
	if err := build().WriteCSVFiltered(&fw, []string{"test.b"}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(fw.String(), "test.a") || !strings.Contains(fw.String(), "test.b") {
		t.Fatalf("filter failed:\n%s", fw.String())
	}
}

func TestSeriesDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate series registration must panic")
		}
	}()
	Series("test.a")
}

func TestSeriesNamesSorted(t *testing.T) {
	names := SeriesNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not strictly sorted: %v", names)
		}
	}
	found := false
	for _, n := range names {
		if n == "test.a" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered series missing from SeriesNames")
	}
}

// refSeriesRing is the reference model the growing series ring is checked
// against: the ring allocated at full capacity up front that it replaced,
// kept here only as the tests' oracle.
type refSeriesRing struct {
	ring       []int64 // window indices
	next, fill int
	dropped    uint64
}

func (r *refSeriesRing) emit(win int64) {
	if r.fill == len(r.ring) {
		r.dropped++
	} else {
		r.fill++
	}
	r.ring[r.next] = win
	r.next = (r.next + 1) % len(r.ring)
}

func (r *refSeriesRing) drain() []int64 {
	out := make([]int64, 0, r.fill)
	start := (r.next - r.fill + len(r.ring)) % len(r.ring)
	for i := 0; i < r.fill; i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	r.next, r.fill = 0, 0
	return out
}

// TestSeriesRingMatchesPresizedRing: interval sizes below, exactly at and
// above the cap - across several drains, so a ring that wrapped is reused
// - must yield the points, order and Dropped count of a pre-sized ring.
func TestSeriesRingMatchesPresizedRing(t *testing.T) {
	const bufCap = 200 // not a power of two: growth must clamp to it
	r := NewSeriesRecorder()
	r.SetBufferCap(bufCap)
	b := r.NewBuffer(0)
	tr := b.Track(tsA, 0)
	ref := &refSeriesRing{ring: make([]int64, bufCap)}
	var want []int64
	win := int64(0)
	for _, n := range []int{0, 1, 63, 64, 65, bufCap - 1, bufCap, bufCap + 1, 3*bufCap + 7, 5, bufCap, 2 * bufCap} {
		// Each sample lands in a new window, closing the previous one: n
		// samples emit n points once the first window of all is open.
		for i := 0; i < n; i++ {
			if win > 0 {
				ref.emit(win - 1)
			}
			tr.Sample(time.Duration(win)*SeriesWindow, 1)
			win++
		}
		if cap(b.ring) > bufCap {
			t.Fatalf("ring grew to %d points, cap is %d", cap(b.ring), bufCap)
		}
		want = append(want, ref.drain()...)
		r.Drain(b)
		if r.Dropped != ref.dropped {
			t.Fatalf("after an interval of %d: Dropped = %d, pre-sized ring dropped %d", n, r.Dropped, ref.dropped)
		}
		if r.Len() != len(want) {
			t.Fatalf("after an interval of %d: %d points drained, pre-sized ring holds %d", n, r.Len(), len(want))
		}
		for i, p := range r.points {
			if p.Win != want[i] {
				t.Fatalf("after an interval of %d: drained point %d is window %d, pre-sized ring says %d", n, i, p.Win, want[i])
			}
		}
	}
	if ref.dropped == 0 {
		t.Fatal("script never overflowed the ring")
	}
}

// TestSeriesSampleWithinCapacityAllocatesNothing: once the ring has grown
// to an interval's size, sampling - including the window close that emits
// a point - allocates nothing.
func TestSeriesSampleWithinCapacityAllocatesNothing(t *testing.T) {
	r := NewSeriesRecorder()
	b := r.NewBuffer(0)
	tr := b.Track(tsA, 0)
	win := int64(0)
	interval := func() {
		for i := 0; i < 500; i++ {
			tr.Sample(time.Duration(win)*SeriesWindow, 1)
			tr.Sample(time.Duration(win)*SeriesWindow+time.Millisecond, 2)
			win++
		}
	}
	interval()
	r.Drain(b)
	allocs := testing.AllocsPerRun(10, func() {
		interval()
		b.ring, b.next = b.ring[:0], 0 // what Drain does to the buffer, without growing the recorder
	})
	if allocs != 0 {
		t.Fatalf("an interval of 500 points allocates %.1f objects, want 0", allocs)
	}
}
