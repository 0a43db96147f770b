package obs

import (
	"bytes"
	"encoding/json"
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
		if p.Win != wantWin || p.pid != wantPid {
			t.Fatalf("point %d: got (win %d, pid %d), want (%d, %d)", i, p.Win, p.pid, wantWin, wantPid)
		}
	}
}

// TestSeriesKeepsEveryPoint: one drain interval far larger than any
// shard emits between barriers is kept whole and in order - the buffer
// never overwrites.
func TestSeriesKeepsEveryPoint(t *testing.T) {
	const n = 20000
	r := NewSeriesRecorder()
	b := r.NewBuffer(0)
	tr := b.Track(tsA, 0)
	for w := 0; w < n; w++ {
		tr.Sample(time.Duration(w)*SeriesWindow, float64(w))
	}
	b.Flush()
	r.Drain(b)
	pts := r.Points()
	if len(pts) != n {
		t.Fatalf("kept %d points, want %d", len(pts), n)
	}
	for i, p := range pts {
		if p.Win != int64(i) || p.Mean != float64(i) {
			t.Fatalf("point %d is window %d (mean %v), want window %d", i, p.Win, p.Mean, i)
		}
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

// TestSeriesSampleWithinCapacityAllocatesNothing: once the buffer has grown
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
		b.pts = b.pts[:0] // what Drain does to the buffer, without growing the recorder
	})
	if allocs != 0 {
		t.Fatalf("an interval of 500 points allocates %.1f objects, want 0", allocs)
	}
}

// TestWriteChromeTraceValidAndDeterministic: the trace is valid JSON,
// identical across identical recorders, maps each point to a counter on
// its shard's series track, and drops a track to 0 in the window after
// its last point before a gap.
func TestWriteChromeTraceValidAndDeterministic(t *testing.T) {
	build := func() *SeriesRecorder {
		r := NewSeriesRecorder()
		b := r.NewBuffer(2)
		rate, shed := b.Track(tsA, 7), b.Track(tsB, 7)
		rate.Sample(10*time.Millisecond, 3.25)
		rate.Sample(50*time.Millisecond, 4)
		shed.Sample(50*time.Millisecond, 1)
		rate.Sample(170*time.Millisecond, 5) // windows 2 and 3 have no point
		b.Flush()
		r.Drain(b)
		return r
	}
	var a, b bytes.Buffer
	if err := build().WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical recorders produced different trace bytes")
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Pid  int     `json:"pid"`
			Args map[string]float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, a.String())
	}
	type ev struct {
		name string
		ts   float64
		v    float64
	}
	// Virtual nanoseconds render as microsecond ts: window 1 -> 40000 µs.
	want := []ev{
		{"series/test.a/7", 0, 3.25},
		{"series/test.a/7", 40000, 4},
		{"series/test.b/7", 40000, 1},
		{"series/test.a/7", 80000, 0},
		{"series/test.b/7", 80000, 0},
		{"series/test.a/7", 160000, 5},
		{"series/test.a/7", 200000, 0},
	}
	if len(doc.TraceEvents) != len(want) {
		t.Fatalf("trace has %d events, want %d:\n%s", len(doc.TraceEvents), len(want), a.String())
	}
	for i, w := range want {
		got := doc.TraceEvents[i]
		if got.Name != w.name || got.Ph != "C" || got.TS != w.ts || got.Pid != 2 || got.Args["v"] != w.v {
			t.Fatalf("event %d = %+v, want %+v on pid 2", i, got, w)
		}
	}
}
