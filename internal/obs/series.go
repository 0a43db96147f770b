package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The series layer is the registry's virtual-time sibling: where a
// Counter folds every sample into one order-independent total, a series
// keeps the sample stream's shape over time - downsampled into fixed
// 40 ms windows (the monitor's smoothing window, so one series point
// aligns with one capacity-estimation window) as (count, min, mean, max,
// last) aggregates. Series points land in per-shard append-only buffers
// that only their shard's goroutine touches during a window and that the
// cluster drains serially at every window barrier; the merged stream
// sorts by (window, shard, seq), a total order, so the bytes are
// identical for any shard or worker width. The series is the simulator's
// one virtual-time recorder: CSV, the trajectory analytics and the
// Perfetto trace are all views of it.
//
// Series definitions are registered once, at package init time of the
// instrumented package, through Series(name). Instrumented sites hold a
// *SeriesTrack that is nil when the run records no series; Sample on a
// nil track is a single predictable branch - the series analog of the
// registry's atomic-load gate - so an unrecorded run pays nothing else.

// SeriesWindow is the fixed downsampling window: one point per track per
// 40 ms, matching the PBE monitor's capacity-smoothing window so series
// points and capacity estimates describe the same time slices.
const SeriesWindow = 40 * time.Millisecond

// SeriesDef is one registered series type (a signal name, e.g.
// "cc.rate"). Concrete tracks are (def, tid) pairs created against a
// shard's SeriesBuffer.
type SeriesDef struct {
	name string
}

var seriesRegistry = struct {
	sync.Mutex
	defs map[string]*SeriesDef
}{defs: map[string]*SeriesDef{}}

// Series registers a series definition under a unique signal name, at
// package init time of the instrumented package.
func Series(name string) *SeriesDef {
	seriesRegistry.Lock()
	defer seriesRegistry.Unlock()
	if name == "" {
		panic("obs: empty series name")
	}
	if _, ok := seriesRegistry.defs[name]; ok {
		panic(fmt.Sprintf("obs: duplicate series %q", name))
	}
	d := &SeriesDef{name: name}
	seriesRegistry.defs[name] = d
	return d
}

// SeriesNames returns every registered series name, sorted (for pbesim's
// -series-filter validation and the -list output).
func SeriesNames() []string {
	seriesRegistry.Lock()
	defer seriesRegistry.Unlock()
	names := make([]string, 0, len(seriesRegistry.defs))
	for n := range seriesRegistry.defs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SeriesPoint is one downsampled window of one track: the aggregate of
// every Sample that landed in window Win (virtual time [Win*40ms,
// (Win+1)*40ms)).
type SeriesPoint struct {
	Name  string
	Tid   int   // track instance: flow ID, UE ID, ... per the signal's docs
	Win   int64 // window index; start time is Win * SeriesWindow
	Count int
	Min   float64
	Mean  float64
	Max   float64
	Last  float64

	// pid is the shard that produced the point and seq its per-shard
	// flush order, so (Win, pid, seq) is a total order independent of
	// worker scheduling.
	pid int
	seq uint64
}

// Time returns the window's start in virtual time.
func (p SeriesPoint) Time() time.Duration { return time.Duration(p.Win) * SeriesWindow }

// Sum returns the window's sample sum (Mean * Count), the building block
// for volume-style signals such as acked bytes per window.
func (p SeriesPoint) Sum() float64 { return p.Mean * float64(p.Count) }

// SeriesBuffer is one shard's flushed points plus its live track
// aggregates. Only the shard's goroutine samples during a window; the
// recorder drains the points serially at the barrier. The buffer only
// appends, so every point a run flushes reaches the recorder.
type SeriesBuffer struct {
	pid    int
	pts    []SeriesPoint // the interval's points, oldest first
	seq    uint64
	tracks map[seriesKey]*SeriesTrack
	order  []*SeriesTrack // creation order, for the deterministic final flush
}

type seriesKey struct {
	def *SeriesDef
	tid int
}

// Track returns the buffer's track for (def, tid), creating it on first
// use. Callers cache the pointer; repeated calls return the same track,
// so several instrumentation sites may feed one signal.
func (b *SeriesBuffer) Track(def *SeriesDef, tid int) *SeriesTrack {
	if b == nil {
		return nil
	}
	k := seriesKey{def, tid}
	if t, ok := b.tracks[k]; ok {
		return t
	}
	var t *SeriesTrack
	if n := len(b.order); n < cap(b.order) {
		t = b.order[:n+1][n] // a track of the buffer's previous run, if any
	}
	if t == nil {
		t = new(SeriesTrack)
	}
	*t = SeriesTrack{buf: b, def: def, tid: tid}
	b.tracks[k] = t
	b.order = append(b.order, t)
	return t
}

// Flush closes every track's open window, emitting its aggregate as a
// point. Call only at end of run (from a serial phase): mid-run windows
// close themselves when a later sample arrives.
func (b *SeriesBuffer) Flush() {
	if b == nil {
		return
	}
	for _, t := range b.order {
		if t.count > 0 {
			t.flush()
		}
	}
}

func (b *SeriesBuffer) emit(p SeriesPoint) {
	b.seq++
	p.pid, p.seq = b.pid, b.seq
	b.pts = append(b.pts, p)
}

// SeriesTrack accumulates one signal instance's samples into the current
// 40 ms window; the aggregate flushes into the shard's buffer when a sample
// lands in a later window (or at the end-of-run Flush).
type SeriesTrack struct {
	buf *SeriesBuffer
	def *SeriesDef
	tid int

	win      int64
	count    int
	min, max float64
	sum      float64
	last     float64
}

// Sample folds one (virtual time, value) observation into the track. A
// nil track (the run records no series) is a single branch and returns.
func (t *SeriesTrack) Sample(ts time.Duration, v float64) {
	if t == nil {
		return
	}
	w := int64(ts / SeriesWindow)
	if t.count > 0 && w != t.win {
		t.flush()
	}
	if t.count == 0 {
		t.win, t.min, t.max = w, v, v
	} else {
		if v < t.min {
			t.min = v
		}
		if v > t.max {
			t.max = v
		}
	}
	t.sum += v
	t.last = v
	t.count++
}

func (t *SeriesTrack) flush() {
	t.buf.emit(SeriesPoint{
		Name:  t.def.name,
		Tid:   t.tid,
		Win:   t.win,
		Count: t.count,
		Min:   t.min,
		Mean:  t.sum / float64(t.count),
		Max:   t.max,
		Last:  t.last,
	})
	t.count, t.sum = 0, 0
}

// SeriesRecorder collects one run's series: one buffer per shard, drained
// at the cluster's serial phases, merged into a deterministic stream.
// Reset readies it for another run on the storage this one grew.
type SeriesRecorder struct {
	points []SeriesPoint

	// bufs are the buffers NewBuffer handed out; after a Reset, bufs[next:]
	// are the previous run's, reused in order by the next NewBuffer calls.
	bufs []*SeriesBuffer
	next int
}

// Reset empties the recorder for another run, keeping its point storage
// and the shard buffers - point slices, track maps and tracks - for the
// next run's NewBuffer calls. Buffers the previous run did not need are
// dropped.
// Nothing the previous run handed out may be used afterwards.
func (r *SeriesRecorder) Reset() {
	clear(r.bufs[r.next:])
	r.bufs = r.bufs[:r.next]
	r.next = 0
	r.points = r.points[:0]
}

// NewSeriesRecorder returns an empty recorder.
func NewSeriesRecorder() *SeriesRecorder { return &SeriesRecorder{} }

// NewBuffer creates the series buffer for shard pid, on a buffer of the
// previous run when Reset kept one.
func (r *SeriesRecorder) NewBuffer(pid int) *SeriesBuffer {
	if r.next < len(r.bufs) {
		b := r.bufs[r.next]
		r.next++
		clear(b.tracks)
		*b = SeriesBuffer{pid: pid, pts: b.pts[:0], tracks: b.tracks, order: b.order[:0]}
		return b
	}
	b := &SeriesBuffer{pid: pid, tracks: map[seriesKey]*SeriesTrack{}}
	r.bufs = append(r.bufs, b)
	r.next = len(r.bufs)
	return b
}

// Drain moves the buffer's flushed points (oldest first) into the
// recorder and empties the buffer. Call only from a serial phase. Open
// window aggregates stay in their tracks - a window may span barriers.
func (r *SeriesRecorder) Drain(b *SeriesBuffer) {
	if b == nil {
		return
	}
	r.points = append(r.points, b.pts...)
	b.pts = b.pts[:0]
}

// Points returns the merged series sorted by (Win, Pid, seq) - a total
// order, so the result is byte-identical for any shard/worker width.
func (r *SeriesRecorder) Points() []SeriesPoint {
	sort.SliceStable(r.points, func(i, j int) bool {
		a, b := &r.points[i], &r.points[j]
		if a.Win != b.Win {
			return a.Win < b.Win
		}
		if a.pid != b.pid {
			return a.pid < b.pid
		}
		return a.seq < b.seq
	})
	return r.points
}

// Len returns the number of drained points held by the recorder.
func (r *SeriesRecorder) Len() int { return len(r.points) }

// TrackPoints returns the merged points of one (name, tid) track, in
// window order.
func (r *SeriesRecorder) TrackPoints(name string, tid int) []SeriesPoint {
	var out []SeriesPoint
	for _, p := range r.Points() {
		if p.Name == name && p.Tid == tid {
			out = append(out, p)
		}
	}
	return out
}

// fmtG renders a float with the shortest round-trip representation -
// deterministic bytes for a given value.
func fmtG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteCSV renders the merged series as CSV: one row per point, sorted by
// (window, shard, seq), with shortest-round-trip float formatting, so the
// bytes are deterministic for any shard/worker width.
func (r *SeriesRecorder) WriteCSV(w io.Writer) error {
	return r.WriteCSVFiltered(w, nil)
}

// WriteCSVFiltered is WriteCSV restricted to the named signals (nil or
// empty keeps everything).
func (r *SeriesRecorder) WriteCSVFiltered(w io.Writer, names []string) error {
	keep := map[string]bool{}
	for _, n := range names {
		keep[n] = true
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("series,tid,t_ms,count,min,mean,max,last\n"); err != nil {
		return err
	}
	for _, p := range r.Points() {
		if len(keep) > 0 && !keep[p.Name] {
			continue
		}
		fmt.Fprintf(bw, "%s,%d,%d,%d,%s,%s,%s,%s\n",
			p.Name, p.Tid, p.Time().Milliseconds(), p.Count,
			fmtG(p.Min), fmtG(p.Mean), fmtG(p.Max), fmtG(p.Last))
	}
	return bw.Flush()
}

// WriteChromeTrace renders the merged series as Chrome trace-event JSON,
// viewable in Perfetto (ui.perfetto.dev) or chrome://tracing: every point
// becomes a counter sample of its window mean on track
// "series/<name>/<tid>" under the process of the shard that produced it.
// A track that has no point in the window after one it does have drops
// to 0 there, so event signals (fault.inject, rtc.shed) show as pulses
// instead of holding their last value. Virtual nanoseconds map to trace
// microseconds with three decimals, so one trace millisecond is one
// simulated millisecond, and the bytes are deterministic for any shard or
// worker width.
func (r *SeriesRecorder) WriteChromeTrace(w io.Writer) error {
	type track struct {
		name     string
		tid, pid int
	}
	pts := r.Points()
	// gap[i]: the track of point i has no point in window pts[i].Win+1.
	gap := make([]bool, len(pts))
	last := map[track]int{}
	for i, p := range pts {
		k := track{p.Name, p.Tid, p.pid}
		if j, ok := last[k]; ok {
			gap[j] = p.Win > pts[j].Win+1
		}
		gap[i] = true
		last[k] = i
	}
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
	sep := "\n"
	counter := func(p *SeriesPoint, win int64, v float64) {
		ts := float64(time.Duration(win)*SeriesWindow) / float64(time.Microsecond)
		fmt.Fprintf(bw, "%s{\"name\":\"series/%s/%d\",\"cat\":\"series\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":%d,\"args\":{\"v\":%g}}",
			sep, p.Name, p.Tid, ts, p.pid, v)
		sep = ",\n"
	}
	// Drops to 0 are written once the merge reaches their window, so the
	// stream stays in time order.
	var drops []*SeriesPoint
	for i := range pts {
		p := &pts[i]
		for len(drops) > 0 && drops[0].Win < p.Win {
			counter(drops[0], drops[0].Win+1, 0)
			drops = drops[1:]
		}
		counter(p, p.Win, p.Mean)
		if gap[i] {
			drops = append(drops, p)
		}
	}
	for _, p := range drops {
		counter(p, p.Win+1, 0)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
