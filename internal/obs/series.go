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
// last) aggregates. Like the trace recorder, series points land in
// per-shard ring buffers that only their shard's goroutine touches
// during a window and that the cluster drains serially at every window
// barrier; the merged stream sorts by (window, shard, seq), a total
// order, so the bytes are identical for any shard or worker width.
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

// Name returns the registered signal name.
func (d *SeriesDef) Name() string { return d.name }

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

	// pid/seq mirror the trace recorder's merge key: pid is the shard
	// that produced the point and seq its per-shard flush order, so
	// (Win, pid, seq) is a total order independent of worker scheduling.
	pid int
	seq uint64
}

// Time returns the window's start in virtual time.
func (p SeriesPoint) Time() time.Duration { return time.Duration(p.Win) * SeriesWindow }

// Pid returns the shard that produced the point.
func (p SeriesPoint) Pid() int { return p.pid }

// Sum returns the window's sample sum (Mean * Count), the building block
// for volume-style signals such as acked bytes per window.
func (p SeriesPoint) Sum() float64 { return p.Mean * float64(p.Count) }

// DefaultSeriesCap is the per-shard series ring capacity. Rings drain at
// every synchronization window barrier, so the cap bounds one barrier
// interval's flushed points, not the whole run's.
const DefaultSeriesCap = 1 << 14

// seriesInitialCap is the ring's first allocation; it doubles on demand up
// to the buffer's bufCap.
const seriesInitialCap = 64

// SeriesBuffer is one shard's series ring plus its live track aggregates.
// Only the shard's goroutine samples during a window; the recorder drains
// the ring serially at the barrier. The ring grows on demand up to bufCap
// points; beyond that the oldest points of the interval are overwritten
// (Dropped counts them).
type SeriesBuffer struct {
	pid     int
	bufCap  int
	ring    []SeriesPoint // the interval's points; below bufCap, oldest first
	next    int           // at bufCap: the oldest point, the next overwritten
	seq     uint64
	Dropped uint64

	tracks map[seriesKey]*SeriesTrack
	order  []*SeriesTrack // creation order, for the deterministic final flush
}

type seriesKey struct {
	def *SeriesDef
	tid int
}

// Pid returns the shard id the buffer belongs to.
func (b *SeriesBuffer) Pid() int { return b.pid }

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
	t := &SeriesTrack{buf: b, def: def, tid: tid}
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
	if len(b.ring) < b.bufCap {
		if len(b.ring) == cap(b.ring) {
			b.grow()
		}
		b.ring = append(b.ring, p)
		return
	}
	b.Dropped++
	b.ring[b.next] = p
	b.next = (b.next + 1) % b.bufCap
}

// grow doubles the ring's backing array, never past bufCap.
func (b *SeriesBuffer) grow() {
	n := 2 * cap(b.ring)
	if n < seriesInitialCap {
		n = seriesInitialCap
	}
	if n > b.bufCap {
		n = b.bufCap
	}
	ring := make([]SeriesPoint, len(b.ring), n)
	copy(ring, b.ring)
	b.ring = ring
}

// SeriesTrack accumulates one signal instance's samples into the current
// 40 ms window; the aggregate flushes into the shard's ring when a sample
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
type SeriesRecorder struct {
	bufCap  int
	points  []SeriesPoint
	Dropped uint64 // points lost to ring overwrites across all shards
}

// NewSeriesRecorder returns a recorder whose shard buffers hold
// DefaultSeriesCap points each.
func NewSeriesRecorder() *SeriesRecorder { return &SeriesRecorder{bufCap: DefaultSeriesCap} }

// SetBufferCap overrides the per-shard ring capacity for buffers created
// afterwards (tests use tiny rings to exercise overwrite).
func (r *SeriesRecorder) SetBufferCap(n int) {
	if n < 1 {
		n = 1
	}
	r.bufCap = n
}

// NewBuffer creates the series buffer for shard pid.
func (r *SeriesRecorder) NewBuffer(pid int) *SeriesBuffer {
	return &SeriesBuffer{
		pid:    pid,
		bufCap: r.bufCap,
		tracks: map[seriesKey]*SeriesTrack{},
	}
}

// Drain moves the buffer's flushed points (oldest first) into the
// recorder and resets the ring. Call only from a serial phase. Open
// window aggregates stay in their tracks - a window may span barriers.
func (r *SeriesRecorder) Drain(b *SeriesBuffer) {
	if b == nil {
		return
	}
	// A ring that wrapped holds its oldest point at next; one that did not
	// has next == 0, and the second copy moves nothing.
	r.points = append(r.points, b.ring[b.next:]...)
	r.points = append(r.points, b.ring[:b.next]...)
	b.ring, b.next = b.ring[:0], 0
	if b.Dropped > 0 {
		r.Dropped += b.Dropped
		b.Dropped = 0
	}
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

// SeriesKeyID identifies one recorded track.
type SeriesKeyID struct {
	Name string
	Tid  int
}

// Keys returns the distinct (name, tid) tracks present in the recorder,
// sorted by name then tid.
func (r *SeriesRecorder) Keys() []SeriesKeyID {
	seen := map[SeriesKeyID]bool{}
	var keys []SeriesKeyID
	for _, p := range r.points {
		k := SeriesKeyID{p.Name, p.Tid}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Name != keys[j].Name {
			return keys[i].Name < keys[j].Name
		}
		return keys[i].Tid < keys[j].Tid
	})
	return keys
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
