package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"
)

// Trace event phases, a subset of the Chrome trace-event format that
// Perfetto renders natively: complete spans, counter series and instant
// markers.
const (
	PhaseComplete = 'X'
	PhaseCounter  = 'C'
	PhaseInstant  = 'i'
)

// TraceEvent is one virtual-time trace record. TS and Dur are virtual
// simulation time; Pid is the shard that produced the event (Perfetto
// groups tracks by pid) and Tid subdivides a shard's tracks (0 for
// shard-level events, the flow ID for per-flow timelines). V carries the
// sample of a counter event.
type TraceEvent struct {
	Name string
	Cat  string
	Ph   byte
	TS   time.Duration
	Dur  time.Duration
	Pid  int
	Tid  int
	V    float64

	// seq orders events with equal (TS, Pid): it is assigned per shard
	// buffer in emission order, which inside one shard is execution
	// order. (TS, Pid, seq) is therefore a total order independent of
	// which OS thread advanced the shard.
	seq uint64
}

// Buffer is one shard's trace ring: only that shard's goroutine appends
// during a window, and the recorder drains it serially at the window
// barrier, so no synchronization is needed. When a single window emits
// more events than the ring holds, the oldest events of that window are
// overwritten (Dropped counts them).
type Buffer struct {
	pid     int
	ring    []TraceEvent
	next    int
	fill    int
	seq     uint64
	Dropped uint64
}

// DefaultBufferCap is the per-shard ring capacity. Rings are drained at
// every synchronization window barrier, so the cap bounds one window's
// emission, not the whole run's.
const DefaultBufferCap = 1 << 15

// Pid returns the shard id the buffer belongs to.
func (b *Buffer) Pid() int { return b.pid }

func (b *Buffer) emit(ev TraceEvent) {
	b.seq++
	ev.Pid, ev.seq = b.pid, b.seq
	if b.fill == len(b.ring) {
		b.Dropped++
	} else {
		b.fill++
	}
	b.ring[b.next] = ev
	b.next = (b.next + 1) % len(b.ring)
}

// Complete emits a span covering [ts, ts+dur).
func (b *Buffer) Complete(name, cat string, ts, dur time.Duration, tid int) {
	b.emit(TraceEvent{Name: name, Cat: cat, Ph: PhaseComplete, TS: ts, Dur: dur, Tid: tid})
}

// CounterEvent emits one sample of a counter series. Perfetto plots one
// track per (pid, name), so per-flow series bake the flow into the name.
func (b *Buffer) CounterEvent(name string, ts time.Duration, v float64) {
	b.emit(TraceEvent{Name: name, Cat: "counter", Ph: PhaseCounter, TS: ts, V: v})
}

// Instant emits a point marker.
func (b *Buffer) Instant(name, cat string, ts time.Duration, tid int) {
	b.emit(TraceEvent{Name: name, Cat: cat, Ph: PhaseInstant, TS: ts, Tid: tid})
}

// Recorder collects the trace of one simulation run: it owns one ring
// buffer per shard and accumulates drained events. Buffers are created
// and drained only from the cluster's serial phases, in shard order, so
// the accumulated sequence - like everything else in a sharded run - is
// independent of the worker count.
type Recorder struct {
	bufCap  int
	events  []TraceEvent
	Dropped uint64 // events lost to ring overwrites across all shards
}

// NewRecorder returns a recorder whose shard buffers hold DefaultBufferCap
// events each.
func NewRecorder() *Recorder { return &Recorder{bufCap: DefaultBufferCap} }

// SetBufferCap overrides the per-shard ring capacity for buffers created
// afterwards (tests use tiny rings to exercise overwrite).
func (r *Recorder) SetBufferCap(n int) {
	if n < 1 {
		n = 1
	}
	r.bufCap = n
}

// NewBuffer creates the ring buffer for shard pid.
func (r *Recorder) NewBuffer(pid int) *Buffer {
	return &Buffer{pid: pid, ring: make([]TraceEvent, r.bufCap)}
}

// Drain moves the buffer's events (oldest first) into the recorder and
// resets the ring. Call only from a serial phase.
func (r *Recorder) Drain(b *Buffer) {
	if b == nil || b.fill == 0 {
		r.drainDropped(b)
		return
	}
	start := b.next - b.fill
	if start < 0 {
		start += len(b.ring)
	}
	for i := 0; i < b.fill; i++ {
		r.events = append(r.events, b.ring[(start+i)%len(b.ring)])
	}
	b.next, b.fill = 0, 0
	r.drainDropped(b)
}

func (r *Recorder) drainDropped(b *Buffer) {
	if b != nil && b.Dropped > 0 {
		r.Dropped += b.Dropped
		b.Dropped = 0
	}
}

// Events returns the merged trace sorted by (TS, Pid, seq) - a total
// order, so the result is deterministic no matter how the run's windows
// interleaved across workers.
func (r *Recorder) Events() []TraceEvent {
	sort.SliceStable(r.events, func(i, j int) bool {
		a, b := &r.events[i], &r.events[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		return a.seq < b.seq
	})
	return r.events
}

// Len returns the number of drained events held by the recorder.
func (r *Recorder) Len() int { return len(r.events) }

// WriteChromeTrace renders the merged trace as Chrome trace-event JSON,
// viewable in Perfetto (ui.perfetto.dev) or chrome://tracing. Virtual
// nanoseconds map to trace microseconds with three decimals, so one
// trace millisecond is one simulated millisecond. The encoder is
// hand-rolled to keep field order (and therefore bytes) deterministic.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, ev := range r.Events() {
		sep := ","
		if i == len(r.events)-1 {
			sep = ""
		}
		ts := float64(ev.TS) / float64(time.Microsecond)
		switch ev.Ph {
		case PhaseComplete:
			dur := float64(ev.Dur) / float64(time.Microsecond)
			fmt.Fprintf(bw, "{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d}%s\n",
				ev.Name, ev.Cat, ts, dur, ev.Pid, ev.Tid, sep)
		case PhaseCounter:
			fmt.Fprintf(bw, "{\"name\":%q,\"cat\":%q,\"ph\":\"C\",\"ts\":%.3f,\"pid\":%d,\"args\":{\"v\":%g}}%s\n",
				ev.Name, ev.Cat, ts, ev.Pid, ev.V, sep)
		case PhaseInstant:
			fmt.Fprintf(bw, "{\"name\":%q,\"cat\":%q,\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d}%s\n",
				ev.Name, ev.Cat, ts, ev.Pid, ev.Tid, sep)
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
