// Package obs is the simulation-native observability layer: a typed
// metrics registry, a virtual-time trace recorder, and runtime-profiling
// helpers, shared by the sim engine, the network model, the congestion
// controllers and the media subsystem.
//
// Two invariants shape every type here:
//
//   - Deterministic: nothing in this package draws randomness, schedules
//     events, or otherwise feeds back into the simulation. Enabling
//     metrics or tracing must leave every sweep row byte-identical -
//     CI gates on exactly that. Counter totals, watermarks and histogram
//     buckets are order-independent reductions (sums and maxes), so even
//     a snapshot taken after a parallel sweep is the same for any worker
//     or shard count.
//
//   - Zero-cost when disabled: every metric write starts with one atomic
//     flag load and a predictable branch; no allocation, no lock, no map
//     lookup. Instrumented hot paths (the event engine schedules in
//     ~100 ns) stay within the CI benchmark budget with metrics off.
//
// Metrics are registered once, at package init time of the instrumented
// package, through NewCounter / NewWatermark / NewHistogram. Snapshot
// renders the registry as deterministic JSON (sorted names, integer
// values).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
)

// enabled is the global metrics switch. Off by default: a plain library
// user or a CI determinism gate pays one atomic load per instrumented
// site and nothing else.
var enabled atomic.Bool

// Enable turns metric collection on.
func Enable() { enabled.Store(true) }

// Disable turns metric collection off. Recorded values are kept until
// Reset.
func Disable() { enabled.Store(false) }

// Enabled reports whether metric collection is on.
func Enabled() bool { return enabled.Load() }

// registry holds every metric ever registered. Registration happens at
// package init time (and in tests), so a mutex-guarded map is fine; the
// write path never touches it.
var registry = struct {
	sync.Mutex
	counters   map[string]*Counter
	watermarks map[string]*Watermark
	histograms map[string]*Histogram
}{
	counters:   map[string]*Counter{},
	watermarks: map[string]*Watermark{},
	histograms: map[string]*Histogram{},
}

func registerName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	if _, ok := registry.counters[name]; ok {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	if _, ok := registry.watermarks[name]; ok {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	if _, ok := registry.histograms[name]; ok {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
}

// Counter is a monotonically increasing event count. Concurrent
// increments from parallel shards sum to the same total regardless of
// interleaving, so counters are safe to snapshot deterministically.
type Counter struct {
	name string
	v    atomic.Uint64
}

// NewCounter registers a counter under a unique name.
func NewCounter(name string) *Counter {
	registry.Lock()
	defer registry.Unlock()
	registerName(name)
	c := &Counter{name: name}
	registry.counters[name] = c
	return c
}

// Inc adds one.
func (c *Counter) Inc() {
	if enabled.Load() {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if enabled.Load() {
		c.v.Add(n)
	}
}

// Value returns the current total.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Watermark tracks the maximum observed value. Max is commutative, so -
// like a counter - the final value is independent of the order in which
// parallel shards observe. (A last-write-wins gauge would not be; that
// is why the registry has no plain gauge type.)
type Watermark struct {
	name string
	v    atomic.Int64
}

// NewWatermark registers a high-watermark metric under a unique name.
func NewWatermark(name string) *Watermark {
	registry.Lock()
	defer registry.Unlock()
	registerName(name)
	w := &Watermark{name: name}
	registry.watermarks[name] = w
	return w
}

// Observe folds in one sample, keeping the maximum.
func (w *Watermark) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	for {
		cur := w.v.Load()
		if v <= cur {
			return
		}
		if w.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the highest observed value.
func (w *Watermark) Value() int64 { return w.v.Load() }

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts samples v with bits.Len64(v) == i, i.e. 0, 1, 2-3, 4-7, ... up
// to the full uint64 range.
const histBuckets = 65

// Histogram is a fixed-bucket power-of-two histogram of non-negative
// integer samples (bytes, counts, microseconds). Bucket assignment is a
// bit-length computation - no float math, no allocation - and bucket
// counts are order-independent sums.
type Histogram struct {
	name    string
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// NewHistogram registers a histogram under a unique name.
func NewHistogram(name string) *Histogram {
	registry.Lock()
	defer registry.Unlock()
	registerName(name)
	h := &Histogram{name: name}
	registry.histograms[name] = h
	return h
}

// Observe folds in one sample; negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(uint64(v))
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Count returns the number of observed samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed samples.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Reset zeroes every registered metric (between sweep runs, and in
// tests). It does not change the enabled flag.
func Reset() {
	registry.Lock()
	defer registry.Unlock()
	for _, c := range registry.counters {
		c.v.Store(0)
	}
	for _, w := range registry.watermarks {
		w.v.Store(0)
	}
	for _, h := range registry.histograms {
		h.count.Store(0)
		h.sum.Store(0)
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
	}
}

// HistBucket is one non-empty histogram bucket in a snapshot: Le is the
// inclusive upper bound of the bucket's value range.
type HistBucket struct {
	Le uint64 `json:"le"`
	N  uint64 `json:"n"`
}

// HistSnapshot is one histogram's state in a snapshot.
type HistSnapshot struct {
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of the registry, suitable for
// deterministic JSON encoding (encoding/json sorts map keys). SpecHash
// is an optional header identifying the sweep spec the snapshot was
// recorded under (sweep.SpecHash); pbesweep -diff rejects a comparison
// when the hashes differ, so a stale .obs.json from an older matrix
// cannot masquerade as a regression or an improvement.
type Snapshot struct {
	SpecHash   string                  `json:"spec_hash,omitempty"`
	Counters   map[string]uint64       `json:"counters"`
	Watermarks map[string]int64        `json:"watermarks"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// bucketUpperBound returns the inclusive upper bound of bucket i.
func bucketUpperBound(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// TakeSnapshot copies every registered metric's current value.
func TakeSnapshot() Snapshot {
	registry.Lock()
	defer registry.Unlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(registry.counters)),
		Watermarks: make(map[string]int64, len(registry.watermarks)),
		Histograms: make(map[string]HistSnapshot, len(registry.histograms)),
	}
	for name, c := range registry.counters {
		s.Counters[name] = c.v.Load()
	}
	for name, w := range registry.watermarks {
		s.Watermarks[name] = w.v.Load()
	}
	for name, h := range registry.histograms {
		hs := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
		for i := range h.buckets {
			if n := h.buckets[i].Load(); n > 0 {
				hs.Buckets = append(hs.Buckets, HistBucket{Le: bucketUpperBound(i), N: n})
			}
		}
		s.Histograms[name] = hs
	}
	return s
}

// WriteSnapshotSpec renders the registry as indented JSON under the given
// spec-hash header. Map keys encode sorted, so the bytes are deterministic
// for a given registry state.
func WriteSnapshotSpec(w io.Writer, specHash string) error {
	s := TakeSnapshot()
	s.SpecHash = specHash
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
