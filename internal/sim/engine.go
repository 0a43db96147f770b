// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulated subsystems (cellular MAC, wired links, congestion-control
// senders) schedule callbacks on a shared virtual clock. Events scheduled for
// the same instant run in scheduling order, which together with seeded
// randomness makes every simulation run exactly reproducible.
//
// The engine is built for the per-job hot path of large scenario sweeps. The
// priority queue is a 4-ary heap (shallower than a binary heap, fewer
// comparisons per sift) of pointer-free 16-byte entries: the firing time and
// a key packing the scheduling's sequence number over the event's arena id.
// Comparisons never chase pointers, sifts pay no write barriers, and the
// collector never scans the queue. Callbacks live in an index-addressed arena
// of blocks that never move, recycled through a free list, so steady-state
// scheduling does not allocate. Each queued event records its heap position:
// Cancel removes the entry on the spot and Reset re-keys it in place, so the
// heap only ever holds events that will run. A constant-delay hop pushes
// onto a Line, which keeps only its earliest firing in the heap.
package sim

import (
	"math/bits"
	"math/rand"
	"sync/atomic"
	"time"

	"pbecc/internal/obs"
)

// Engine metrics: registered once, no-op and allocation-free while the
// obs layer is disabled (the schedule/run hot path pays one atomic flag
// load per site).
var (
	mSched   = obs.NewCounter("sim.events_scheduled")
	mCancel  = obs.NewCounter("sim.events_cancelled")
	mReuse   = obs.NewCounter("sim.event_pool_reuse")
	mHeapMax = obs.NewWatermark("sim.heap_len_max")
)

// Heap key layout: key = seq<<idBits | id. The sequence number is unique
// per engine, so ordering entries by (at, key) orders them by (at, seq).
// Both limits panic rather than wrap.
const (
	idBits  = 24 // at most 2^24 events queued on one engine at once
	idMask  = 1<<idBits - 1
	seqBits = 64 - idBits // at most 2^40 schedulings over an engine's life
	maxSeq  = 1<<seqBits - 1
)

// Arena layout: ids below inlineEvents live in the Engine itself, so a
// small engine allocates no block; the rest live in fixed-size blocks.
const (
	inlineEvents = 4
	blockBits    = 8
	blockSize    = 1 << blockBits
	blockMask    = blockSize - 1
)

// event is one arena slot: the callback of a queued event and its heap
// index, or - while the slot is free - the id of the next free slot.
type event struct {
	fn   func()
	pos  int32 // heap index while queued, -1 otherwise
	next int32 // free-list link while free, -1 ends the list
}

// entry is one heap element.
type entry struct {
	at  time.Duration
	key uint64 // seq<<idBits | arena id
}

// lessMask is all ones when a sorts before b and zero otherwise. It
// compares (at, key) as one 128-bit number - virtual time is never
// negative, so at compares correctly as unsigned - and the borrow chain
// leaves no branch for the data to mispredict.
func (a entry) lessMask(b entry) uint64 {
	_, borrow := bits.Sub64(a.key, b.key, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return -borrow
}

func (a entry) less(b entry) bool { return a.lessMask(b) != 0 }

func (a entry) id() uint32 { return uint32(a.key & idMask) }

// Event is a handle to a scheduled callback: the engine, the event's arena
// id and a generation, which is the scheduling's sequence number - both
// packed in the heap key. The handle is live while the entry at its arena
// slot's heap position still carries that key; firing, Cancel and Reset all
// retire the key, and sequence numbers are never reused within a run, so a
// stale handle (a copy kept past Reset, or one whose slot was recycled) can
// never touch a later scheduling of the run. The zero value is inert:
// Cancel on it is a safe no-op and At reads 0.
type Event struct {
	eng *Engine
	key uint64
}

// pos returns the heap index of the handle's event, or -1 once the handle
// is stale.
func (h *Event) pos() int {
	e := h.eng
	if e == nil {
		return -1
	}
	i := e.slot(uint32(h.key & idMask)).pos
	if i < 0 || e.queue[i].key != h.key {
		return -1
	}
	return int(i)
}

// Cancel prevents the event's callback from running and removes it from
// the queue. Cancelling an event that already fired (or was already
// cancelled) is a no-op.
func (h *Event) Cancel() {
	if h == nil {
		return
	}
	if i := h.pos(); i >= 0 {
		mCancel.Inc()
		e := h.eng
		id := e.queue[i].id()
		e.drop(i)
		e.release(id)
	}
	h.eng = nil
}

// Engine is a discrete-event simulator with a virtual clock.
// The zero value is not usable; construct with New.
type Engine struct {
	now      time.Duration
	queue    []entry
	seq      uint64
	rng      *rand.Rand
	executed uint64 // events run since New or the last Recycle
	parked   int32  // line firings waiting behind their line's head (see Line); 32 bits keep spent in the same word

	// spent is set while a callback runs and nothing has been armed since
	// it fired: queue[0] is then the firing event's entry, its slot
	// already free. Every other entry sorts after it, so it is a valid
	// root; the callback's first arm overwrites it with one sift down.
	spent bool

	// Event arena. Id i < inlineEvents is inline[i]; a larger id is
	// blocks[j>>blockBits][j&blockMask] with j = i - inlineEvents. Blocks
	// are never moved or freed, so growth copies only the table of block
	// pointers.
	inline [inlineEvents]event
	blocks []*[blockSize]event
	slots  int32 // ids handed out so far
	free   int32 // first free id, -1 when the free list is empty

	// seriesBuf, when non-nil, is the shard-local series buffer the
	// instrumented subsystems downsample virtual-time signals into. Set
	// by the cluster when a run records series; nil costs one pointer
	// load at each track-creation site and one branch per sample.
	seriesBuf *obs.SeriesBuffer

	// locals holds the engine-local values of other packages (netsim's
	// packet pool; the sender-ring, link-queue and cell-queue stocks),
	// indexed by LocalKey. The engine cannot name their types (sim must
	// not import netsim), but owning the slots keeps each value
	// engine-local: single-threaded per shard, no locks, no global map -
	// and recycled with the engine.
	locals []any
}

// New returns an engine whose random source is seeded with seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), free: -1}
}

// Recycle empties the engine for another run while keeping the storage
// earlier runs grew: the heap's backing array, the event arena and the
// engine-local values, each of which it recycles. The clock and sequence
// numbers restart at zero and the series buffer is detached;
// the random source is left for the caller to reseed. Recycle costs
// O(queued events + what the locals' Recycle touches), not O(capacity).
//
// Handles and callbacks of the previous run must not be used afterwards:
// sequence numbers restart, so an old Event could alias a new one. Recycle
// once per run: the locals keep what the run used, so a second Recycle with
// no run in between would drop it all.
func (e *Engine) Recycle() {
	for _, x := range e.queue {
		id := x.id()
		ev := e.slot(id)
		ev.fn, ev.pos, ev.next = nil, -1, e.free
		e.free = int32(id)
	}
	e.queue = e.queue[:0]
	e.now, e.seq, e.executed, e.parked = 0, 0, 0, 0
	e.seriesBuf = nil
	for _, v := range e.locals {
		if r, ok := v.(Recycler); ok {
			r.Recycle()
		}
	}
}

// reseed restarts the random source exactly as New(seed) seeds it.
func (e *Engine) reseed(seed int64) { e.rng.Seed(seed) }

// LocalKey names one engine-local value: per-engine storage another
// package keeps on the engine (see Local). Allocate keys with
// NewLocalKey at package initialization.
type LocalKey int

var localKeys atomic.Int32

// NewLocalKey allocates a key for an engine-local value.
func NewLocalKey() LocalKey { return LocalKey(localKeys.Add(1) - 1) }

// Recycler is implemented by engine-local values that hold per-run state:
// Engine.Recycle calls Recycle on each so the next run starts logically
// empty.
type Recycler interface{ Recycle() }

// Local returns the engine's value under k, nil until SetLocal installs
// one.
func (e *Engine) Local(k LocalKey) any {
	if int(k) < len(e.locals) {
		return e.locals[k]
	}
	return nil
}

// SetLocal installs the engine's value under k.
func (e *Engine) SetLocal(k LocalKey, v any) {
	if int(k) >= len(e.locals) {
		e.locals = append(e.locals, make([]any, int(k)+1-len(e.locals))...)
	}
	e.locals[k] = v
}

// Stock is an engine-local supply of slices that outlive their holders:
// a holder takes a slice when it is built and registers where it keeps
// it (Keep); when the engine is recycled, every registered slice - in
// whatever size the run grew it to - returns to the stock, and the next
// run's holders take them back in registration order. A simulation builds
// its holders in the same order every run, so each one tends to get the
// slice its predecessor grew. Only the last run's slices are retained.
type Stock[T any] struct {
	free    [][]T
	next    int
	holders []*[]T
}

// StockOf returns e's stock under k, installing an empty one on first use.
func StockOf[T any](e *Engine, k LocalKey) *Stock[T] {
	if s, ok := e.Local(k).(*Stock[T]); ok {
		return s
	}
	s := &Stock[T]{}
	e.SetLocal(k, s)
	return s
}

// Take returns the next slice the previous run handed back, or nil when
// none is left (or its holder never grew one). Its length is what the
// previous holder left and its
// contents are stale: the holder must write an element before reading it.
func (s *Stock[T]) Take() []T {
	if s.next == len(s.free) {
		return nil
	}
	b := s.free[s.next]
	s.free[s.next] = nil
	s.next++
	return b
}

// Keep registers *p: the slice it holds when the engine is recycled
// returns to the stock.
func (s *Stock[T]) Keep(p *[]T) { s.holders = append(s.holders, p) }

// Recycle implements Recycler: the registered holders' slices become the
// stock, and slices the run did not take are dropped. A holder that never
// grew its slice hands back nil, keeping the order aligned with the next
// run's holders.
func (s *Stock[T]) Recycle() {
	clear(s.free[s.next:])
	s.free = s.free[:0]
	for _, h := range s.holders {
		s.free = append(s.free, *h)
	}
	clear(s.holders)
	s.holders = s.holders[:0]
	s.next = 0
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Executed returns the number of events the engine has run. The cluster
// reads it at window barriers to measure per-shard idle fraction.
func (e *Engine) Executed() uint64 { return e.executed }

// SeriesBuffer returns the engine's series buffer, nil when the run
// records no series. Instrumentation sites must nil-check (a nil
// buffer's Track returns a nil track, whose Sample is a no-op branch).
func (e *Engine) SeriesBuffer() *obs.SeriesBuffer { return e.seriesBuf }

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero. It returns a handle so the caller may cancel the event.
func (e *Engine) Schedule(delay time.Duration, fn func()) Event {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t. If t is in the past the event fires
// at the current time (events never run backwards).
func (e *Engine) At(t time.Duration, fn func()) Event {
	if t < e.now {
		t = e.now
	}
	mSched.Inc()
	return Event{eng: e, key: e.arm(t, e.nextSeq(), fn)}
}

// arm queues fn at (t, seq), seq drawn by nextSeq - now, or at a line's
// Push - and returns the heap key.
func (e *Engine) arm(t time.Duration, seq uint64, fn func()) uint64 {
	id, ev := e.alloc()
	ev.fn = fn
	x := entry{at: t, key: seq<<idBits | uint64(id)}
	if e.spent {
		e.spent = false
		mHeapMax.Observe(int64(len(e.queue)))
		e.down(0, x)
		return x.key
	}
	mHeapMax.Observe(int64(len(e.queue) + 1))
	e.queue = append(e.queue, x)
	e.up(len(e.queue)-1, x)
	return x.key
}

// Reset re-arms h to run fn after delay. It is exactly
//
//	h.Cancel()
//	*h = e.Schedule(delay, fn)
//
// - it draws the next sequence number at the same point, leaves every copy
// of the old handle stale - but an event still queued
// on e keeps its arena slot and has its heap entry re-keyed in place
// instead of being removed and pushed again. Pacing timers re-armed on
// every ACK use it.
func (e *Engine) Reset(h *Event, delay time.Duration, fn func()) {
	i := -1
	if h.eng == e {
		i = h.pos()
	}
	if i < 0 {
		h.Cancel()
		*h = e.Schedule(delay, fn)
		return
	}
	if delay < 0 {
		delay = 0
	}
	old := e.queue[i]
	id := old.id()
	e.slot(id).fn = fn
	x := entry{at: e.now + delay, key: e.nextSeq()<<idBits | uint64(id)}
	mSched.Inc()
	mReuse.Inc()
	if x.less(old) {
		e.up(i, x)
	} else {
		e.down(i, x)
	}
	*h = Event{eng: e, key: x.key}
}

// nextSeq draws the next sequence number.
func (e *Engine) nextSeq() uint64 {
	if e.seq == maxSeq {
		panic("sim: more than 2^40 events scheduled on one engine (the heap key's sequence field is 40 bits)")
	}
	e.seq++
	return e.seq
}

// slot returns the arena slot of id.
func (e *Engine) slot(id uint32) *event {
	if id < inlineEvents {
		return &e.inline[id]
	}
	id -= inlineEvents
	return &e.blocks[id>>blockBits][id&blockMask]
}

// alloc hands out a free arena slot, growing the arena by one block when
// every slot is in use.
func (e *Engine) alloc() (uint32, *event) {
	if e.free >= 0 {
		id := uint32(e.free)
		ev := e.slot(id)
		e.free = ev.next
		mReuse.Inc()
		return id, ev
	}
	id := uint32(e.slots)
	if id > idMask {
		panic("sim: more than 2^24 events queued on one engine (the heap key's id field is 24 bits)")
	}
	if id >= inlineEvents && (id-inlineEvents)&blockMask == 0 {
		e.blocks = append(e.blocks, new([blockSize]event))
	}
	e.slots++
	return id, e.slot(id)
}

// Run executes events until the queue is empty. Neither Run nor RunUntil
// may be called from inside a callback (see step).
func (e *Engine) Run() {
	for len(e.queue) > 0 {
		e.step()
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to exactly t.
func (e *Engine) RunUntil(t time.Duration) {
	for len(e.queue) > 0 && e.queue[0].at <= t {
		e.step()
	}
	if e.now < t {
		e.now = t
	}
}

// step executes the earliest event. Its slot is freed before the callback
// runs, so the callback may schedule into it, but its heap entry stays at
// the root, spent, for the callback's first arm to take over: a firing
// that re-arms (a line's next firing, a ticker, a pacer) costs one sift
// instead of a removal and an insertion. The root is dropped only if the
// callback armed nothing.
func (e *Engine) step() {
	x := e.queue[0]
	fn := e.release(x.id())
	e.now = x.at
	e.executed++
	e.spent = true
	fn()
	if e.spent {
		e.spent = false
		e.drop(0)
	}
}

// Pending returns the number of events waiting to fire, line firings
// included.
func (e *Engine) Pending() int {
	n := len(e.queue) + int(e.parked)
	if e.spent {
		n--
	}
	return n
}

// drop deletes the heap entry at i. Its arena slot is the caller's to
// release.
func (e *Engine) drop(i int) {
	n := len(e.queue) - 1
	last := e.queue[n]
	e.queue = e.queue[:n]
	switch {
	case i == n:
	case last.less(e.queue[i]):
		e.up(i, last)
	default:
		e.down(i, last)
	}
}

// release frees arena slot id and returns the callback it held.
func (e *Engine) release(id uint32) func() {
	ev := e.slot(id)
	fn := ev.fn
	ev.fn, ev.pos, ev.next = nil, -1, e.free
	e.free = int32(id)
	return fn
}

// up fills the hole at heap index i with x, sifting x toward the root; every
// entry it moves has its slot's position updated.
func (e *Engine) up(i int, x entry) {
	q := e.queue
	for i > 0 {
		p := (i - 1) / 4
		if !x.less(q[p]) {
			break
		}
		q[i] = q[p]
		e.slot(q[i].id()).pos = int32(i)
		i = p
	}
	q[i] = x
	e.slot(x.id()).pos = int32(i)
}

// down fills the hole at heap index i with x, sifting x toward the leaves.
// A full group of four siblings is reduced as a two-round tournament, so
// the second pair's pick does not wait on the first's.
func (e *Engine) down(i int, x entry) {
	q := e.queue
	n := len(q)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		var m int
		var y entry
		if c+4 <= n {
			g := q[c : c+4 : c+4]
			m0, y0 := pick(c, g[0], c+1, g[1])
			m1, y1 := pick(c+2, g[2], c+3, g[3])
			m, y = pick(m0, y0, m1, y1)
		} else {
			m, y = c, q[c]
			for j := c + 1; j < n; j++ {
				m, y = pick(m, y, j, q[j])
			}
		}
		if !y.less(x) {
			break
		}
		q[i] = y
		e.slot(y.id()).pos = int32(i)
		i = m
	}
	q[i] = x
	e.slot(x.id()).pos = int32(i)
}

// pick returns (j, z) when z sorts before y and (m, y) otherwise. Which
// sibling is smallest is data the branch predictor cannot learn, so the
// choice is made with masks, not branches.
func pick(m int, y entry, j int, z entry) (int, entry) {
	k := z.lessMask(y)
	y.at ^= (y.at ^ z.at) & time.Duration(k)
	y.key ^= (y.key ^ z.key) & k
	return m ^ (m^j)&int(k), y
}

// Ticker fires a callback at a fixed virtual-time interval until stopped.
type Ticker struct {
	engine   *Engine
	interval time.Duration
	fn       func()
	tick     func() // built once; re-arming allocates no fresh closure
	ev       Event
	stopped  bool
}

// Every schedules fn to run every interval, with the first firing one
// interval from now. The interval must be positive.
func (e *Engine) Every(interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: Every interval must be positive")
	}
	t := &Ticker{engine: e, interval: interval, fn: fn}
	t.tick = func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.ev = t.engine.Schedule(t.interval, t.tick)
		}
	}
	t.ev = e.Schedule(interval, t.tick)
	return t
}

// Stop cancels future firings of the ticker.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}
