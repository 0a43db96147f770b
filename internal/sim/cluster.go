package sim

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pbecc/internal/obs"
)

// Cluster metrics. Window counts and cross-shard traffic are counters
// (order-independent sums), so a snapshot is identical for any worker
// count; the idle ratio is derivable as shard_windows_idle/shard_windows.
var (
	mBarriers     = obs.NewCounter("cluster.window_barriers")
	mShardWindows = obs.NewCounter("cluster.shard_windows")
	mIdleWindows  = obs.NewCounter("cluster.shard_windows_idle")
	mCrossEvents  = obs.NewCounter("cluster.cross_events")
	mMailboxMax   = obs.NewWatermark("cluster.mailbox_batch_max")
)

// Cluster coordinates a set of shard-local engines under conservative
// synchronization, the classic parallel-discrete-event recipe: every shard
// advances through the same bounded time window, and events that cross a
// shard boundary must be delayed by at least the cluster's lookahead (the
// minimum cross-shard link latency), so a window can never produce an
// event another shard should already have executed inside that window.
//
// Determinism contract: the shard topology and per-shard seeds are fixed
// by construction order, cross-shard events are merged into the receiving
// shard in (arrival time, source shard, source sequence) order at each
// window barrier, and workers only change which OS thread advances a
// shard, never the order of anything observable. Output is therefore
// byte-identical for any worker count - the same contract the sweep
// runner enforces across jobs, now held inside one scenario.
//
// Hot-path shape (profiled at metro scale): each window is ONE parallel
// phase per shard - drain the shard's inbox, then advance its engine to
// the window end. Senders push cross-shard events directly into the
// destination shard's inbox under a small mutex, into the buffer of the
// current window's parity; the destination drains the opposite parity at
// the start of the next window, so the drained set is exactly what the
// previous window produced regardless of thread interleaving, and the
// (arrival, src, seq) sort restores one total order. Workers are
// persistent goroutines spawned once per RunUntil - not per window - fed
// by an atomic shard counter, and inbox/scratch buffers are retained
// across windows, so steady-state window synchronization allocates
// nothing.
type Cluster struct {
	seed      int64
	shards    []*Shard
	lookahead time.Duration // min declared cross-shard latency; 0 = none
	clock     time.Duration // start of the current window
	workers   int

	// parity selects which of each shard's two inbox buffers senders
	// append to during the current phase; receivers drain the other.
	// Flipped serially between phases.
	parity int

	// winEnd is the current window's end, read by the pre-bound phase
	// function so advancing a window allocates no closure.
	winEnd time.Duration
	runFn  func(*Shard) // bound once: drain inbox, run to winEnd

	// Persistent worker pool, alive for the duration of one RunUntil.
	// next is the shared shard-claim counter; a token on work releases
	// every worker into one claiming pass over the shards.
	next     atomic.Int64
	phaseWG  sync.WaitGroup
	work     chan struct{}
	workerWG sync.WaitGroup
	poolSize int

	// srec, when non-nil, collects the run's downsampled virtual-time
	// series: each shard gets a buffer, drained into the recorder at
	// every window barrier (a serial phase, in shard order) and merged by
	// (window, shard, seq), so the series is byte-identical for any
	// worker count.
	srec *obs.SeriesRecorder

	// spare holds recycled engines of an earlier run (Reuse); AddShard
	// reseeds them, in order, before it constructs new ones.
	spare []*Engine
}

// NewCluster returns an empty cluster. Shard engine seeds derive from
// seed; shard 0 keeps seed itself, so a one-shard cluster is
// bit-compatible with a bare Engine created by New(seed).
func NewCluster(seed int64) *Cluster {
	c := &Cluster{seed: seed, workers: 1}
	c.runFn = func(s *Shard) {
		s.drainInbox()
		s.Engine.RunUntil(c.winEnd)
	}
	return c
}

// shardSeed derives shard id's engine seed from the cluster seed. The
// derivation depends only on (seed, id), never on the worker count.
func shardSeed(seed int64, id int) int64 {
	if id == 0 {
		return seed
	}
	return seed + int64(id)*2654435761 // Knuth's golden-ratio stride
}

// AddShard appends a shard whose engine is seeded deterministically from
// the cluster seed and the shard's index.
func (c *Cluster) AddShard() *Shard {
	id := len(c.shards)
	var e *Engine
	if len(c.spare) > 0 {
		e, c.spare = c.spare[0], c.spare[1:]
		if e.seq != 0 || e.now != 0 {
			panic("sim: Reuse of an engine that was not recycled")
		}
		e.reseed(shardSeed(c.seed, id))
	} else {
		e = New(shardSeed(c.seed, id))
	}
	s := &Shard{Engine: e, id: id, cluster: c}
	if c.srec != nil {
		e.seriesBuf = c.srec.NewBuffer(id)
	}
	c.shards = append(c.shards, s)
	return s
}

// Reuse hands the cluster engines an earlier run is done with, each
// already recycled (Engine.Recycle): AddShard reseeds them, in order, to
// the shard's seed before it constructs new ones. A reused shard starts in
// exactly the state a new one would, so reuse changes where memory comes
// from, never results.
func (c *Cluster) Reuse(engines []*Engine) { c.spare = engines }

// SetSeriesRecorder attaches a series recorder before the first AddShard:
// every shard then gets a series buffer keyed by its id. Recording
// changes what is observed, never what happens - the engines run
// identically with or without it.
func (c *Cluster) SetSeriesRecorder(r *obs.SeriesRecorder) { c.srec = r }

// SeriesRecorder returns the attached series recorder (nil when the run
// records no series).
func (c *Cluster) SeriesRecorder() *obs.SeriesRecorder { return c.srec }

// Shards returns the cluster's shards in creation order.
func (c *Cluster) Shards() []*Shard { return c.shards }

// SetWorkers bounds how many shards advance concurrently during each
// window (1 = serial). The choice affects wall-clock time only: results
// are byte-identical for any value.
func (c *Cluster) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	c.workers = n
}

// DeclareLookahead records a cross-shard latency; the cluster's window
// length is the minimum declared value. Cross-shard links declare their
// propagation delay here at construction time.
func (c *Cluster) DeclareLookahead(d time.Duration) {
	if d <= 0 {
		panic("sim: lookahead must be positive")
	}
	if c.lookahead == 0 || d < c.lookahead {
		c.lookahead = d
	}
}

// RunUntil advances every shard to exactly time t. With no declared
// lookahead the shards are independent and each runs straight through;
// otherwise the cluster alternates bounded execution windows (each one
// parallel inbox-drain-plus-run phase) with serial barrier bookkeeping.
func (c *Cluster) RunUntil(t time.Duration) {
	if len(c.shards) == 0 {
		c.clock = t
		return
	}
	c.startWorkers()
	for c.clock < t {
		end := t
		if c.lookahead > 0 && c.clock+c.lookahead < t {
			end = c.clock + c.lookahead
		}
		c.runWindow(end)
		c.observeWindow()
		c.clock = end
	}
	if c.lookahead > 0 {
		// The final window may have produced events whose arrival is
		// exactly t (a send at the last window's start with delay ==
		// lookahead); drain and run them so the cluster honors
		// Engine.RunUntil's "events with timestamps <= t" contract. This
		// converges in one pass: anything those events send crosses with
		// positive delay, so it arrives strictly after t and stays queued
		// for a later RunUntil.
		c.runWindow(t)
	}
	c.stopWorkers()
	if c.srec != nil {
		// Collect anything flushed after the last barrier (the final
		// convergence pass above, or an unsharded straight-through run):
		// close every track's open window, then drain.
		for _, s := range c.shards {
			buf := s.Engine.SeriesBuffer()
			buf.Flush()
			c.srec.Drain(buf)
		}
	}
}

// runWindow advances every shard through one window ending at end: each
// shard first merges the cross-shard events the previous window sent it
// (parity-selected, so the set is exactly last window's regardless of
// thread timing), then executes to the window end. The parity flip and
// winEnd store happen serially before workers are released; the phase
// barrier publishes every shard's writes to the next window.
func (c *Cluster) runWindow(end time.Duration) {
	c.parity ^= 1
	c.winEnd = end
	c.runPhase()
}

// startWorkers spawns the persistent claim-loop workers used by every
// window of one RunUntil. With one worker (or one shard) the phases run
// serially on the caller and no goroutines exist at all.
func (c *Cluster) startWorkers() {
	w := c.workers
	if w > len(c.shards) {
		w = len(c.shards)
	}
	if w <= 1 {
		c.poolSize = 0
		return
	}
	// The calling goroutine participates in every phase, so w workers
	// means w-1 spawned goroutines.
	c.poolSize = w - 1
	c.work = make(chan struct{}, c.poolSize)
	c.workerWG.Add(c.poolSize)
	for i := 0; i < c.poolSize; i++ {
		go func() {
			defer c.workerWG.Done()
			for range c.work {
				c.claimShards()
				c.phaseWG.Done()
			}
		}()
	}
}

// stopWorkers retires the pool at the end of RunUntil, so clusters never
// leak goroutines between runs.
func (c *Cluster) stopWorkers() {
	if c.poolSize == 0 {
		return
	}
	close(c.work)
	c.workerWG.Wait()
	c.work = nil
	c.poolSize = 0
}

// claimShards is one claiming pass: grab the next unclaimed shard index
// and apply the current phase function until none remain.
func (c *Cluster) claimShards() {
	n := int64(len(c.shards))
	for {
		k := c.next.Add(1)
		if k >= n {
			return
		}
		c.runFn(c.shards[k])
	}
}

// runPhase applies the bound window function to every shard, in parallel
// when the pool is live. Shards are claimed through an atomic counter, so
// a slow shard never blocks the others from proceeding within the phase;
// the WaitGroup barrier is what publishes every shard's writes to the
// next phase. The caller claims alongside the pool, so a phase costs
// poolSize channel wakeups and no allocation.
func (c *Cluster) runPhase() {
	if c.poolSize == 0 {
		for _, s := range c.shards {
			c.runFn(s)
		}
		return
	}
	c.next.Store(-1)
	c.phaseWG.Add(c.poolSize)
	for i := 0; i < c.poolSize; i++ {
		c.work <- struct{}{}
	}
	c.claimShards()
	c.phaseWG.Wait()
}

// observeWindow is the serial per-window bookkeeping: shard idle
// accounting and series drains.
func (c *Cluster) observeWindow() {
	metricsOn := obs.Enabled()
	if !metricsOn && c.srec == nil {
		return
	}
	if metricsOn {
		mBarriers.Inc()
	}
	for _, s := range c.shards {
		exec := s.Engine.Executed()
		idle := exec == s.prevExec
		s.prevExec = exec
		if metricsOn {
			mShardWindows.Inc()
			if idle {
				mIdleWindows.Inc()
			}
		}
		if c.srec != nil {
			// Open window aggregates stay in their tracks (a 40 ms
			// window may span several barriers); only flushed points
			// move.
			c.srec.Drain(s.Engine.SeriesBuffer())
		}
	}
}

// Shard is one partition of a clustered simulation: a full Engine (event
// arena, 4-ary heap, seeded randomness) plus mailboxes for events that
// cross to other shards. All entities pinned to a shard schedule on its
// embedded engine exactly as they would on a standalone one.
type Shard struct {
	*Engine
	id      int
	cluster *Cluster

	// inbox is the shard's double-buffered cross-shard mailbox. Senders
	// append directly into inbox[cluster.parity] under mu during a
	// window; the shard drains inbox[1-parity] - exactly the previous
	// window's sends - at the start of the next window. Both buffers
	// keep their capacity across windows.
	mu    [2]sync.Mutex
	inbox [2][]crossEvent

	outSeq uint64

	// prevExec is the engine's executed count at the last window
	// barrier, maintained serially by observeWindow for the idle metric.
	prevExec uint64
}

// crossEvent is one mailbox entry. (at, src, seq) is a total order: seq is
// unique per source and sources are distinct, so the barrier merge is
// deterministic no matter how the window's execution interleaved.
type crossEvent struct {
	at  time.Duration
	src int
	seq uint64
	fn  func()
}

// Cluster returns the owning cluster.
func (s *Shard) Cluster() *Cluster { return s.cluster }

// Send schedules fn on dst's engine delay after the current shard-local
// time. A same-shard send degenerates to a plain Schedule. Cross-shard
// sends require a declared lookahead and a delay of at least that
// lookahead - the conservative-synchronization invariant that keeps every
// delivery inside a strictly later window.
func (s *Shard) Send(dst *Shard, delay time.Duration, fn func()) {
	if dst == s {
		s.Engine.Schedule(delay, fn)
		return
	}
	if dst.cluster != s.cluster {
		panic("sim: cross-shard send between different clusters")
	}
	la := s.cluster.lookahead
	if la <= 0 {
		panic("sim: cross-shard send without a declared lookahead")
	}
	if delay < la {
		panic(fmt.Sprintf("sim: cross-shard delay %v below lookahead %v", delay, la))
	}
	s.outSeq++
	ev := crossEvent{at: s.Engine.Now() + delay, src: s.id, seq: s.outSeq, fn: fn}
	par := s.cluster.parity
	dst.mu[par].Lock()
	dst.inbox[par] = append(dst.inbox[par], ev)
	dst.mu[par].Unlock()
}

// drainInbox merges the cross-shard events the previous window sent this
// shard into its local queue. Sorting by (arrival, source shard, source
// sequence) before scheduling fixes the local tie-break sequence numbers,
// making the merge independent of how senders' appends interleaved. The
// buffer is resliced, not reallocated, so steady-state traffic reuses
// last window's capacity.
func (d *Shard) drainInbox() {
	par := d.cluster.parity ^ 1
	in := d.inbox[par]
	if len(in) == 0 {
		return
	}
	mCrossEvents.Add(uint64(len(in)))
	mMailboxMax.Observe(int64(len(in)))
	slices.SortFunc(in, func(a, b crossEvent) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		if a.src != b.src {
			return a.src - b.src
		}
		if a.seq < b.seq {
			return -1
		}
		return 1
	})
	for i := range in {
		d.Engine.At(in[i].at, in[i].fn)
		in[i].fn = nil
	}
	d.inbox[par] = in[:0]
}
