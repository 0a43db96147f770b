package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// clusterTrace runs a randomized cross-shard workload on nShards shards
// with the given worker count and returns each shard's observation log.
// Every shard ticks once per millisecond and, driven by its own engine
// rng, sends events to other shards with delays at or above the
// lookahead; receivers log (virtual now, source, payload).
func clusterTrace(t *testing.T, seed int64, nShards, workers int, dur time.Duration) [][]string {
	t.Helper()
	la := 5 * time.Millisecond
	c := NewCluster(seed)
	c.SetWorkers(workers)
	shards := make([]*Shard, nShards)
	logs := make([][]string, nShards)
	for i := range shards {
		shards[i] = c.AddShard()
	}
	c.DeclareLookahead(la)
	for i, s := range shards {
		i, s := i, s
		s.Every(time.Millisecond, func() {
			// Shard-local work: consume randomness and log the tick.
			r := s.Rand().Intn(1000)
			logs[i] = append(logs[i], fmt.Sprintf("tick %v r=%d", s.Now(), r))
			if r%3 == 0 {
				dst := shards[r%nShards]
				delay := la + time.Duration(r%7)*time.Millisecond
				src, sentAt := i, s.Now()
				s.Send(dst, delay, func() {
					j := dst.id
					logs[j] = append(logs[j], fmt.Sprintf("recv %v from=%d sent=%v", dst.Now(), src, sentAt))
				})
			}
		})
	}
	c.RunUntil(dur)
	return logs
}

// TestClusterDeterministicAcrossWorkers is the core sharding contract:
// the same clustered program produces identical per-shard event logs for
// any worker count.
func TestClusterDeterministicAcrossWorkers(t *testing.T) {
	base := clusterTrace(t, 42, 8, 1, 200*time.Millisecond)
	for _, workers := range []int{2, 4, 8} {
		got := clusterTrace(t, 42, 8, workers, 200*time.Millisecond)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("logs differ between workers=1 and workers=%d", workers)
		}
	}
	var total int
	for _, l := range base {
		total += len(l)
	}
	if total < 1600 {
		t.Fatalf("workload too small to be meaningful: %d log lines", total)
	}
}

// TestClusterCrossShardTimeOrder checks conservative synchronization at
// the sim level: a cross-shard event never executes before the receiving
// shard's clock reaches its arrival time, never arrives earlier than
// sent-time plus delay, and each shard's observed event times are
// monotonically non-decreasing (global time order is never violated).
func TestClusterCrossShardTimeOrder(t *testing.T) {
	la := 4 * time.Millisecond
	c := NewCluster(7)
	c.SetWorkers(2)
	a, b := c.AddShard(), c.AddShard()
	c.DeclareLookahead(la)

	type obs struct{ now, want time.Duration }
	var seen []obs
	var last time.Duration
	b.Every(time.Millisecond, func() {
		if b.Now() < last {
			t.Errorf("shard B time ran backwards: %v after %v", b.Now(), last)
		}
		last = b.Now()
	})
	a.Every(700*time.Microsecond, func() {
		sent := a.Now()
		delay := la + time.Duration(a.Rand().Intn(3))*time.Millisecond
		want := sent + delay
		a.Send(b, delay, func() {
			seen = append(seen, obs{now: b.Now(), want: want})
			if b.Now() < last {
				t.Errorf("cross event at %v after local time %v", b.Now(), last)
			}
			last = b.Now()
		})
	})
	c.RunUntil(120 * time.Millisecond)

	if len(seen) < 100 {
		t.Fatalf("too few cross-shard deliveries: %d", len(seen))
	}
	for _, o := range seen {
		if o.now != o.want {
			t.Fatalf("cross event executed at %v, scheduled for %v", o.now, o.want)
		}
	}
}

// TestClusterBoundaryArrival: a cross-shard event arriving exactly at
// the RunUntil target must execute, matching Engine.RunUntil's
// "timestamps <= t" contract (it is delivered by the final barrier and
// needs the post-loop execution pass).
func TestClusterBoundaryArrival(t *testing.T) {
	la := 10 * time.Millisecond
	c := NewCluster(5)
	a, b := c.AddShard(), c.AddShard()
	c.DeclareLookahead(la)
	var fired []time.Duration
	// Sent at 90 ms, arriving exactly at the 100 ms target.
	a.Schedule(90*time.Millisecond, func() {
		a.Send(b, la, func() { fired = append(fired, b.Now()) })
	})
	// And one arriving past the target: it must stay queued, then fire
	// on the next RunUntil.
	a.Schedule(95*time.Millisecond, func() {
		a.Send(b, la, func() { fired = append(fired, b.Now()) })
	})
	c.RunUntil(100 * time.Millisecond)
	if len(fired) != 1 || fired[0] != 100*time.Millisecond {
		t.Fatalf("boundary arrival: fired=%v, want exactly [100ms]", fired)
	}
	c.RunUntil(200 * time.Millisecond)
	if len(fired) != 2 || fired[1] != 105*time.Millisecond {
		t.Fatalf("post-target arrival: fired=%v, want second at 105ms", fired)
	}
}

// TestClusterSendBelowLookaheadPanics ensures the conservative invariant
// is enforced, not assumed.
func TestClusterSendBelowLookaheadPanics(t *testing.T) {
	c := NewCluster(1)
	a, b := c.AddShard(), c.AddShard()
	c.DeclareLookahead(10 * time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for delay below lookahead")
		}
	}()
	a.Send(b, 5*time.Millisecond, func() {})
}

// TestClusterNoLookaheadSendPanics: with no declared lookahead the shards
// are independent and cross-shard traffic is illegal.
func TestClusterNoLookaheadSendPanics(t *testing.T) {
	c := NewCluster(1)
	a, b := c.AddShard(), c.AddShard()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for cross-shard send without lookahead")
		}
	}()
	a.Send(b, time.Second, func() {})
}

// TestOneShardClusterMatchesEngine: shard 0 keeps the cluster seed, so a
// one-shard cluster reproduces a bare engine's randomness and timing
// exactly - the property that keeps unsharded scenarios byte-identical
// after the harness moved onto clusters.
func TestOneShardClusterMatchesEngine(t *testing.T) {
	eng := New(99)
	var engLog []string
	eng.Every(time.Millisecond, func() {
		engLog = append(engLog, fmt.Sprintf("%v %d", eng.Now(), eng.Rand().Int63()))
	})
	eng.RunUntil(50 * time.Millisecond)

	c := NewCluster(99)
	s := c.AddShard()
	var shardLog []string
	s.Every(time.Millisecond, func() {
		shardLog = append(shardLog, fmt.Sprintf("%v %d", s.Now(), s.Rand().Int63()))
	})
	c.RunUntil(50 * time.Millisecond)

	if !reflect.DeepEqual(engLog, shardLog) {
		t.Fatal("one-shard cluster diverged from bare engine")
	}
}

// BenchmarkClusterWindowSync measures the pure synchronization overhead:
// 16 shards with near-empty windows, so the cost is dominated by the
// window barrier machinery rather than event execution.
func BenchmarkClusterWindowSync(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := NewCluster(1)
				var shards []*Shard
				for k := 0; k < 16; k++ {
					shards = append(shards, c.AddShard())
				}
				c.SetWorkers(workers)
				c.DeclareLookahead(5 * time.Millisecond)
				for _, s := range shards {
					s.Every(time.Millisecond, func() {})
				}
				c.RunUntil(time.Second)
			}
		})
	}
}

// TestClusterWindowSyncAllocs pins the fix for the historical
// workers=4 allocation blow-up (2762 allocs/op vs 356 at workers=1,
// from per-window goroutine spawns and mailbox reallocation): with
// persistent workers and retained inboxes, adding workers must not
// multiply allocations. The benchmark-derived bound asserts workers=4
// stays within 2x of workers=1 and under the 700 allocs/op budget.
func TestClusterWindowSyncAllocs(t *testing.T) {
	run := func(workers int) float64 {
		return testing.AllocsPerRun(5, func() {
			c := NewCluster(1)
			var shards []*Shard
			for k := 0; k < 16; k++ {
				shards = append(shards, c.AddShard())
			}
			c.SetWorkers(workers)
			c.DeclareLookahead(5 * time.Millisecond)
			for _, s := range shards {
				s.Every(time.Millisecond, func() {})
			}
			c.RunUntil(time.Second)
		})
	}
	a1 := run(1)
	a4 := run(4)
	t.Logf("allocs/op: workers=1 %.0f, workers=4 %.0f", a1, a4)
	if a4 > 700 {
		t.Errorf("workers=4 allocates %.0f/op, budget is 700", a4)
	}
	if a4 > 2*a1 {
		t.Errorf("workers=4 allocates %.0f/op, more than 2x workers=1 (%.0f/op)", a4, a1)
	}
}

// TestRecycledEngineRunsLikeNew: an engine recycled after a run that left
// a ticker, one-shots, a re-armed handle and a busy line queued, then
// reseeded, replays a workload exactly like a new engine with that seed -
// same times, same order, same random draws.
func TestRecycledEngineRunsLikeNew(t *testing.T) {
	workload := func(e *Engine) []string {
		var log []string
		var h Event
		l := NewLine(e, lineKey, func(i int) { log = append(log, fmt.Sprintf("%v line %d", e.Now(), i)) })
		for i := 0; i < 50; i++ {
			i := i
			e.Schedule(time.Duration(e.Rand().Intn(40))*time.Millisecond, func() {
				log = append(log, fmt.Sprintf("%v %d %d", e.Now(), i, e.Rand().Int63()))
				e.Reset(&h, 2*time.Millisecond, func() { log = append(log, fmt.Sprintf("%v reset", e.Now())) })
				l.Push(5*time.Millisecond, i)
			})
		}
		e.Every(3*time.Millisecond, func() { log = append(log, fmt.Sprintf("%v tick", e.Now())) })
		e.RunUntil(25 * time.Millisecond)
		return log
	}
	want := workload(New(7))
	e := New(99)
	workload(e)
	if e.Pending() == 0 {
		t.Fatal("the dirty run should leave events queued")
	}
	e.Recycle()
	if e.Now() != 0 || e.Pending() != 0 || e.Executed() != 0 {
		t.Fatalf("recycled engine: now %v, %d pending, %d executed", e.Now(), e.Pending(), e.Executed())
	}
	e.reseed(7)
	if got := workload(e); !reflect.DeepEqual(got, want) {
		t.Fatalf("recycled engine diverged from a new one:\n got  %v\n want %v", got, want)
	}
}

// TestClusterReusesRecycledEngines: AddShard takes the engines handed to
// Reuse in order, reseeded to the new cluster's shard seeds, then builds
// new ones; an engine that was not recycled is refused.
func TestClusterReusesRecycledEngines(t *testing.T) {
	old := NewCluster(5)
	a, b := old.AddShard(), old.AddShard()
	a.Every(time.Millisecond, func() {})
	b.Schedule(time.Second, func() {})
	old.RunUntil(10 * time.Millisecond)
	engines := []*Engine{a.Engine, b.Engine}
	for _, e := range engines {
		e.Recycle()
	}
	cl := NewCluster(9)
	cl.Reuse(engines)
	for i := 0; i < 3; i++ {
		s := cl.AddShard()
		if i < 2 && s.Engine != engines[i] {
			t.Fatalf("shard %d did not reuse engine %d", i, i)
		}
		if got, want := s.Rand().Int63(), New(shardSeed(9, i)).Rand().Int63(); got != want {
			t.Fatalf("shard %d draws %d, a new engine %d", i, got, want)
		}
	}

	dirty := New(1)
	dirty.Schedule(time.Millisecond, func() {})
	cl = NewCluster(1)
	cl.Reuse([]*Engine{dirty})
	defer func() {
		if recover() == nil {
			t.Fatal("reusing an engine that was not recycled must panic")
		}
	}()
	cl.AddShard()
}

// TestStockHandsBackHolderSlices: after a Recycle the stock holds each
// registered holder's final slice, in registration order (nil for a holder
// that grew none), and only the last run's.
func TestStockHandsBackHolderSlices(t *testing.T) {
	e := New(1)
	k := NewLocalKey()
	st := StockOf[int](e, k)
	if StockOf[int](e, k) != st {
		t.Fatal("StockOf must return the engine's stock")
	}
	if st.Take() != nil {
		t.Fatal("a new stock is empty")
	}
	a, b, c := make([]int, 8), []int(nil), make([]int, 3, 32)
	st.Keep(&a)
	st.Keep(&b)
	st.Keep(&c)
	a = append(a, 1) // the holder grows its slice; the grown one returns
	e.Recycle()
	if got := st.Take(); cap(got) != cap(a) || len(got) != 9 {
		t.Fatalf("first take: len %d cap %d, want the grown slice", len(got), cap(got))
	}
	if got := st.Take(); got != nil {
		t.Fatal("a holder that grew nothing hands back nil")
	}
	d := st.Take()
	if cap(d) != 32 || len(d) != 3 {
		t.Fatalf("third take: len %d cap %d", len(d), cap(d))
	}
	if st.Take() != nil {
		t.Fatal("stock should be exhausted")
	}
	st.Keep(&d)
	e.Recycle()
	if got := st.Take(); cap(got) != 32 {
		t.Fatalf("the second run kept cap %d, want only its own slice (32)", cap(got))
	}
	if st.Take() != nil {
		t.Fatal("slices the last run did not register must be dropped")
	}
}
