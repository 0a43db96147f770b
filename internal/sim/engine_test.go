package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := New(1)
	var at time.Duration
	e.Schedule(5*time.Millisecond, func() { at = e.Now() })
	e.Run()
	if at != 5*time.Millisecond {
		t.Fatalf("Now inside event = %v, want 5ms", at)
	}
	if e.Now() != 5*time.Millisecond {
		t.Fatalf("Now after run = %v, want 5ms", e.Now())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := New(1)
	fired := false
	e.Schedule(-time.Second, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("event with negative delay did not fire")
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved backwards: %v", e.Now())
	}
}

func TestAtPastClamped(t *testing.T) {
	e := New(1)
	var at time.Duration
	e.Schedule(10*time.Millisecond, func() {
		e.At(time.Millisecond, func() { at = e.Now() })
	})
	e.Run()
	if at != 10*time.Millisecond {
		t.Fatalf("past event ran at %v, want clamped to 10ms", at)
	}
}

func TestCancel(t *testing.T) {
	e := New(1)
	fired := false
	ev := e.Schedule(time.Millisecond, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if eventAt(ev) != 0 {
		t.Fatal("handle still live after Cancel")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	e := New(1)
	fired := false
	ev := e.Schedule(2*time.Millisecond, func() { fired = true })
	e.Schedule(time.Millisecond, func() { ev.Cancel() })
	e.Run()
	if fired {
		t.Fatal("event cancelled mid-run still fired")
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	count := 0
	e.Every(time.Millisecond, func() { count++ })
	e.RunUntil(10 * time.Millisecond)
	if count != 10 {
		t.Fatalf("ticks = %d, want 10", count)
	}
	if e.Now() != 10*time.Millisecond {
		t.Fatalf("Now = %v, want 10ms", e.Now())
	}
	e.RunUntil(15 * time.Millisecond)
	if count != 15 {
		t.Fatalf("ticks after resume = %d, want 15", count)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := New(1)
	e.RunUntil(time.Second)
	if e.Now() != time.Second {
		t.Fatalf("Now = %v, want 1s", e.Now())
	}
}

func TestTickerStop(t *testing.T) {
	e := New(1)
	count := 0
	var tk *Ticker
	tk = e.Every(time.Millisecond, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.RunUntil(time.Second)
	if count != 3 {
		t.Fatalf("ticks = %d, want 3", count)
	}
}

func TestEveryPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	New(1).Every(0, func() {})
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		e := New(seed)
		var got []int
		for i := 0; i < 100; i++ {
			d := time.Duration(e.Rand().Intn(1000)) * time.Microsecond
			v := i
			e.Schedule(d, func() { got = append(got, v) })
		}
		e.Run()
		return got
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different order at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestHeapProperty checks via testing/quick that events pop in
// non-decreasing time order regardless of insertion order.
func TestHeapProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New(7)
		var fired []time.Duration
		for _, d := range delays {
			e.Schedule(time.Duration(d)*time.Microsecond, func() {
				fired = append(fired, e.Now())
			})
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestPending(t *testing.T) {
	e := New(1)
	e.Schedule(time.Millisecond, func() {})
	e.Schedule(2*time.Millisecond, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending after run = %d, want 0", e.Pending())
	}
}

// TestStaleHandleCannotCancelRecycledEvent pins the safety property of the
// event pool: a handle kept past its event's firing must not cancel the
// recycled object when it is reused for a later scheduling.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	e := New(1)
	a := e.Schedule(time.Millisecond, func() {})
	e.Run() // a fires; its event object returns to the free list
	fired := false
	e.Schedule(time.Millisecond, func() { fired = true }) // reuses a's storage
	a.Cancel()
	e.Run()
	if !fired {
		t.Fatal("stale handle cancelled a recycled event")
	}
}

func TestCancelAfterFireStillReportsCancelled(t *testing.T) {
	e := New(1)
	ev := e.Schedule(time.Millisecond, func() {})
	e.Run()
	e.Schedule(time.Millisecond, func() {})
	ev.Cancel()
	if eventAt(ev) != 0 || e.Pending() != 1 {
		t.Fatalf("Cancel on a fired event: At %v, Pending %d, want 0 and 1", eventAt(ev), e.Pending())
	}
}

// TestLazySweepBoundsHeap checks that cancelled events do not stay in the
// heap until their timestamps come due: Cancel removes them at once.
func TestLazySweepBoundsHeap(t *testing.T) {
	e := New(1)
	const total = 10000
	events := make([]Event, 0, total)
	for i := 0; i < total; i++ {
		// Far-future events: left in the queue as tombstones they
		// would sit there for the whole run.
		events = append(events, e.Schedule(time.Duration(i+1)*time.Hour, func() {}))
	}
	live := 0
	for i := range events {
		if i%10 == 0 {
			live++
			continue
		}
		events[i].Cancel()
	}
	if e.Pending() != live {
		t.Fatalf("Pending = %d after cancelling 90%% of %d events, want the %d live ones", e.Pending(), total, live)
	}
	fired := 0
	for i := range events {
		if eventAt(events[i]) != 0 {
			fired++
		}
	}
	if fired != live {
		t.Fatalf("%d live handles, want %d", fired, live)
	}
	e.Run()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after run = %d, want 0", got)
	}
}

// TestSweepPreservesPopOrder cancels every third of 2000 interleaved
// events and checks the survivors still fire in non-decreasing time order,
// exactly once each.
func TestSweepPreservesPopOrder(t *testing.T) {
	e := New(3)
	var got []time.Duration
	var events []Event
	for i := 0; i < 2000; i++ {
		d := time.Duration(e.Rand().Intn(5000)) * time.Microsecond
		events = append(events, e.Schedule(d, func() { got = append(got, e.Now()) }))
	}
	survivors := 0
	for i := range events {
		if i%3 == 0 {
			events[i].Cancel()
		} else {
			survivors++
		}
	}
	e.Run()
	if len(got) != survivors {
		t.Fatalf("fired %d events, want %d", len(got), survivors)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("pop order violated at %d: %v after %v", i, got[i], got[i-1])
		}
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	e := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Duration(i%1000)*time.Microsecond, func() {})
		if e.Pending() > 1024 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkScheduleCancel measures the cancel-heavy churn of pacing senders
// that re-arm a pump timer on every ACK.
func BenchmarkScheduleCancel(b *testing.B) {
	e := New(1)
	noop := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := e.Schedule(time.Duration(i%1000)*time.Microsecond, noop)
		ev.Cancel()
		if e.Pending() > 4096 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkTicker measures periodic re-arming (one tick per iteration).
func BenchmarkTicker(b *testing.B) {
	e := New(1)
	tk := e.Every(time.Millisecond, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	e.RunUntil(time.Duration(b.N) * time.Millisecond)
	b.StopTimer()
	tk.Stop()
}

// BenchmarkScheduleReset has the queue shape of a smoke-sweep job: about
// 3,500 live events, each re-arming itself when it fires, and about 22 %
// of all schedulings re-arming one of 64 pacing pumps through Reset. One
// iteration executes one event.
func BenchmarkScheduleReset(b *testing.B) {
	const live, pumps = 3500, 64
	e := New(1)
	pump := make([]Event, pumps)
	noop := func() {}
	x := uint64(1) // LCG state: cheap, deterministic delays
	var fire func()
	fire = func() {
		x = x*6364136223846793005 + 1442695040888963407
		r := x >> 16
		e.Schedule(time.Duration(1+r%1000)*time.Microsecond, fire)
		if (r>>10)%100 < 28 { // 28 re-arms per 128 schedulings
			e.Reset(&pump[(r>>17)%pumps], time.Duration(1+(r>>24)%500)*time.Microsecond, noop)
		}
	}
	for i := 0; i < live-pumps; i++ {
		e.Schedule(time.Duration(i%1000)*time.Microsecond, fire)
	}
	for k := range pump {
		pump[k] = e.Schedule(time.Duration(k)*time.Microsecond, noop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
	}
}
