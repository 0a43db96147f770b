package gcc

import (
	"runtime"
	"testing"
	"time"

	"pbecc/internal/cc"
	"pbecc/internal/netsim"
	"pbecc/internal/sim"
	"pbecc/internal/stats"
)

func TestInterArrivalGroupsBursts(t *testing.T) {
	var ia interArrival
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }

	// Three packets inside one 5 ms burst: no delta yet.
	for i, at := range []int{0, 2, 4} {
		if _, _, ok := ia.add(ms(at), ms(at+10), 1500); ok {
			t.Fatalf("packet %d completed a group prematurely", i)
		}
	}
	// Next burst at 10 ms closes the first group but there is no previous
	// complete group to diff against.
	if _, _, ok := ia.add(ms(10), ms(21), 1500); ok {
		t.Fatal("first group pair should not produce a delta")
	}
	// Third burst: now groups one and two are diffable. Send delta is
	// 10-4=6 ms; arrival delta 21-14=7 ms.
	sd, ad, ok := ia.add(ms(20), ms(30), 1500)
	if !ok {
		t.Fatal("expected a delta")
	}
	if sd != 6*time.Millisecond || ad != 7*time.Millisecond {
		t.Fatalf("deltas = %v/%v, want 6ms/7ms", sd, ad)
	}
}

func TestTrendlineSlopeSigns(t *testing.T) {
	var up trendline
	var slope float64
	for i := 1; i <= 30; i++ {
		// Every group arrives 1 ms later than it was sent relative to the
		// previous one: the queue grows linearly.
		slope = up.update(time.Duration(i*10)*time.Millisecond, 1.0)
	}
	if slope <= 0 {
		t.Fatalf("growing delay gave slope %v, want > 0", slope)
	}

	var flat trendline
	for i := 1; i <= 30; i++ {
		slope = flat.update(time.Duration(i*10)*time.Millisecond, 0)
	}
	if slope != 0 {
		t.Fatalf("flat delay gave slope %v, want 0", slope)
	}
}

func TestDetectorSustainedOveruse(t *testing.T) {
	d := newDetector()
	state := usageNormal
	// A strong positive trend sustained over many groups must trip the
	// detector; a single sample must not.
	if d.detect(1.0, 5*time.Millisecond, 2, 5*time.Millisecond) == usageOver {
		t.Fatal("a single sample tripped the detector")
	}
	for i := 2; i < 20; i++ {
		now := time.Duration(i*5) * time.Millisecond
		state = d.detect(1.0, 5*time.Millisecond, i+1, now)
	}
	if state != usageOver {
		t.Fatalf("sustained trend gave state %v, want overuse", state)
	}

	d2 := newDetector()
	for i := 0; i < 20; i++ {
		now := time.Duration(i*5) * time.Millisecond
		state = d2.detect(-1.0, 5*time.Millisecond, i+2, now)
	}
	if state != usageUnder {
		t.Fatalf("negative trend gave state %v, want underuse", state)
	}
}

func TestAIMDDecreaseTracksThroughput(t *testing.T) {
	a := newAIMD(10e6)
	a.decreased = true // past startup
	got := a.update(time.Second, usageOver, 8e6)
	want := beta * 8e6
	if got != want {
		t.Fatalf("overuse at 8 Mbit/s gave %v, want %v", got, want)
	}
	if a.state != rcHold {
		t.Fatal("decrease must land in hold")
	}
	// Normal signal resumes increase from hold.
	a.update(time.Second+100*time.Millisecond, usageNormal, 8e6)
	if a.state != rcIncrease {
		t.Fatalf("state = %v, want increase", a.state)
	}
	r := a.update(time.Second+600*time.Millisecond, usageNormal, 8e6)
	if r <= want {
		t.Fatalf("increase did not raise the rate: %v", r)
	}
}

func TestAIMDStartupRamp(t *testing.T) {
	a := newAIMD(StartRate)
	rate := a.rate
	for i := 1; i <= 10; i++ {
		rate = a.update(time.Duration(i)*100*time.Millisecond, usageNormal, rate)
	}
	// One second of startup should multiply the rate several times over.
	if rate < 4*StartRate {
		t.Fatalf("startup ramp reached only %.0f bit/s after 1 s", rate)
	}
}

// runBottleneck drives a GCC flow (REMB receiver attached) over a single
// fixed-rate bottleneck and reports second-half goodput and delay.
func runBottleneck(t *testing.T, rateBps float64, rtt time.Duration, queueBytes int, dur time.Duration) (tputMbps, p95ms, minms float64) {
	t.Helper()
	eng := sim.New(7)
	var snd *cc.Sender
	ackLink := netsim.NewLink(eng, 0, rtt/2, 0, netsim.HandlerFunc(func(now time.Duration, p *netsim.Packet) {
		snd.HandlePacket(now, p)
	}))
	rcv := cc.NewReceiver(eng, 1, ackLink)
	rcv.Feedback = NewREMB()

	delays := &stats.DurationSeries{}
	bytes := 0
	half := dur / 2
	rcv.OnData = func(now time.Duration, p *netsim.Packet, owd time.Duration) {
		if now >= half {
			delays.AddDuration(owd)
			bytes += p.Size
		}
	}
	fwd := netsim.NewLink(eng, rateBps, rtt/2, queueBytes, rcv)
	snd = cc.NewSender(eng, 1, fwd, New())
	snd.Start()
	eng.RunUntil(dur)
	return float64(bytes) * 8 / half.Seconds() / 1e6, delays.Percentile(95), delays.Min()
}

func TestGCCConvergesOnBottleneck(t *testing.T) {
	tput, p95, min := runBottleneck(t, 20e6, 40*time.Millisecond, 100*1500, 16*time.Second)
	if tput < 12 || tput > 20.5 {
		t.Fatalf("throughput %.1f Mbit/s on a 20 Mbit/s link", tput)
	}
	// Delay-based control must keep the standing queue well below full:
	// 100 packets at 20 Mbit/s is 60 ms of queue on top of 20 ms of
	// propagation.
	if p95 > min+55 {
		t.Fatalf("p95 delay %.1f ms vs min %.1f ms: queue not controlled", p95, min)
	}
}

func TestGCCStartupReachesCapacityQuickly(t *testing.T) {
	tput, _, _ := runBottleneck(t, 20e6, 40*time.Millisecond, 100*1500, 4*time.Second)
	// The startup probe must lift the flow well beyond the 1 Mbit/s start
	// rate within the first two seconds.
	if tput < 8 {
		t.Fatalf("second-half throughput %.1f Mbit/s: startup too slow", tput)
	}
}

func TestGCCWithoutREMBIsBounded(t *testing.T) {
	eng := sim.New(3)
	var snd *cc.Sender
	ackLink := netsim.NewLink(eng, 0, 20*time.Millisecond, 0, netsim.HandlerFunc(func(now time.Duration, p *netsim.Packet) {
		snd.HandlePacket(now, p)
	}))
	rcv := cc.NewReceiver(eng, 1, ackLink) // no feedback source
	fwd := netsim.NewLink(eng, 10e6, 20*time.Millisecond, 60*1500, rcv)
	g := New()
	snd = cc.NewSender(eng, 1, fwd, g)
	snd.Start()
	eng.RunUntil(4 * time.Second)
	// Without a receiver estimator the delivery-rate bound must keep the
	// pacing rate near the link rate, not at MaxRate.
	if r := g.PacingRate(); r > 40e6 {
		t.Fatalf("pacing rate %.0f without REMB: unbounded", r)
	}
	if rcv.Received == 0 {
		t.Fatal("no packets delivered")
	}
}

func TestREMBFeedbackInterface(t *testing.T) {
	r := NewREMB()
	var rate float64
	// A steady 5 Mbit/s stream with no queue growth: estimate must rise
	// above the start rate and the bottleneck bit must stay clear.
	interval := 2400 * time.Microsecond // 1500 B at 5 Mbit/s
	for i := 0; i < 2000; i++ {
		now := time.Duration(i) * interval
		var btl bool
		rate, btl = r.Feedback(now, 10*time.Millisecond, 1500)
		if btl {
			t.Fatal("REMB set the PBE bottleneck bit")
		}
	}
	if rate <= StartRate {
		t.Fatalf("estimate %.0f did not grow from the start rate", rate)
	}
}

// TestWindowsAllocateNothing pins the receive-rate window and the
// trendline at zero allocations once warmed: the rate window is a ring
// that expired samples leave in place, and the trendline's samples are
// fixed arrays.
func TestWindowsAllocateNothing(t *testing.T) {
	r := newRateWindow(500 * time.Millisecond)
	var tl trendline
	now := time.Duration(0)
	step := func() {
		now += time.Millisecond
		r.add(now, 1200)
		r.rate(now)
		tl.update(now, 0.25)
	}
	batch := func() {
		for i := 0; i < 5000; i++ {
			step()
		}
	}
	// One measured batch after one warm-up batch: every allocation counts
	// (a per-step average would round the periodic reallocations away).
	if n := testing.AllocsPerRun(1, batch); n != 0 {
		t.Fatalf("5000 warmed add/rate/update steps allocate %v times, want 0", n)
	}
	// Nor does a fresh trendline, which every REMB starts with.
	fresh := func() {
		var tl trendline
		for i := 0; i < 2*trendlineWindow; i++ {
			tl.update(time.Duration(i)*time.Millisecond, 0.25)
		}
	}
	if n := testing.AllocsPerRun(10, fresh); n != 0 {
		t.Fatalf("a fresh trendline's first %d updates allocate %v times, want 0", 2*trendlineWindow, n)
	}
	// A fresh rate window filling to 2,000 samples grows by doubling:
	// once for its first 64 slots and five times more, up to 2,048.
	fill := func() {
		w := newRateWindow(500 * time.Millisecond)
		for i := 0; i < 2000; i++ {
			w.add(time.Duration(i)*100*time.Microsecond, 1200)
		}
	}
	if n := testing.AllocsPerRun(10, fill); n > 7 {
		t.Fatalf("filling a fresh rate window to 2000 samples allocates %v times, want at most 7", n)
	}
}

// TestTrendlineKeepsNewestWindow checks the in-place shift against the
// least-squares fit over exactly the newest trendlineWindow samples, in
// oldest-to-newest order, bit for bit.
func TestTrendlineKeepsNewestWindow(t *testing.T) {
	var tl trendline
	var ts, ds []float64
	for i := 0; i < 3*trendlineWindow; i++ {
		at := time.Duration(i*7) * time.Millisecond
		got := tl.update(at, float64(i%5)-1.5)
		ts = append(ts, float64(at.Microseconds())/1000)
		ds = append(ds, tl.smoothedDelay)
		if len(ts) > trendlineWindow {
			ts, ds = ts[1:], ds[1:]
		}
		ref := trendline{n: len(ts)}
		copy(ref.times[:], ts)
		copy(ref.delays[:], ds)
		if want := ref.slope(); got != want {
			t.Fatalf("sample %d: slope %v, want %v", i, got, want)
		}
	}
}

// TestRingsComeBackFromTheEngine: an estimator and a controller that take
// their rings from a recycled engine get the ones the previous run grew,
// so the same run grows nothing again.
func TestRingsComeBackFromTheEngine(t *testing.T) {
	eng := sim.New(1)
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, g := NewREMB(), New()
		r.TakeRings(eng)
		g.TakeRings(eng)
		// 2000 packets in 200 ms: every one stays in the 500 ms rate
		// window, and each delivery sample, smaller than the last, stays
		// a candidate of the 2 s maximum.
		for i := 0; i < 2000; i++ {
			now := time.Duration(i) * 100 * time.Microsecond
			r.Observe(now, 20*time.Millisecond, 1200)
			g.OnAck(cc.AckSample{Now: now, DeliveryRate: float64(1e9 - i)})
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := run()
	eng.Recycle()
	if again := run(); again >= first/8 {
		t.Fatalf("a run on the recycled engine allocated %d bytes, the first %d", again, first)
	}
}
