package fluid

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"pbecc/internal/phy"
	"pbecc/internal/trace"
)

// onTime is the exact time a (rate, on, off, phase) envelope is on in
// [0, T]: the continuous-time reference a per-packet on/off source
// (netsim.CrossTraffic under harness.scheduleOnOff) offers load over.
func onTime(on, off, phase, T time.Duration) time.Duration {
	if T <= phase {
		return 0
	}
	t := T - phase
	cycle := on + off
	active := time.Duration(t/cycle) * on
	if rem := t % cycle; rem < on {
		active += rem
	} else {
		active += on
	}
	return active
}

func testMCS() phy.MCS {
	return phy.MCS{CQI: 11, Table: phy.Table64QAM, Streams: 1}
}

// drawSessions draws n sessions exactly the way the metro family's churn
// population is drawn: Figure 11(b) rates (two PRBs' worth) and
// SessionOnOff cycles, phase uniform over the cycle.
func drawSessions(n int, rng *rand.Rand) []Session {
	ss := make([]Session, n)
	for i := range ss {
		rate := trace.SampleUserRate(rng) * 2e6
		on, off := trace.SessionOnOff(rng)
		ss[i] = Session{
			RNTI:    uint16(1000 + i),
			MCS:     testMCS(),
			RateBps: rate,
			On:      on,
			Off:     off,
			Phase:   time.Duration(rng.Int63n(int64(on + off))),
		}
	}
	return ss
}

// TestCellProcessCalibration is the fluid-tier calibration property: the
// long-run aggregate offered load of the envelope process (active flags
// re-evaluated only once per 40 ms window) must match the empirical mean
// of the same per-packet SessionOnOff/SampleUserRate churn - computed
// here in closed form as sum(rate x exact on-time) - within 2% at a
// fixed seed.
func TestCellProcessCalibration(t *testing.T) {
	const T = 60 * time.Second
	rng := rand.New(rand.NewSource(77))
	ss := drawSessions(256, rng)

	var want float64
	for _, s := range ss {
		want += s.RateBps * onTime(s.On, s.Off, s.Phase, T).Seconds()
	}

	p := NewCellProcess(ss, 0, 0) // default window, uncapped backlog
	// One Demand call at T walks every window boundary, accruing each
	// segment under the flags that were live during it.
	p.Demand(T)
	got := p.Stats().OfferedBits
	if err := math.Abs(got-want) / want; err > 0.02 {
		t.Fatalf("windowed offered load %.4g vs per-packet churn mean %.4g: error %.2f%% > 2%%",
			got, want, 100*err)
	}
	if p.Stats().EnvelopeUpdates != uint64(T/DefaultWindow)+1 {
		t.Fatalf("envelope updates = %d, want %d", p.Stats().EnvelopeUpdates, uint64(T/DefaultWindow)+1)
	}
}

// TestModeledCalibration applies the same 2% calibration bound to the
// compact modeled tier, against the analytic on-time of its own
// millisecond-quantized session parameters.
func TestModeledCalibration(t *testing.T) {
	const T = 60 * time.Second
	m := DrawModeled(64, 16, rand.New(rand.NewSource(99)), 0)

	var want float64
	for _, b := range m.blocks {
		for _, s := range b {
			on := time.Duration(s.onMs) * time.Millisecond
			off := time.Duration(s.offMs) * time.Millisecond
			phase := time.Duration(s.phaseMs) * time.Millisecond
			want += float64(s.rateBps) * onTime(on, off, phase, T).Seconds()
		}
	}

	ch := m.Chunks(1)[0]
	for now := m.Window; now <= T; now += m.Window {
		ch.Advance(now)
	}
	got := m.Stats().OfferedBits
	if err := math.Abs(got-want) / want; err > 0.02 {
		t.Fatalf("modeled offered load %.4g vs churn mean %.4g: error %.2f%% > 2%%",
			got, want, 100*err)
	}
}

// TestModeledChunkPartitionInvariance: the modeled population's
// accounting must not depend on how many chunks (shards) advance it.
// Identical partitions must agree exactly; different widths only regroup
// float sums, so they agree to rounding.
func TestModeledChunkPartitionInvariance(t *testing.T) {
	const T = 4 * time.Second
	m := DrawModeled(64, 16, rand.New(rand.NewSource(5)), 0)
	run := func(n int) Stats {
		chunks := m.Chunks(n)
		if len(chunks) != n {
			t.Fatalf("Chunks(%d) yielded %d chunks", n, len(chunks))
		}
		cells := 0
		for _, ch := range chunks {
			for now := m.Window; now <= T; now += m.Window {
				ch.Advance(now)
			}
			cells += ch.cells
		}
		if cells != m.Cells {
			t.Fatalf("partition covers %d cells, want %d", cells, m.Cells)
		}
		return m.Stats()
	}
	base := run(1)
	again := run(1)
	if base != again {
		t.Fatalf("same partition disagrees: %+v vs %+v", base, again)
	}
	for _, n := range []int{5, 8, 64} {
		s := run(n)
		if s.SessionOnWindows != base.SessionOnWindows || s.EnvelopeUpdates != base.EnvelopeUpdates {
			t.Fatalf("n=%d integer stats differ: %+v vs %+v", n, s, base)
		}
		if rel := math.Abs(s.OfferedBits-base.OfferedBits) / base.OfferedBits; rel > 1e-12 {
			t.Fatalf("n=%d offered bits differ by %.3g relative", n, rel)
		}
	}
}

// TestQuantumGate: a session below one packet quantum of backlog must
// not demand (its PDCCH duty cycle should mimic a packet source's), and
// Serve must drain exactly what was granted.
func TestQuantumGate(t *testing.T) {
	ss := []Session{{RNTI: 70, MCS: testMCS(), RateBps: 1e6, On: time.Hour, Off: time.Millisecond}}
	p := NewCellProcess(ss, 0, 0)
	// 1 Mbit/s x 10 ms = 10000 bits < QuantumBits (12000).
	if d := p.Demand(10 * time.Millisecond); len(d) != 0 {
		t.Fatalf("demand below quantum: %+v", d)
	}
	// By 16 ms the backlog passes the quantum.
	d := p.Demand(16 * time.Millisecond)
	if len(d) != 1 || d[0].RNTI != 70 || d[0].Bits < QuantumBits {
		t.Fatalf("demand = %+v, want one entry >= quantum", d)
	}
	p.Serve(0, d[0].Bits)
	if got := p.Stats().ServedBits; got != float64(d[0].Bits) {
		t.Fatalf("served %v, want %v", got, d[0].Bits)
	}
	if d := p.Demand(16 * time.Millisecond); len(d) != 0 {
		t.Fatalf("backlog not drained: %+v", d)
	}
}

// TestBacklogCap: a capped session drops excess offered load like a full
// per-user RLC queue, and the drop is accounted, not silently lost.
func TestBacklogCap(t *testing.T) {
	ss := []Session{{RNTI: 70, MCS: testMCS(), RateBps: 100e6, On: time.Hour, Off: time.Millisecond}}
	p := NewCellProcess(ss, 0, 50000)
	d := p.Demand(time.Second) // offered 100 Mbit, cap 50 kbit
	if len(d) != 1 || d[0].Bits != 50000 {
		t.Fatalf("demand = %+v, want one 50000-bit entry", d)
	}
	st := p.Stats()
	if st.OfferedBits < 99e6 {
		t.Fatalf("offered accounting lost to the cap: %v", st.OfferedBits)
	}
	if want := st.OfferedBits - 50000; math.Abs(st.DroppedBits-want) > 1 {
		t.Fatalf("dropped = %v, want %v", st.DroppedBits, want)
	}
}

// TestSessionPhase: a session is off before its phase delay and cycles
// on-first afterwards, matching harness.scheduleOnOff's semantics. One
// chain steps through the samples in order, as CellProcess.Demand does.
func TestSessionPhase(t *testing.T) {
	s := Session{On: 30 * time.Millisecond, Off: 70 * time.Millisecond, Phase: 50 * time.Millisecond}
	cases := []struct {
		t    time.Duration
		want bool
	}{
		{0, false},
		{49 * time.Millisecond, false},
		{50 * time.Millisecond, true},
		{79 * time.Millisecond, true},
		{80 * time.Millisecond, false},
		{149 * time.Millisecond, false},
		{150 * time.Millisecond, true},
	}
	on, next := false, s.Phase
	for _, c := range cases {
		if on, next = step(on, next, c.t, s.On, s.Off); on != c.want {
			t.Errorf("chain at %v: on = %v, want %v", c.t, on, c.want)
		}
	}
}

// activeOracle is the closed form the on/off chains replace: off before
// the phase, then on iff (t-phase) mod (on+off) < on, and on for good when
// on+off is zero. It works in any one unit: milliseconds or nanoseconds.
func activeOracle(on, off, phase, t int64) bool {
	if t < phase {
		return false
	}
	cycle := on + off
	if cycle <= 0 {
		return true
	}
	return (t-phase)%cycle < on
}

// oracleWindow is one window of ModeledChunk.Advance by the closed form:
// the sessions on at startMs, summed in session order.
func oracleWindow(ss []modeledSession, startMs int64, window time.Duration) (offered float64, on uint64) {
	winSec := window.Seconds()
	for _, s := range ss {
		if activeOracle(int64(s.onMs), int64(s.offMs), int64(s.phaseMs), startMs) {
			offered += float64(float64(s.rateBps) * winSec)
			on++
		}
	}
	return offered, on
}

// flatten copies a population's sessions out in session order.
func flatten(m *Modeled) []modeledSession { return flattenInto(nil, m) }

// flattenInto is flatten into dst's storage.
func flattenInto(dst []modeledSession, m *Modeled) []modeledSession {
	dst = dst[:0]
	for _, b := range m.blocks {
		dst = append(dst, b...)
	}
	return dst
}

// oracleBatches are the batch sizes checkOracle advances in: one window
// (Advance), a few, and a whole run.
var oracleBatches = []int{1, 3, 8, 0}

// checkOracle chunks m n ways and, for each of oracleBatches, advances
// every chunk through nows in batches of that many windows (all of them
// for 0). After each batch it holds every window's offered bits (bit for
// bit) and on-count (exactly) to the closed form over the chunk's own
// cells, each chunk's totals to the oracle's running sums, and every
// session's chain to the one that stepping window by window leaves.
func checkOracle(t *testing.T, m *Modeled, n int, nows []time.Duration) {
	t.Helper()
	type window struct {
		offered float64
		on      uint64
	}
	n = min(n, m.Cells)
	span := func(c int) (int, int) {
		return m.Cells * c / n * m.UsersPerCell, m.Cells * (c + 1) / n * m.UsersPerCell
	}
	flat := flatten(m)
	oracle := make([][]window, n)
	for c := range oracle {
		first, last := span(c)
		for _, now := range nows {
			o, k := oracleWindow(flat[first:last], (now - m.Window).Milliseconds(), m.Window)
			oracle[c] = append(oracle[c], window{o, k})
		}
	}
	for _, batch := range oracleBatches {
		chunks := m.Chunks(n)
		ref, got := flatten(m), []modeledSession(nil)
		if batch == 0 {
			batch = len(nows)
		}
		offered := make([]float64, n)
		on := make([]uint64, n)
		for lo := 0; lo < len(nows); lo += batch {
			ends := nows[lo:min(lo+batch, len(nows))]
			for c, ch := range chunks {
				ch.AdvanceWindows(ends)
				// The windows before the first that steps the chains are
				// idle: they offer nothing and have no accumulator.
				idle := len(ends) - len(ch.acc)
				var running int64
				for k := range ends {
					var got window
					if k >= idle {
						running += ch.diff[k-idle]
						got = window{ch.acc[k-idle], uint64(running)}
					}
					want := oracle[c][lo+k]
					if math.Float64bits(got.offered) != math.Float64bits(want.offered) || got.on != want.on {
						t.Fatalf("n=%d batch=%d chunk %d window ending %v: %+v, oracle %+v",
							n, batch, c, ends[k], got, want)
					}
					offered[c] += want.offered
					on[c] += want.on
				}
				if math.Float64bits(ch.offeredBits) != math.Float64bits(offered[c]) || ch.onWindows != on[c] {
					t.Fatalf("n=%d batch=%d chunk %d after %v: offered %v on %d, oracle %v on %d",
						n, batch, c, ends[len(ends)-1], ch.offeredBits, ch.onWindows, offered[c], on[c])
				}
			}
			// Stepping to a start walks every toggle before it, so the
			// reference steps only at the starts it is compared at. Batches
			// of one window are compared only at the end, which keeps the
			// race-detector run short.
			if batch == 1 && lo+1 < len(nows) {
				continue
			}
			if startMs := (ends[len(ends)-1] - m.Window).Milliseconds(); startMs >= 0 {
				for i := range ref {
					if uint32(startMs) >= ref[i].next {
						ref[i].stepTo(uint32(startMs))
					}
				}
			}
			if got = flattenInto(got, m); !slices.Equal(got, ref) {
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("n=%d batch=%d after %v: session %d chain %+v, per-window stepping %+v",
							n, batch, ends[len(ends)-1], i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// windowEnds returns the first k window ends of w.
func windowEnds(w time.Duration, k int) []time.Duration {
	nows := make([]time.Duration, k)
	for i := range nows {
		nows[i] = time.Duration(i+1) * w
	}
	return nows
}

// TestModeledAdvanceMatchesOracle: the toggle chains reproduce the modulo
// formula's accounting bit for bit, window by window and in batches, for
// drawn populations over several seeds and chunk widths (24 users per
// cell, so blocks end on cell boundaries short of 64 KiB and chunks split
// blocks), and for hand-built sessions with zero on and off times
// sampled every millisecond, so every sample lands on every toggle.
func TestModeledAdvanceMatchesOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		m := DrawModeled(300, 24, rand.New(rand.NewSource(seed)), 0)
		if len(m.blocks) < 2 {
			t.Fatalf("population of %d blocks; the test wants several", len(m.blocks))
		}
		for _, n := range []int{1, 3, 8} {
			checkOracle(t, m, n, windowEnds(m.Window, 500))
		}
		// Starts further apart than a window, and repeated ones, make a
		// run's end guess overshoot and undershoot.
		var uneven []time.Duration
		for i := 0; i < 60; i++ {
			end := time.Duration(i*(i+1)/2+1) * m.Window
			uneven = append(uneven, end, end)
		}
		checkOracle(t, m, 3, uneven)
	}

	hand := []struct{ on, off, phase uint16 }{
		{0, 0, 0}, {0, 0, 5}, // on from the phase onward
		{0, 7, 0}, {0, 7, 3}, // never on
		{5, 0, 0}, {5, 0, 2}, // on from the phase onward
		{3, 4, 0}, {1, 1, 0}, {40, 80, 40}, {100, 4000, 7999},
		{65535, 65535, 65535},
	}
	ms := time.Millisecond
	b := make([]modeledSession, len(hand))
	for i, h := range hand {
		b[i] = newModeledSession(float32(1e6+i), h.on, h.off, h.phase)
	}
	m := &Modeled{Window: ms, Cells: len(b), UsersPerCell: 1, blocks: [][]modeledSession{b}, blockLen: maxBlockSessions}
	// now = 0 starts its window before 0 ms, so no session is on; now =
	// 0.5 ms starts one at 0 ms, as Duration.Milliseconds truncates toward
	// zero, and so does the next window: two equal starts.
	nows := append([]time.Duration{0, ms / 2}, windowEnds(ms, 400)...)
	for _, n := range []int{1, 3, 8} {
		checkOracle(t, m, n, nows)
	}
	m.Window = DefaultWindow
	checkOracle(t, m, 3, append([]time.Duration{DefaultWindow - ms/2}, windowEnds(DefaultWindow, 10)...))
}

// TestModeledLayout pins the memory layout DESIGN.md promises: 16 bytes a
// session, and blocks of at most 64 KiB that hold whole cells whenever a
// cell fits in one, covering the population in order.
func TestModeledLayout(t *testing.T) {
	if got := unsafe.Sizeof(modeledSession{}); got != 16 {
		t.Fatalf("modeledSession is %d bytes, want 16", got)
	}
	for _, perCell := range []int{1, 16, 24, 4096, 5000} {
		m := DrawModeled(37, perCell, rand.New(rand.NewSource(1)), 0)
		n := 0
		for i, b := range m.blocks {
			if bytes := len(b) * int(unsafe.Sizeof(b[0])); bytes > 64<<10 {
				t.Fatalf("perCell=%d block %d holds %d bytes", perCell, i, bytes)
			}
			if perCell <= maxBlockSessions && len(b)%perCell != 0 {
				t.Fatalf("perCell=%d block %d holds %d sessions: not whole cells", perCell, i, len(b))
			}
			n += len(b)
		}
		if n != 37*perCell {
			t.Fatalf("perCell=%d blocks hold %d sessions, want %d", perCell, n, 37*perCell)
		}
	}
}

// TestModeledOverflowNamesField: a draw that overflows uint16 milliseconds
// panics with the name of the first field that does.
func TestModeledOverflowNamesField(t *testing.T) {
	for _, c := range []struct {
		on, off, phase int64
		want           string
	}{
		{70000, 1, 1, "on time 70000 ms"},
		{1, 65536, 70000, "off time 65536 ms"},
		{1, 1, 65536, "phase time 65536 ms"},
		{-1, 1, 1, "on time -1 ms"},
	} {
		if got := overflow(c.on, c.off, c.phase); !strings.Contains(got, c.want) {
			t.Errorf("overflow(%d, %d, %d) = %q, want it to name %q", c.on, c.off, c.phase, got, c.want)
		}
	}
}

// TestModeledAdvanceAllocatesNothing: a warm Advance, and a warm batch,
// is a pass over the chunk's blocks and nothing else.
func TestModeledAdvanceAllocatesNothing(t *testing.T) {
	m := DrawModeled(300, 16, rand.New(rand.NewSource(3)), 0)
	ch := m.Chunks(2)[1]
	now := m.Window
	ch.Advance(now)
	if allocs := testing.AllocsPerRun(50, func() {
		now += m.Window
		ch.Advance(now)
	}); allocs != 0 {
		t.Fatalf("Advance allocates %v times a window", allocs)
	}
	ends := windowEnds(m.Window, 8)
	for i := range ends {
		ends[i] += now
	}
	ch.AdvanceWindows(ends)
	if allocs := testing.AllocsPerRun(50, func() {
		for i := range ends {
			ends[i] += 8 * m.Window
		}
		ch.AdvanceWindows(ends)
	}); allocs != 0 {
		t.Fatalf("AdvanceWindows allocates %v times a batch of 8 windows", allocs)
	}
}

// TestModeledBatchPanicsLikeWindows: a batch with a start that steps
// back, or past the last start a chain can reach, accounts the windows
// before it and then panics with the message a per-window Advance gives.
func TestModeledBatchPanicsLikeWindows(t *testing.T) {
	w := DefaultWindow
	back := append(windowEnds(w, 5), 3*w)
	far := append(windowEnds(w, 5), w+time.Duration(maxChainMs+1)*time.Millisecond)
	for _, ends := range [][]time.Duration{back, far} {
		run := func(advance func(*ModeledChunk)) (msg any, st Stats) {
			m := DrawModeled(40, 16, rand.New(rand.NewSource(4)), 0)
			ch := m.Chunks(1)[0]
			func() {
				defer func() { msg = recover() }()
				advance(ch)
			}()
			return msg, m.Stats()
		}
		batchMsg, batch := run(func(ch *ModeledChunk) { ch.AdvanceWindows(ends) })
		msg, each := run(func(ch *ModeledChunk) {
			for _, now := range ends {
				ch.Advance(now)
			}
		})
		if msg == nil || batchMsg != msg {
			t.Errorf("batch panicked with %v, per-window calls with %v", batchMsg, msg)
		}
		streamMsg := func() (msg any) {
			defer func() { msg = recover() }()
			StreamModeled(40, 16, rand.New(rand.NewSource(4)), 0, 1, ends)
			return nil
		}()
		if streamMsg != msg {
			t.Errorf("streamed pass panicked with %v, per-window calls with %v", streamMsg, msg)
		}
		if batch != each || batch.EnvelopeUpdates != 5*40 {
			t.Errorf("before the panic a batch accounted %+v, per-window calls %+v", batch, each)
		}
	}
}

// TestModeledRechunkRestarts: Chunks restarts a population that earlier
// chunks advanced, so re-chunking reproduces a fresh draw's run exactly.
func TestModeledRechunkRestarts(t *testing.T) {
	run := func(m *Modeled, n int) Stats {
		for _, ch := range m.Chunks(n) {
			for _, now := range windowEnds(m.Window, 200) {
				ch.Advance(now)
			}
		}
		return m.Stats()
	}
	fresh := run(DrawModeled(300, 16, rand.New(rand.NewSource(8)), 0), 3)
	m := DrawModeled(300, 16, rand.New(rand.NewSource(8)), 0)
	run(m, 5)
	if again := run(m, 3); again != fresh {
		t.Fatalf("re-chunked run %+v, fresh run %+v", again, fresh)
	}
}

// TestStreamModeledMatchesStored: the streamed pass leaves every chunk's
// offered bits (under Float64bits), on-windows and windows where the
// stored path - DrawModeled, Chunks(n), one AdvanceWindows per chunk -
// leaves them, and returns the stored Stats, at 1, 2, 3 and 8 chunks: for
// a cell count 8 does not divide, windows that start before zero, a
// population smaller than one block and one whose blocks split every
// cell. A run shorter than one window draws nothing.
func TestStreamModeledMatchesStored(t *testing.T) {
	type chunk struct{ offered, on, windows uint64 }
	w := DefaultWindow
	early := append([]time.Duration{w / 2, w - time.Millisecond}, windowEnds(w, 60)...)
	for _, c := range []struct {
		cells, perCell int
		ends           []time.Duration
	}{
		{300, 24, windowEnds(w, 100)},
		{301, 16, early},
		{5, 16, windowEnds(w, 100)}, // 80 sessions
		{7, 5000, windowEnds(w, 30)},
	} {
		for _, n := range []int{1, 2, 3, 8} {
			seed := int64(c.cells + n)
			m := DrawModeled(c.cells, c.perCell, rand.New(rand.NewSource(seed)), w)
			var want, got []chunk
			for _, ch := range m.Chunks(n) {
				ch.AdvanceWindows(c.ends)
				want = append(want, chunk{math.Float64bits(ch.offeredBits), ch.onWindows, ch.windows})
			}
			streamChunks(c.cells, c.perCell, rand.New(rand.NewSource(seed)), w, n, c.ends, func(ch *ModeledChunk) {
				got = append(got, chunk{math.Float64bits(ch.offeredBits), ch.onWindows, ch.windows})
			})
			if !slices.Equal(got, want) {
				t.Errorf("%d x %d sessions in %d chunks: streamed chunks %+v, stored %+v", c.cells, c.perCell, n, got, want)
			}
			st := StreamModeled(c.cells, c.perCell, rand.New(rand.NewSource(seed)), w, n, c.ends)
			if ref := m.Stats(); st != ref || math.Float64bits(st.OfferedBits) != math.Float64bits(ref.OfferedBits) {
				t.Errorf("%d x %d sessions in %d chunks: streamed %+v, stored %+v", c.cells, c.perCell, n, st, ref)
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	st := StreamModeled(65536, 16, rng, w, 3, nil)
	if want := (Stats{Sessions: 1 << 20, Cells: 65536}); st != want {
		t.Errorf("a run of no window accounted %+v, want %+v", st, want)
	}
	if rng.Int63() != rand.New(rand.NewSource(1)).Int63() {
		t.Error("a run of no window drew sessions")
	}
}

// TestStreamModeledKeepsNoPopulation: a streamed pass allocates less than
// one byte a session (its one block buffer and a batch's scratch), where
// the stored population takes 16.
func TestStreamModeledKeepsNoPopulation(t *testing.T) {
	const cells, perCell = 16384, 16
	rng := rand.New(rand.NewSource(1))
	ends := windowEnds(DefaultWindow, 25)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := StreamModeled(cells, perCell, rng, 0, 3, ends)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= cells*perCell {
		t.Errorf("a streamed pass over %d sessions allocated %d bytes", cells*perCell, alloc)
	}
	if st.SessionOnWindows == 0 {
		t.Error("the streamed pass accounted no on window")
	}
}

// FuzzEnvelopeChain: for any on/off/phase in uint16 milliseconds and any
// non-decreasing sample times (two-byte little-endian steps from 0, at
// most 64 of them), both tiers' chains - the modeled tier's in uint32
// milliseconds, the cell tier's in nanoseconds - terminate and agree with
// the closed form after every sample.
func FuzzEnvelopeChain(f *testing.F) {
	f.Fuzz(func(t *testing.T, on, off, phase uint16, steps []byte) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			ms := time.Millisecond
			s := newModeledSession(1e6, on, off, phase)
			nsOn, nsNext := false, time.Duration(phase)*ms
			var at uint32
			for i := 0; i+1 < len(steps) && i < 128; i += 2 {
				at += uint32(steps[i]) | uint32(steps[i+1])<<8
				s.stepTo(at)
				nsOn, nsNext = step(nsOn, nsNext, time.Duration(at)*ms, time.Duration(on)*ms, time.Duration(off)*ms)
				want := activeOracle(int64(on), int64(off), int64(phase), int64(at))
				if (s.on == 1) != want || nsOn != want {
					t.Errorf("on=%d off=%d phase=%d at %d ms: modeled chain %d, cell chain %v, oracle %v",
						on, off, phase, at, s.on, nsOn, want)
					return
				}
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("on=%d off=%d phase=%d: chain still stepping after 10 s", on, off, phase)
		}
	})
}
