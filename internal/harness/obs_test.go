package harness

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"pbecc/internal/obs"
)

// obsFingerprint extends the metro fingerprint with the probe's
// estimation-error metric, so the determinism checks cover everything the
// sweep rows read.
func obsFingerprint(t *testing.T, res *Result) []byte {
	t.Helper()
	errs := make([]float64, len(res.Flows))
	for i, f := range res.Flows {
		errs[i] = f.PBEErrPct
	}
	b, err := json.Marshal(struct {
		Base   json.RawMessage
		PBEErr []float64
	}{metroFingerprint(t, res), errs})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func runMetroObs(t *testing.T, shards int, metrics, series bool) ([]byte, *Result) {
	t.Helper()
	sc, err := BuildScenario("metro", "pbe", Params{
		Seed: 5, Cells: 4, Duration: 300 * time.Millisecond, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	sc.Series = series
	if metrics {
		obs.Reset()
		obs.Enable()
		defer func() {
			obs.Disable()
			obs.Reset()
		}()
	}
	res := Run(sc)
	return obsFingerprint(t, res), res
}

// TestObservabilityDoesNotChangeResults is the layer's central contract:
// a metro slice is byte-identical with metrics and series off, with both
// on, and for any parallel shard width - observation never feeds back
// into the simulation.
func TestObservabilityDoesNotChangeResults(t *testing.T) {
	base, baseRes := runMetroObs(t, 1, false, false)
	if baseRes.Series != nil {
		t.Fatal("unrecorded run returned a series recorder")
	}
	cases := []struct {
		name            string
		shards          int
		metrics, series bool
	}{
		{"metrics on", 1, true, false},
		{"metrics+series on", 1, true, true},
		{"metrics+series on, shards 4", 4, true, true},
	}
	for _, c := range cases {
		got, res := runMetroObs(t, c.shards, c.metrics, c.series)
		if !bytes.Equal(base, got) {
			t.Fatalf("%s: results differ from the plain run", c.name)
		}
		if c.series && (res.Series == nil || res.Series.Len() == 0) {
			t.Fatalf("%s: recorded run produced no points", c.name)
		}
	}
}

// TestTraceByteIdenticalAcrossShards: the Chrome trace rendered from the
// merged series - not just the simulation results - is independent of
// the parallel width, because buffers drain serially in shard order and
// (Win, Pid, seq) is a total order.
func TestTraceByteIdenticalAcrossShards(t *testing.T) {
	render := func(shards int) []byte {
		_, res := runMetroObs(t, shards, false, true)
		var buf bytes.Buffer
		if err := res.Series.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(1), render(4)) {
		t.Fatal("trace bytes differ between -shards 1 and -shards 4")
	}
}

// TestSeriesDoesNotChangeResults: recording series is passive - the
// metro fingerprint is byte-identical whether the series layer is off,
// on, or on across a parallel shard split.
func TestSeriesDoesNotChangeResults(t *testing.T) {
	base, _ := runMetroObs(t, 1, false, false)
	for _, shards := range []int{1, 4} {
		got, res := runMetroObs(t, shards, false, true)
		if !bytes.Equal(base, got) {
			t.Fatalf("shards %d: series recording changed the results", shards)
		}
		if res.Series == nil || res.Series.Len() == 0 {
			t.Fatalf("shards %d: series run recorded no points", shards)
		}
	}
}

// TestSeriesByteIdenticalAcrossShards: the merged series CSV - window
// aggregates and all - is independent of the parallel width, because
// buffers drain serially in shard order and (Win, Pid, seq) is a total
// order.
func TestSeriesByteIdenticalAcrossShards(t *testing.T) {
	render := func(shards int) []byte {
		_, res := runMetroObs(t, shards, false, true)
		var buf bytes.Buffer
		if err := res.Series.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one := render(1)
	if !bytes.Equal(one, render(8)) {
		t.Fatal("series bytes differ between -shards 1 and -shards 8")
	}
	for _, name := range []string{"cc.rate", "cc.ack_bits", "monitor.truth", "monitor.est", "net.queue"} {
		if !bytes.Contains(one, []byte(name)) {
			t.Errorf("metro series missing signal %s", name)
		}
	}
}

// TestMetricsCountMetroActivity: with metrics on, the instrumented
// subsystems all register activity in a metro run.
func TestMetricsCountMetroActivity(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	sc, err := BuildScenario("metro", "pbe", Params{
		Seed: 2, Cells: 2, Duration: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	Run(sc)
	snap := obs.TakeSnapshot()
	for _, name := range []string{
		"sim.events_scheduled",
		"cluster.window_barriers",
		"cluster.cross_events",
		"netsim.packets_delivered",
		"cc.acks",
		"cc.rate_decisions",
		"rtc.frames_sent",
		"pbe.probe_samples",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s stayed zero across a metro run", name)
		}
	}
	if snap.Watermarks["sim.heap_len_max"] == 0 {
		t.Error("heap watermark stayed zero")
	}
}

// TestPBEErrProbeRespondsToNoise: the estimation-error metric must grow
// with injected measurement noise - the signal the sweep's accuracy
// column exists to expose.
func TestPBEErrProbeRespondsToNoise(t *testing.T) {
	run := func(noise float64) float64 {
		sc, err := BuildScenario("steady", "pbe", Params{
			Seed: 1, Duration: 400 * time.Millisecond, CapacityNoise: noise})
		if err != nil {
			t.Fatal(err)
		}
		res := Run(sc)
		return res.Flows[0].PBEErrPct
	}
	clean, noisy := run(0), run(0.2)
	if noisy <= clean {
		t.Fatalf("PBEErrPct did not grow with noise: clean=%v noisy=%v", clean, noisy)
	}
	if clean < 0 || clean > 100 {
		t.Fatalf("clean-run error out of range: %v", clean)
	}
}
