package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"pbecc/internal/harness"
	"pbecc/internal/sweep"
)

// workload is one set of inputs. All four are closed loops: a worker takes
// its next job (or the cluster its next window) only when the previous one
// returned, so there is no generator lateness to report.
type workload struct {
	name, why string
	family    string        // harness family; "" = the sweep matrix
	duration  time.Duration // simulated length of one scenario
	cells     int           // 0 = family default
	sharded   bool          // advance shards on P workers instead of one
	serialRef bool          // also run once on one worker and require the same fingerprint
}

func workloads(quick bool) []workload {
	ws := []workload{
		{name: "sweep_smoke", duration: time.Second,
			why: "what users and CI run: 160 short single-shard jobs, so per-job set-up, a small event heap, cc, core.Monitor and netsim do the work; cluster and fluid do none"},
		{name: "metro_serial", family: "metro", duration: time.Second,
			why: "one 128-cell, 2048-UE scenario on one core: per-cell slot tickers, lte/nr scheduling and UE delivery; the denominator of the shard speed-up"},
		{name: "metro_sharded", family: "metro", duration: time.Second, sharded: true, serialRef: true,
			why: "the same scenario and seed on P shard workers: window barriers, mailboxes and cross-shard pool release; must reproduce metro_serial's fingerprint"},
		{name: "nation_fluid", family: "nation", duration: 4 * time.Second, sharded: true,
			why: "4 packet cells over 65536 fluid-modeled cells: fluid Advance dominates, so packet-path changes predict no move here and fluid changes none on the metro rows"},
	}
	if quick {
		for i := range ws {
			ws[i].duration = 200 * time.Millisecond
			switch ws[i].family {
			case "metro":
				ws[i].cells = 8
			case "nation":
				ws[i].duration = 250 * time.Millisecond
			}
		}
	}
	return ws
}

// simSeed maps the benchmark seed onto the simulator's seed space, where 0
// is reserved for "family default".
func simSeed(seed int64) int64 {
	if seed < 1 {
		return 1<<32 - seed
	}
	return seed
}

// sweepSpec generates the sweep matrix from the seed: the committed smoke
// shape over seeds seed..seed+3.
func sweepSpec(cfg *config, dur time.Duration) *sweep.Spec {
	base := simSeed(cfg.seed)
	spec := sweep.Smoke()
	spec.Seeds = []int64{base, base + 1, base + 2, base + 3}
	if cfg.quick {
		spec.Experiments = []string{"steady", "rtc"}
		spec.Seeds = spec.Seeds[:1]
		spec.RATs = []string{harness.RATLTE}
		spec.NoiseLevels = nil
	}
	spec.DurationMs = int(dur / time.Millisecond)
	return spec
}

// result is what one iteration produced; exactly one of sweep and flows is set.
type result struct {
	sweep     *sweep.Result
	scenario  *harness.Scenario
	flows     *harness.Result
	buildTime time.Duration // of harness.BuildScenario, traced runs only
}

// execute runs one iteration through the entry points users call. dur
// overrides the workload's length (set-up repetitions run 1 simulated ms);
// workers is the sweep worker count or the shard width.
func (w *workload) execute(cfg *config, tr *tracer, workers int, dur time.Duration) (r result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	if w.family == "" {
		spec := sweepSpec(cfg, dur)
		tr.span("sweep.run", "sweep", func() int {
			r.sweep, err = sweep.Run(spec, workers)
			if err != nil {
				return 0
			}
			return len(r.sweep.Rows)
		})
		return r, err
	}
	r.buildTime = tr.span("harness.build", "harness", func() int {
		r.scenario, err = harness.BuildScenario(w.family, "pbe", harness.Params{
			Seed: simSeed(cfg.seed), Duration: dur, Cells: w.cells, Shards: workers})
		return 1
	})
	if err != nil {
		return r, err
	}
	tr.span("harness.run", "harness", func() int {
		r.flows = harness.Run(r.scenario)
		return len(r.flows.Flows)
	})
	return r, nil
}

// workers returns the parallel width the workload runs at.
func (w *workload) workers(cfg *config) int {
	if w.family == "" || w.sharded {
		return cfg.procs
	}
	return 1
}

// outcome is the checked, simulated-clock summary of one run.
type outcome struct {
	simSeconds  float64
	ops, failed int // an operation is one sweep job, or one scenario
	fingerprint uint64
	tputMbps    float64 // sim_tput_mbps
	delayP95Ms  float64 // sim_delay_p95_ms
	measured    [2]float64
	estErrPct   float64
}

// summarize checks a run's outputs and reduces them to an outcome. The
// simulated end-to-end pair is a mean over many flows (the sweep's pbe rows;
// every congestion-controlled flow of a scenario), so it stays comparable
// from seed to seed; the measured flow's own pair is kept beside it.
func summarize(r result) outcome {
	var o outcome
	h := fnv.New64a()
	if r.sweep != nil {
		rows := r.sweep.Rows
		o.ops = len(rows)
		o.simSeconds = float64(len(rows)) * float64(r.sweep.Spec.DurationMs) / 1000
		var errSum float64
		n := 0
		for i := range rows {
			if rows[i].TputMbps <= 0 {
				o.failed++
			}
			if rows[i].Scheme == "pbe" {
				o.tputMbps += rows[i].TputMbps
				o.delayP95Ms += rows[i].DelayP95Ms
				errSum += rows[i].PBEErrPct
				n++
			}
		}
		o.tputMbps, o.delayP95Ms, o.estErrPct = ratio(o.tputMbps, float64(n)), ratio(o.delayP95Ms, float64(n)), ratio(errSum, float64(n))
		o.measured = [2]float64{o.tputMbps, o.delayP95Ms}
		data, _ := json.Marshal(rows) // rows hold only numbers, strings and bools: cannot fail
		h.Write(data)
		o.fingerprint = h.Sum64()
		return o
	}
	o.ops = 1
	o.simSeconds = r.scenario.Duration.Seconds()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	milli := func(f float64) uint64 { return uint64(int64(math.Round(f * 1000))) }
	n := 0
	for i, f := range r.flows.Flows {
		var p50, p95 float64 // a flow that received nothing has no delay samples
		if f.Delay.Len() > 0 {
			p50, p95 = f.Delay.Percentile(50), f.Delay.Percentile(95)
		}
		put(f.Received, f.Lost, milli(f.AvgTputMbps), milli(p50), milli(p95))
		if fr := f.Frames; fr != nil {
			put(fr.Released, fr.Skipped, fr.PastDeadline, fr.SenderDrop, uint64(fr.FreezeTime))
		}
		if r.scenario.Flows[i].Scheme != "fixed" && f.Delay.Len() > 0 {
			o.tputMbps += f.AvgTputMbps
			o.delayP95Ms += p95
			n++
		}
	}
	o.tputMbps, o.delayP95Ms = ratio(o.tputMbps, float64(n)), ratio(o.delayP95Ms, float64(n))
	f0 := r.flows.Flows[0]
	o.estErrPct = f0.PBEErrPct
	if f0.Received == 0 {
		o.failed = 1
	} else {
		o.measured = [2]float64{f0.AvgTputMbps, f0.Delay.Percentile(95)}
	}
	o.fingerprint = h.Sum64()
	return o
}
