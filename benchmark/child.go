package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"

	"pbecc/internal/harness"
	"pbecc/internal/obs"
	"pbecc/internal/sweep"
)

// childResult is what one workload's process hands back to the runner.
type childResult struct {
	Workload    string           `json:"workload"`
	Iterations  int              `json:"iterations"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	Failures    []string         `json:"failures,omitempty"`
	Fingerprint string           `json:"fingerprint"`
	EndToEnd    map[string]value `json:"end_to_end"`
	Info        map[string]value `json:"info"`
	PerLayer    map[string]value `json:"per_layer,omitempty"` // workload-dependent metrics only
	Spans       []span           `json:"spans,omitempty"`
}

// sample is the host cost of one timed iteration.
type sample struct {
	wall, cpu      float64 // seconds
	mallocs, bytes uint64
}

func cpuSeconds(ru *syscall.Rusage) float64 {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// measure times fn and takes the process's CPU and allocation deltas around
// it. The collection beforehand makes iterations start from the same heap.
func measure(fn func()) sample {
	var m0, m1 runtime.MemStats
	var r0, r1 syscall.Rusage
	runtime.GC()
	runtime.ReadMemStats(&m0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &r0) // cannot fail for RUSAGE_SELF with a valid pointer
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &r1)
	runtime.ReadMemStats(&m1)
	return sample{wall.Seconds(), cpuSeconds(&r1) - cpuSeconds(&r0), m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc}
}

// runChild measures one workload in this process and writes a childResult
// to out. execNs is the host time at which the runner started the process.
func runChild(cfg *config, w *workload, execNs, epochNs int64, out io.Writer) error {
	startup := time.Since(time.Unix(0, execNs)).Seconds()
	runtime.GOMAXPROCS(cfg.procs)
	res := &childResult{Workload: w.name, EndToEnd: map[string]value{}, Info: map[string]value{}}
	fail := func(ops int, format string, args ...any) {
		res.Failed += ops
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}
	workers := w.workers(cfg)

	// check folds one run into the failure account; ref is the first good
	// run's outcome, which every later one must reproduce.
	var ref outcome
	check := func(what string, r result, err error) bool {
		if err != nil {
			ops := max(ref.ops, 1)
			res.Attempted += ops
			fail(ops, "%s: %v", what, err)
			return false
		}
		o := summarize(r)
		res.Attempted += o.ops
		if o.failed > 0 {
			fail(o.failed, "%s: %d operations delivered nothing to the measured flow", what, o.failed)
		}
		if ref.ops == 0 {
			ref = o
		} else if o.fingerprint != ref.fingerprint {
			fail(o.ops-o.failed, "%s: fingerprint %016x differs from the first iteration's %016x", what, o.fingerprint, ref.fingerprint)
		}
		return true
	}

	// One discarded warm-up iteration: heap growth, pools, page faults.
	r, err := w.execute(cfg, nil, workers, w.duration)
	check("warm-up", r, err)

	minIters, setupReps, seconds := 7, 20, cfg.seconds
	if cfg.quick {
		minIters, setupReps, seconds = 2, 3, 0
	}
	var walls, cpus, mallocs, mbs []float64
	begin := time.Now()
	for i := 1; i <= minIters || time.Since(begin).Seconds() < seconds; i++ {
		var r result
		var err error
		s := measure(func() { r, err = w.execute(cfg, nil, workers, w.duration) })
		if !check(fmt.Sprintf("iteration %d", i), r, err) {
			continue
		}
		walls, cpus = append(walls, s.wall), append(cpus, s.cpu)
		mallocs, mbs = append(mallocs, float64(s.mallocs)), append(mbs, float64(s.bytes)/1e6)
	}
	if len(walls) == 0 {
		return fmt.Errorf("%s: no iteration succeeded: %v", w.name, res.Failures)
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	peakRSSMB := float64(ru.Maxrss) / 1024 // Linux reports KiB

	if w.serialRef {
		// The shard width must never change results: hold this workload
		// to the serial engine's fingerprint.
		r, err := w.execute(cfg, nil, 1, w.duration)
		check("serial reference", r, err)
	}

	// Set-up: what a user pays before the first useful event. Each
	// repetition builds the workload's scenarios and runs them for one
	// simulated millisecond.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if _, err := w.execute(cfg, nil, workers, time.Millisecond); err != nil {
			return fmt.Errorf("%s: set-up repetition %d: %w", w.name, i+1, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	res.Iterations = len(walls)
	res.Fingerprint = fmt.Sprintf("%016x", ref.fingerprint)
	wall := medianValue(walls, "s")
	cpu := medianValue(cpus, "s")
	setup := medianValue(setups, "s")
	setup.Value, setup.Q1, setup.Q3 = setup.Value+startup, setup.Q1+startup, setup.Q3+startup
	res.EndToEnd["wall_s"] = wall
	res.EndToEnd["sim_s_per_wall_s"] = value{Value: ratio(ref.simSeconds, wall.Value), Unit: "ratio"}
	res.EndToEnd["cpu_s"] = cpu
	res.EndToEnd["allocs_per_iter"] = medianValue(mallocs, "count")
	res.EndToEnd["alloc_mb_per_iter"] = medianValue(mbs, "MB")
	res.EndToEnd["peak_rss_mb"] = value{Value: peakRSSMB, Unit: "MB"}
	res.EndToEnd["setup_s"] = setup
	res.EndToEnd["sim_tput_mbps"] = value{Value: ref.tputMbps, Unit: "Mbit/s"}
	res.EndToEnd["sim_delay_p95_ms"] = value{Value: ref.delayP95Ms, Unit: "ms"}
	res.Info["startup_s"] = value{Value: startup, Unit: "s"}
	res.Info["sim_s_per_iter"] = value{Value: ref.simSeconds, Unit: "s"}
	res.Info["measured_flow_tput_mbps"] = value{Value: ref.measured[0], Unit: "Mbit/s"}
	res.Info["measured_flow_delay_p95_ms"] = value{Value: ref.measured[1], Unit: "ms"}

	if cfg.trace {
		res.PerLayer = map[string]value{}
		tr := newTracer(time.Unix(0, epochNs), w.name)
		w.traced(cfg, tr, res, check, ref, wall.Value, cpu.Value)
		res.Spans = tr.spans
	}
	// Computed last: the traced iteration can fail too.
	failShare := ratio(float64(res.Failed), float64(res.Attempted))
	res.EndToEnd["ok_share"] = value{Value: 1 - failShare, Unit: "ratio"}
	res.Info["fail_share"] = value{Value: failShare, Unit: "ratio"}
	return json.NewEncoder(out).Encode(res)
}

// traced runs one more iteration with obs counters on and spans recorded,
// and derives the workload-dependent per-layer metrics from it. No
// end-to-end metric is taken from this iteration; its wall time against
// the untraced median is the cost of the instrument itself.
func (w *workload) traced(cfg *config, tr *tracer, res *childResult,
	check func(string, result, error) bool, ref outcome, wallS, cpuS float64) {
	workers := w.workers(cfg)
	var snap obs.Snapshot
	var tracedWall time.Duration
	cells, ues, flows := 0, 0, 0
	var buildNs, summarizeNs, speedup float64
	tr.span("workload/"+w.name, "benchmark", func() int {
		obs.Enable()
		obs.Reset()
		t0 := time.Now()
		r, err := w.execute(cfg, tr, workers, w.duration)
		tracedWall = time.Since(t0)
		snap = obs.TakeSnapshot()
		obs.Disable()
		tr.span("result.fingerprint", "benchmark", func() int {
			check("traced iteration", r, err) // obs must not feed back into results
			return 1
		})
		if err != nil {
			return 0
		}
		if r.sweep == nil {
			sc := r.scenario
			cells, ues, flows = len(sc.Cells)+len(sc.NRCells), len(sc.UEs), len(sc.Flows)
			buildNs = float64(r.buildTime.Nanoseconds())
			return 1
		}
		// The sweep builds its scenarios inside Run; build them once more
		// here to size them and to time harness.BuildScenario alone.
		spec := sweepSpec(cfg, w.duration)
		jobs, err := spec.Jobs()
		if err != nil {
			return 0
		}
		buildNs = float64(tr.span("harness.build", "harness", func() int {
			for _, j := range jobs {
				sc, err := harness.BuildScenario(j.Experiment, j.Scheme, harness.Params{Seed: j.Seed,
					Duration: w.duration, Cells: j.Cells, RAT: j.RAT, CapacityNoise: j.Noise})
				if err != nil {
					continue // Jobs() validated every combination
				}
				cells, ues, flows = cells+len(sc.Cells)+len(sc.NRCells), ues+len(sc.UEs), flows+len(sc.Flows)
			}
			return len(jobs)
		}).Nanoseconds())
		summarizeNs = float64(tr.span("sweep.summarize", "sweep", func() int {
			return len(sweep.Summarize(r.sweep.Rows))
		}).Nanoseconds())
		serial := tr.span("sweep.run_w1", "sweep", func() int {
			r1, err := w.execute(cfg, nil, 1, w.duration)
			check("one-worker sweep", r1, err) // worker count must never change rows
			return ref.ops
		})
		speedup = ratio(serial.Seconds(), wallS)
		return len(jobs)
	})

	c := func(name string) float64 { return float64(snap.Counters[name]) }
	wm := func(name string) float64 { return float64(snap.Watermarks[name]) }
	set := func(name, unit string, v float64) { res.PerLayer[name] = value{Value: v, Unit: unit} }
	exact := func(name, unit string, v float64) { res.PerLayer[name] = value{Value: v, Unit: unit, Exact: true} }
	events := c("sim.events_scheduled")
	delivered, dropped := c("netsim.packets_delivered"), c("netsim.packets_dropped")
	exact("sim.events", "count", events)
	set("sim.ns_per_event", "ns", ratio(cpuS*1e9, events))
	exact("sim.cancel_ratio", "ratio", ratio(c("sim.events_cancelled"), events))
	exact("sim.event_pool_reuse_ratio", "ratio", ratio(c("sim.event_pool_reuse"), events))
	exact("sim.heap_len_max", "count", wm("sim.heap_len_max"))
	exact("sim.cluster.barriers", "count", c("cluster.window_barriers"))
	exact("sim.cluster.cross_events", "count", c("cluster.cross_events"))
	exact("sim.cluster.idle_window_ratio", "ratio", ratio(c("cluster.shard_windows_idle"), c("cluster.shard_windows")))
	exact("sim.cluster.mailbox_batch_max", "count", wm("cluster.mailbox_batch_max"))
	exact("netsim.packets_delivered", "count", delivered)
	exact("netsim.drop_ratio", "ratio", ratio(dropped, delivered+dropped))
	exact("netsim.queue_bytes_max", "bytes", wm("netsim.queue_bytes_max"))
	exact("netsim.pool_reuse_per_pkt", "ratio", ratio(c("sim.packet_pool_reuse"), delivered))
	exact("core.est_err_pct", "%", ref.estErrPct)
	exact("cc.acks", "count", c("cc.acks"))
	exact("cc.loss_ratio", "ratio", ratio(c("cc.losses"), c("cc.acks")+c("cc.losses")))
	exact("cc.rate_decisions", "count", c("cc.rate_decisions"))
	exact("rtc.frames_sent", "count", c("rtc.frames_sent"))
	exact("rtc.shed_ratio", "ratio", ratio(c("rtc.frames_shed"), c("rtc.frames_sent")))
	exact("rtc.sfu_keyframe_gated", "count", c("sfu.keyframe_gated_frames"))
	exact("fluid.envelope_updates", "count", c("fluid.envelope_updates"))
	exact("fluid.session_on_windows", "count", c("fluid.session_on_windows"))
	set("obs.overhead_pct", "%", 100*(ratio(tracedWall.Seconds(), wallS)-1))
	exact("harness.cells", "count", float64(cells))
	exact("harness.ues", "count", float64(ues))
	exact("harness.flows", "count", float64(flows))
	set("harness.build_ns", "ns", buildNs)
	// The sweep layer does no work in the single-scenario workloads.
	jobs := 0.0
	if w.family == "" {
		jobs = float64(ref.ops)
	}
	exact("sweep.jobs", "count", jobs)
	set("sweep.jobs_per_s", "1/s", ratio(jobs, wallS))
	set("sweep.worker_speedup", "ratio", speedup)
	set("sweep.summarize_ns", "ns", summarizeNs)
}
