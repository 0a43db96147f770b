package main

import (
	"math"
	"sort"
)

// metricDef names one metric of BENCHMARK.json. The Go tables below are the
// source the program prints from; benchmark_test.go holds BENCHMARK.json to
// them, so the two cannot drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only: tolerated worsening as a share of the median
}

// endToEnd lists what a user of the simulator sees, per workload. Host-clock
// and simulated-clock metrics are never mixed: wall_s, cpu_s, setup_s and
// sim_s_per_wall_s's denominator are host time, sim_* are simulated.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.20},
	{"sim_s_per_wall_s", "ratio", "higher", 0.20},
	{"cpu_s", "s", "lower", 0.20},
	{"allocs_per_iter", "count", "lower", 0.10},
	{"alloc_mb_per_iter", "MB", "lower", 0.06},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"sim_tput_mbps", "Mbit/s", "higher", 0.08},
	{"sim_delay_p95_ms", "ms", "lower", 0.20},
	{"ok_share", "ratio", "higher", 0.001},
}

// simulated names the end-to-end metrics read off the simulated clock or
// counted by the program: for one seed they repeat exactly, so two sets of
// runs of the same code must agree on them to the last digit. Their bounds
// above only absorb the variation from seed to seed.
var simulated = map[string]bool{"sim_tput_mbps": true, "sim_delay_p95_ms": true, "ok_share": true}

func layerMetric(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// perLayer lists the traced run's metrics, grouped by internal/ package.
// Counts (source C) come from the obs registry after one traced iteration
// of the workload; *_ns, *_allocs and the ratios measured by drivers
// (source D) do not depend on the workload.
var perLayer = func() []metricDef {
	m := []metricDef{
		layerMetric("sim.events", "count", "lower"),
		layerMetric("sim.ns_per_event", "ns", "lower"),
		layerMetric("sim.cancel_ratio", "ratio", "lower"),
		layerMetric("sim.event_pool_reuse_ratio", "ratio", "higher"),
		layerMetric("sim.heap_len_max", "count", "lower"),
		layerMetric("sim.schedule_run_ns", "ns", "lower"),
		layerMetric("sim.ticker_ns", "ns", "lower"),
		layerMetric("sim.cluster.barriers", "count", "lower"),
		layerMetric("sim.cluster.cross_events", "count", "lower"),
		layerMetric("sim.cluster.idle_window_ratio", "ratio", "lower"),
		layerMetric("sim.cluster.mailbox_batch_max", "count", "lower"),
		layerMetric("sim.cluster.window_ns_w1", "ns", "lower"),
		layerMetric("sim.cluster.window_ns_wN", "ns", "lower"),
		layerMetric("netsim.packets_delivered", "count", "higher"),
		layerMetric("netsim.drop_ratio", "ratio", "lower"),
		layerMetric("netsim.queue_bytes_max", "bytes", "lower"),
		layerMetric("netsim.pool_reuse_per_pkt", "ratio", "higher"),
		layerMetric("netsim.link_ns_per_pkt", "ns", "lower"),
		layerMetric("netsim.link_allocs_per_pkt", "count", "lower"),
		layerMetric("netsim.drop_ns_per_pkt", "ns", "lower"),
		layerMetric("lte.subframe_ns", "ns", "lower"),
		layerMetric("lte.idle_subframe_ns", "ns", "lower"),
		layerMetric("lte.subframe_allocs", "count", "lower"),
		layerMetric("lte.prb_utilisation", "ratio", "higher"),
		layerMetric("nr.slot_ns", "ns", "lower"),
		layerMetric("nr.slot_ns_mu3", "ns", "lower"),
		layerMetric("nr.idle_slot_ns", "ns", "lower"),
		layerMetric("nr.slot_allocs", "count", "lower"),
		layerMetric("phy.tb_error_rate_ns", "ns", "lower"),
		layerMetric("core.monitor_ingest_ns", "ns", "lower"),
		layerMetric("core.monitor_query_ns", "ns", "lower"),
		layerMetric("core.client_feedback_ns", "ns", "lower"),
		layerMetric("core.est_err_pct", "%", "lower"),
		layerMetric("pdcch.encode_ns_per_subframe", "ns", "lower"),
		layerMetric("pdcch.decode_ns_per_subframe", "ns", "lower"),
		layerMetric("pdcch.decode_success_ratio", "ratio", "higher"),
		layerMetric("cc.acks", "count", "higher"),
		layerMetric("cc.loss_ratio", "ratio", "lower"),
		layerMetric("cc.rate_decisions", "count", "lower"),
	}
	for _, s := range ccSchemes {
		m = append(m, layerMetric("cc."+s+".ns_per_pkt", "ns", "lower"))
	}
	return append(m,
		layerMetric("cc.allocs_per_pkt", "count", "lower"),
		layerMetric("rtc.frames_sent", "count", "higher"),
		layerMetric("rtc.shed_ratio", "ratio", "lower"),
		layerMetric("rtc.sfu_keyframe_gated", "count", "lower"),
		layerMetric("rtc.call_ns_per_frame", "ns", "lower"),
		layerMetric("rtc.sfu_ns_per_frame_leg", "ns", "lower"),
		layerMetric("fluid.envelope_updates", "count", "lower"),
		layerMetric("fluid.session_on_windows", "count", "lower"),
		layerMetric("fluid.draw_ns_per_session", "ns", "lower"),
		layerMetric("fluid.advance_ns_per_cell_window", "ns", "lower"),
		layerMetric("obs.overhead_pct", "%", "lower"),
		layerMetric("harness.cells", "count", "higher"),
		layerMetric("harness.ues", "count", "higher"),
		layerMetric("harness.flows", "count", "higher"),
		layerMetric("harness.build_ns", "ns", "lower"),
		layerMetric("sweep.jobs", "count", "higher"),
		layerMetric("sweep.jobs_per_s", "1/s", "higher"),
		layerMetric("sweep.worker_speedup", "ratio", "higher"),
		layerMetric("sweep.summarize_ns", "ns", "lower"),
	)
}()

// value is one reported number. Q1, Q3 and N describe the timed iterations
// a median was taken over; they are zero for exact counts and driver results.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
	Exact bool    `json:"exact,omitempty"` // a count made by the program: repeats exactly for a seed
}

// quartiles returns the first quartile, median and third quartile of xs by
// linear interpolation between order statistics. N is too small here for
// any percentile with ten samples beyond it, so none is reported.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 0 {
			return math.NaN()
		}
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func medianValue(xs []float64, unit string) value {
	q1, med, q3 := quartiles(xs)
	return value{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(xs)}
}

// ratio returns a/b, or 0 when the layer did no such work in this workload.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
