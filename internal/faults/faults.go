// Package faults is the deterministic measurement-fault injection layer:
// it sits between the cellular cells and the PBE physical-layer monitor
// and perturbs what the monitor observes - never what the network does.
// Measurement-based congestion control must be judged under systematic
// measurement faults, not just clean channels (Zhu et al.,
// arXiv:2308.03350); CapacityNoise covers white error, this package
// covers the structured failure modes a real PDCCH decoder exhibits.
//
// Four composable axes, each an intensity in [0, 1]:
//
//   - Stale: the decoder occasionally freezes and replays its last
//     successful decode for a hold window (a real blind decoder misses
//     DCI bursts and apps read cached state). The monitor ingests
//     out-of-date allocations while the cell moves on.
//   - Miss: cell detection is unreliable - an attach (initial camp,
//     carrier activation, post-handover re-camp) is delayed by a random
//     interval scaled by the intensity, so the monitor runs blind on a
//     carrier that is already scheduling the UE.
//   - Handover: forced detach/attach storms - every burst throws away
//     the monitor's sliding windows exactly as a real handover does,
//     and the re-attach is itself subject to the Miss axis.
//   - OnOff: an adversarial square-wave competitor whose half-period
//     matches the monitor's smoothing window, the worst case for a
//     windowed estimator (assembled at scenario level by the harness;
//     OnOffHalfPeriod is exported for that).
//
// Determinism: the injector draws only from its own rand stream, seeded
// from (scenario seed, UE RNTI), and schedules only on the UE's shard
// engine. Enabling a fault axis changes the simulation it perturbs, but
// any given configuration is byte-identical at every worker and shard
// width, and all-axes-off is byte-identical to a build without the
// package wired in at all.
package faults

import (
	"flag"
	"fmt"
	"math/rand"
	"time"

	"pbecc/internal/core"
	"pbecc/internal/obs"
	"pbecc/internal/ran"
	"pbecc/internal/sim"
)

var (
	mStaleWindows   = obs.NewCounter("faults.stale_windows")
	mStaleSubframes = obs.NewCounter("faults.stale_subframes")
	mMissDelays     = obs.NewCounter("faults.miss_delays")
	mHandoverBursts = obs.NewCounter("faults.handover_bursts")
	mOnOffFlows     = obs.NewCounter("faults.onoff_flows")
)

// Injection series (40 ms windows; tid 0): one sample per injected fault
// event, so a window's Count is its injection volume. The harness emits
// the OnOff competitor's on-transitions into the same signal.
var seriesInject = obs.Series("fault.inject")

// CountOnOffFlow records one adversarial on-off competitor stood up by
// the harness (the axis lives at scenario level, not in the injector).
func CountOnOffFlow() { mOnOffFlows.Inc() }

// Spec selects the fault axes and their intensities. The zero value is
// the clean channel.
type Spec struct {
	Stale    float64 `json:"stale,omitempty"`
	Miss     float64 `json:"miss,omitempty"`
	Handover float64 `json:"handover,omitempty"`
	OnOff    float64 `json:"onoff,omitempty"`
}

// Axes names the fault axes in canonical order (the sweep's vocabulary).
func Axes() []string { return []string{"stale", "miss", "handover", "onoff"} }

// MonitorAxis reports whether the named axis perturbs the monitor's view
// of the cells. Only monitor-consuming schemes can feel those; the onoff
// axis is ordinary cross-traffic that every scheme contends with.
func MonitorAxis(axis string) bool { return axis != "onoff" }

// Any reports whether any axis is active.
func (s Spec) Any() bool { return s.Stale > 0 || s.Miss > 0 || s.Handover > 0 || s.OnOff > 0 }

// MonitorAxes reports whether any axis needs an Injector between the
// cells and the monitor (OnOff does not: it is ordinary cross-traffic).
func (s Spec) MonitorAxes() bool { return s.Stale > 0 || s.Miss > 0 || s.Handover > 0 }

// Validate rejects intensities outside [0, 1].
func (s Spec) Validate() error {
	for _, name := range Axes() {
		if v, _ := s.axis(name); *v < 0 || *v > 1 {
			return fmt.Errorf("fault axis %s intensity %v outside [0, 1]", name, *v)
		}
	}
	return nil
}

// axis returns the named axis's field and its flag help, or nil for an
// unknown axis.
func (s *Spec) axis(name string) (level *float64, help string) {
	switch name {
	case "stale":
		return &s.Stale, "stale PDCCH decode fault intensity in [0, 1]"
	case "miss":
		return &s.Miss, "missed cell-detection fault intensity in [0, 1]"
	case "handover":
		return &s.Handover, "handover-storm fault intensity in [0, 1]"
	case "onoff":
		return &s.OnOff, "adversarial on-off competitor intensity in [0, 1]"
	}
	return nil, ""
}

// Set assigns one named axis (the sweep's string-keyed interface).
func (s *Spec) Set(axis string, level float64) error {
	p, _ := s.axis(axis)
	if p == nil {
		return fmt.Errorf("unknown fault axis %q (valid: %v)", axis, Axes())
	}
	*p = level
	return nil
}

// RegisterFlags declares one -fault-<axis> flag per axis on fs, each
// setting that axis of s. Validate checks the [0, 1] range afterwards.
func (s *Spec) RegisterFlags(fs *flag.FlagSet) {
	for _, name := range Axes() {
		p, help := s.axis(name)
		fs.Float64Var(p, "fault-"+name, 0, help)
	}
}

// Tuning constants. Hold lengths and periods are chosen against the
// monitor's 40 ms smoothing window: long enough to corrupt a window,
// short enough that several faults land per second of simulation.
const (
	// StaleHoldSubframes is how many scheduling intervals one stale
	// window replays the held decode.
	StaleHoldSubframes = 12
	// staleEntryProb scales the per-subframe probability of entering a
	// stale window at intensity 1 (expected duty cycle at full
	// intensity: 12 stale per ~20 fresh subframes).
	staleEntryProb = 0.05
	// missMaxDelay bounds the attach delay at intensity 1.
	missMaxDelay = 2 * time.Second
	// handoverGap is the detached interval of one storm burst.
	handoverGap = 50 * time.Millisecond
	// handoverMinPeriod floors the burst period at intensity 1.
	handoverMinPeriod = 300 * time.Millisecond

	// OnOffHalfPeriod is the adversarial competitor's on (and off)
	// phase: one monitor smoothing window, so the estimator's view of
	// idle PRBs is maximally wrong in both phases.
	OnOffHalfPeriod = 40 * time.Millisecond
)

// Injector perturbs one monitor's view of its cells. The harness routes
// every attach, detach and control feed through it; with no axes active
// it is never constructed and the clean path is untouched.
type Injector struct {
	eng  *sim.Engine
	mon  *core.Monitor
	spec Spec
	rng  *rand.Rand

	// attached is the harness's desired cell set (what the monitor
	// would track without faults); gen guards delayed attaches against
	// later detaches and storms.
	attached map[int]core.CellInfo
	order    []int
	gen      map[int]int
}

// New wires an injector for one UE's monitor. All scheduling happens on
// eng (the UE's shard engine); the fault stream is seeded from the
// scenario seed and the UE's RNTI so it is independent of the engine's
// own draw order.
func New(eng *sim.Engine, mon *core.Monitor, spec Spec, seed int64, rnti uint16) *Injector {
	in := &Injector{
		eng:      eng,
		mon:      mon,
		spec:     spec,
		rng:      rand.New(rand.NewSource(seed*1000003 + int64(rnti)*7919 + 42)),
		attached: map[int]core.CellInfo{},
		gen:      map[int]int{},
	}
	if spec.Handover > 0 {
		in.scheduleStorm()
	}
	return in
}

// AttachCell registers a carrier the harness wants monitored. Under the
// Miss axis the actual monitor attach may be delayed; a detach (or a
// handover burst) before the delay expires cancels it.
func (in *Injector) AttachCell(info core.CellInfo) {
	if _, ok := in.attached[info.ID]; !ok {
		in.order = append(in.order, info.ID)
	}
	in.attached[info.ID] = info
	in.attach(info)
}

// attach performs one (possibly delayed) monitor attach attempt.
func (in *Injector) attach(info core.CellInfo) {
	in.gen[info.ID]++
	g := in.gen[info.ID]
	if in.spec.Miss > 0 && in.rng.Float64() < in.spec.Miss {
		delay := time.Duration((0.25 + 0.75*in.rng.Float64()) * in.spec.Miss * float64(missMaxDelay))
		mMissDelays.Inc()
		MarkInjection(in.eng)
		in.eng.Schedule(delay, func() {
			if in.gen[info.ID] != g {
				return
			}
			if _, ok := in.attached[info.ID]; ok {
				in.mon.AttachCell(info)
			}
		})
		return
	}
	in.mon.AttachCell(info)
}

// DetachCell removes a carrier from the desired set and the monitor,
// cancelling any pending delayed attach.
func (in *Injector) DetachCell(id int) {
	if _, ok := in.attached[id]; !ok {
		return
	}
	delete(in.attached, id)
	for i, v := range in.order {
		if v == id {
			in.order = append(in.order[:i], in.order[i+1:]...)
			break
		}
	}
	in.gen[id]++
	in.mon.DetachCell(id)
}

// scheduleStorm self-schedules the next handover burst: period shrinks
// with intensity, jittered from the injector's own stream so bursts do
// not phase-lock with the scenario's traffic cadence.
func (in *Injector) scheduleStorm() {
	base := time.Duration(float64(4*time.Second) * (1.05 - in.spec.Handover))
	if base < handoverMinPeriod {
		base = handoverMinPeriod
	}
	next := time.Duration(float64(base) * (0.75 + 0.5*in.rng.Float64()))
	in.eng.Schedule(next, func() {
		in.storm()
		in.scheduleStorm()
	})
}

// storm detaches every desired cell from the monitor and re-attaches
// after handoverGap, discarding the sliding windows exactly as a real
// handover re-camp does. The re-attach goes through the Miss axis, so
// the two compose.
func (in *Injector) storm() {
	if len(in.order) == 0 {
		return
	}
	mHandoverBursts.Inc()
	MarkInjection(in.eng)
	for _, id := range append([]int(nil), in.order...) {
		id := id
		in.gen[id]++
		g := in.gen[id]
		in.mon.DetachCell(id)
		in.eng.Schedule(handoverGap, func() {
			if in.gen[id] != g {
				return
			}
			if cur, ok := in.attached[id]; ok {
				in.attach(cur)
			}
		})
	}
}

// WrapFeed interposes the Stale axis on one cell's control feed: with no
// stale intensity it returns next unchanged. Each stale window replays
// the last successfully decoded report (content frozen, subframe clock
// still ticking) for StaleHoldSubframes intervals.
func (in *Injector) WrapFeed(next ran.Monitor) ran.Monitor {
	if in.spec.Stale <= 0 {
		return next
	}
	p := staleEntryProb * in.spec.Stale
	var held *ran.SubframeReport
	left := 0
	return func(rep *ran.SubframeReport) {
		if left > 0 && held != nil {
			left--
			mStaleSubframes.Inc()
			replay := *held
			replay.Subframe = rep.Subframe
			next(&replay)
			return
		}
		if in.rng.Float64() < p {
			left = StaleHoldSubframes
			mStaleWindows.Inc()
			MarkInjection(in.eng)
		}
		// Cells reuse the report struct across subframes: deep-copy the
		// grants so the held snapshot does not mutate underneath us.
		cp := *rep
		cp.Allocs = append([]ran.Alloc(nil), rep.Allocs...)
		held = &cp
		next(rep)
	}
}

// MarkInjection records one fault-injection event on eng's series: the
// injector calls it for every fault it injects, the harness for the
// OnOff competitor's on-transitions, which are assembled at scenario
// build time rather than through an Injector.
func MarkInjection(eng *sim.Engine) {
	eng.SeriesBuffer().Track(seriesInject, 0).Sample(eng.Now(), 1)
}
