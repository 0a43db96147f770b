package harness

import (
	"pbecc/internal/core"
	"pbecc/internal/obs"
	"pbecc/internal/ran"
	"pbecc/internal/sim"
)

// Probe metrics: sample volume and the distribution of the per-sample
// capacity estimation error (percent, power-of-two buckets).
var (
	mProbeSamples = obs.NewCounter("pbe.probe_samples")
	mProbeErrPct  = obs.NewHistogram("pbe.capacity_err_pct")
)

// Capacity series (40 ms windows, Mbit/s; tid = UE ID): the oracle
// monitor's ground-truth capacity, and the estimate the transport last
// acted on (monitor-consuming schemes only). For every other scheme the
// harness stands up a truth-only oracle for the measured UE, so the
// convergence and tracking analytics have the same reference trajectory
// for all ten schemes.
var (
	seriesTruth = obs.Series("monitor.truth")
	seriesEst   = obs.Series("monitor.est")
)

// pbeProbe measures how accurate PBE-CC's capacity estimate actually is,
// per UE: alongside the monitor the transport uses (which may see PDCCH
// decode errors and the measurement-noise hook), the probe runs a second
// "oracle" monitor fed the same control information directly, with no
// noise - the ground truth the paper's Figure 6 methodology compares
// against. Once per primary-cell scheduling slot it records the relative
// error between the estimate the transport last acted on and the oracle's
// current value.
//
// The probe is strictly passive and always on for PBE flows: it reads the
// transport monitor only through Monitor.LastCapacityBits (never calling
// CapacityBits, which would draw from the Noise hook's RNG and perturb
// the run it observes), and the oracle has no noise source, so its own
// CapacityBits calls are pure. Sweep rows are therefore byte-identical
// whether or not the obs layer is enabled.
type pbeProbe struct {
	mon    *core.Monitor
	oracle *core.Monitor

	sumAbs float64
	n      uint64
}

// newPBEProbe builds the probe for one UE's transport monitor. The caller
// must mirror every AttachCell/DetachCell on the oracle and feed it each
// cell's reports directly (bypassing any PDCCH decode path).
func newPBEProbe(mon *core.Monitor, rnti uint16) *pbeProbe {
	oracle := core.NewMonitor(rnti)
	oracle.UseFilter = mon.UseFilter
	return &pbeProbe{mon: mon, oracle: oracle}
}

// sampler returns the per-slot callback attached to the UE's primary
// cell, after both monitor feeds, so it observes a fully ingested slot.
// When the run records series it downsamples truth and estimate into the
// capacity tracks.
func (p *pbeProbe) sampler(eng *sim.Engine, ueID int) ran.Monitor {
	var truthTrack, estTrack *obs.SeriesTrack
	seriesInit := false
	return func(rep *ran.SubframeReport) {
		if !seriesInit {
			seriesInit = true
			if sb := eng.SeriesBuffer(); sb != nil {
				truthTrack = sb.Track(seriesTruth, ueID)
				estTrack = sb.Track(seriesEst, ueID)
			}
		}
		est := p.mon.LastCapacityBits()
		truth := p.oracle.CapacityBits()
		if truth > 0 {
			truthTrack.Sample(eng.Now(), truth/1e3)
		}
		if est <= 0 || truth <= 0 {
			return // no feedback taken yet, or an empty window
		}
		estTrack.Sample(eng.Now(), est/1e3)
		e := (est - truth) / truth
		if e < 0 {
			e = -e
		}
		p.sumAbs += e
		p.n++
		if obs.Enabled() {
			mProbeSamples.Inc()
			mProbeErrPct.Observe(int64(e * 100))
		}
	}
}

// ErrPct returns the mean absolute relative estimation error in percent
// (0 when no sample was taken).
func (p *pbeProbe) ErrPct() float64 {
	if p.n == 0 {
		return 0
	}
	return 100 * p.sumAbs / float64(p.n)
}

// buildTruthOracle stands up a truth-only oracle monitor for the measured
// (first) flow's UE when that flow's scheme never reads the PBE monitor:
// the series layer still needs the ground-truth capacity trajectory so
// convergence time and tracking lag are defined for every scheme. The
// oracle mirrors the probe oracle's attach discipline (direct feeds, no
// noise, no decode path) and is strictly passive, so attaching it never
// changes the run.
func (b *build) buildTruthOracle() {
	sc := b.sc
	if !sc.Series || len(sc.Flows) == 0 {
		return
	}
	fs := sc.Flows[0]
	if fs.Scheme == "fixed" || SchemeUsesMonitor(fs.Scheme) {
		return
	}
	us := b.specs[fs.UE]
	eng := b.pl.ueShard(us).Engine
	sb := eng.SeriesBuffer()
	if sb == nil {
		return
	}
	oracle := core.NewMonitor(us.RNTI)
	oracle.UseFilter = !sc.DisableUserFilter
	mirrorActiveCells(b.devices[fs.UE], us.ID, b.channels, oracle, nil)
	ids := us.cellIDs()
	for _, cid := range ids {
		b.cells[cid].AttachMonitor(oracle.OnSubframe)
	}

	track := sb.Track(seriesTruth, us.ID)
	b.cells[ids[0]].AttachMonitor(func(rep *ran.SubframeReport) {
		if truth := oracle.CapacityBits(); truth > 0 {
			track.Sample(eng.Now(), truth/1e3)
		}
	})
}
