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
// current value. A truth-only probe has no transport monitor: it records
// the oracle's capacity alone.
//
// The probe is strictly passive: it reads the transport monitor only
// through Monitor.LastCapacityBits (never calling CapacityBits, which
// would draw from the Noise hook's RNG and perturb the run it observes),
// and the oracle has no noise source, so its own CapacityBits calls are
// pure. Sweep rows are therefore byte-identical whether or not the obs
// layer is enabled, and attaching a probe never changes the run.
type pbeProbe struct {
	eng    *sim.Engine
	ueID   int
	mon    *core.Monitor // nil for a truth-only probe
	oracle *core.Monitor

	// The capacity tracks, looked up at the first sample; nil when the
	// run records no series (Sample on nil is one branch).
	seriesInit           bool
	truthTrack, estTrack *obs.SeriesTrack

	sumAbs float64
	n      uint64
}

// newProbe stands up UE us's probe. Its oracle mirrors every attach and
// detach of the device's active set and takes each carrier's reports
// directly (no noise, no decode path, no fault injector); sample runs
// once per primary-cell slot. mon is the transport monitor and transport
// its attached-cell side (the monitor itself or a fault injector in front
// of it); both are nil for a truth-only probe. The caller attaches the
// transport feeds first, so the oracle and sample observe fully ingested
// slots.
func (b *build) newProbe(us *UESpec, mon *core.Monitor, transport cellSet) *pbeProbe {
	oracle := core.NewMonitor(us.RNTI)
	oracle.UseFilter = !b.sc.DisableUserFilter
	p := &pbeProbe{eng: b.pl.ueShard(us).Engine, ueID: us.ID, mon: mon, oracle: oracle}
	mirrorActiveCells(b.devices[us.ID], us.ID, b.channels, oracle, transport)
	ids := us.cellIDs()
	for _, cid := range ids {
		b.cells[cid].AttachMonitor(oracle.OnSubframe)
	}
	b.cells[ids[0]].AttachMonitor(p.sample)
	return p
}

// sample is the per-slot callback on the UE's primary cell. When the run
// records series it downsamples truth and, with a transport monitor, the
// estimate into the capacity tracks.
func (p *pbeProbe) sample(*ran.SubframeReport) {
	if !p.seriesInit {
		p.seriesInit = true
		if sb := p.eng.SeriesBuffer(); sb != nil {
			p.truthTrack = sb.Track(seriesTruth, p.ueID)
			if p.mon != nil {
				p.estTrack = sb.Track(seriesEst, p.ueID)
			}
		}
	}
	truth := p.oracle.CapacityBits()
	if truth > 0 {
		p.truthTrack.Sample(p.eng.Now(), truth/1e3)
	}
	if p.mon == nil {
		return
	}
	est := p.mon.LastCapacityBits()
	if est <= 0 || truth <= 0 {
		return // no feedback taken yet, or an empty window
	}
	p.estTrack.Sample(p.eng.Now(), est/1e3)
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

// ErrPct returns the mean absolute relative estimation error in percent
// (0 when no sample was taken).
func (p *pbeProbe) ErrPct() float64 {
	if p.n == 0 {
		return 0
	}
	return 100 * p.sumAbs / float64(p.n)
}

// buildTruthOracle stands up a truth-only probe for the measured (first)
// flow's UE when the run records series and that flow's scheme never
// reads the PBE monitor: the series layer still needs the ground-truth
// capacity trajectory so convergence time and tracking lag are defined
// for every scheme.
func (b *build) buildTruthOracle() {
	sc := b.sc
	if !sc.Series || len(sc.Flows) == 0 {
		return
	}
	fs := sc.Flows[0]
	if fs.Scheme == "fixed" || SchemeUsesMonitor(fs.Scheme) {
		return
	}
	b.newProbe(b.specs[fs.UE], nil, nil)
}
