package harness

import (
	"fmt"
	"time"

	"pbecc/internal/faults"
	"pbecc/internal/nr"
	"pbecc/internal/phy"
	"pbecc/internal/ran"
	"pbecc/internal/trace"
)

// Params are the knobs the sweep runner varies across jobs: the axes of
// the paper's evaluation matrix (Figs. 8-21) plus the measurement-noise
// robustness axis. Zero values keep each scenario family's defaults; the
// grid and per-scheme figures (internal/figures) are sweeps over these
// families and run on the sweep worker pool.
type Params struct {
	Seed     int64         // engine seed; 0 = family default
	Duration time.Duration // scenario length; 0 = family default
	Cells    int           // component carriers / NR cells; 0 = family default
	RAT      string        // "lte" (default) or "nr"
	Busy     bool          // add calibrated control chatter + background users
	RSSI     float64       // signal strength in dBm; 0 = family default

	// Location puts the steady family's LTE flow at LocationGrid()[*Location],
	// with that spot's carriers and load (so no Cells or Busy). Seed s runs
	// at 1000*s + index: the spot's own seed at s = 1, unique per pair.
	Location *int

	// CapacityNoise is the std (as a fraction of the estimate) of
	// multiplicative Gaussian noise on the PBE monitor's capacity
	// feedback.
	CapacityNoise float64

	// Faults selects the fault axes (internal/faults), each an intensity
	// in [0, 1]: the structured measurement-fault counterpart to
	// CapacityNoise's white error. Stale/Miss/Handover perturb what
	// monitor-using schemes observe; OnOff adds an adversarial
	// square-wave competitor every scheme contends with.
	Faults faults.Spec

	// Shards bounds how many shards of a sharded scenario advance
	// concurrently (0 = family default, which is serial). Results are
	// byte-identical for any value; only wall-clock time changes.
	Shards int

	// FluidBackground converts a family's churning background population
	// to the fluid tier (internal/fluid): aggregate per-cell rate
	// envelopes in place of per-packet on/off flows, so event volume
	// scales with the measured flows. Families without a churn population
	// ignore it; the nation family forces it on.
	FluidBackground bool
}

// RATLTE and RATNR name the radio-access-technology axis values.
const (
	RATLTE = "lte"
	RATNR  = "nr"
)

func (p Params) rat() string {
	if p.RAT == "" {
		return RATLTE
	}
	return p.RAT
}

func (p Params) dur(def time.Duration) time.Duration {
	if p.Duration > 0 {
		return p.Duration
	}
	return def
}

func (p Params) rssi(def float64) float64 {
	if p.RSSI != 0 {
		return p.RSSI
	}
	return def
}

func (p Params) cellCount(def int) int {
	if p.Cells > 0 {
		return p.Cells
	}
	return def
}

// Validate rejects parameter values that a family builder would
// otherwise silently default or misinterpret. BuildScenario calls it
// before any family runs.
func (p Params) Validate() error {
	if p.Cells < 0 {
		return fmt.Errorf("negative cell count %d", p.Cells)
	}
	if p.CapacityNoise < 0 {
		return fmt.Errorf("negative capacity noise %v", p.CapacityNoise)
	}
	if p.Duration < 0 {
		return fmt.Errorf("negative duration %v", p.Duration)
	}
	if p.Shards < 0 {
		return fmt.Errorf("negative shard count %d", p.Shards)
	}
	if err := p.Faults.Validate(); err != nil {
		return err
	}
	switch p.RAT {
	case "", RATLTE, RATNR:
	default:
		return fmt.Errorf("unknown RAT %q (valid: %q, %q)", p.RAT, RATLTE, RATNR)
	}
	if l := p.Location; l != nil {
		if n := len(LocationGrid()); *l < 0 || *l >= n {
			return fmt.Errorf("location %d outside the grid (valid: 0-%d)", *l, n-1)
		}
		if p.rat() != RATLTE || p.Cells > 0 || p.Busy {
			return fmt.Errorf("location %d is an LTE grid spot with its own carriers and load: set no nr RAT, cells or busy", *l)
		}
	}
	return nil
}

// apply overlays the cross-family knobs once a builder has produced its
// scenario.
func (p Params) apply(sc *Scenario) *Scenario {
	if p.Seed != 0 {
		sc.Seed = p.Seed
	}
	if p.CapacityNoise > 0 {
		sc.CapacityNoise = p.CapacityNoise
	}
	if p.Shards > 0 {
		sc.Shards = p.Shards
	}
	if p.Faults.Any() {
		sc.Faults = p.Faults
		if p.Faults.OnOff > 0 {
			addOnOffCompetitor(sc, p.Faults.OnOff)
		}
	}
	return sc
}

// addOnOffCompetitor stands up the OnOff fault axis: a square-wave
// fixed-rate flow on the measured UE's primary cell whose half-period
// equals the monitor's smoothing window - the adversarial cadence for a
// windowed estimator, and a bursty competitor for every other scheme.
func addOnOffCompetitor(sc *Scenario, level float64) {
	var target *UESpec
	for _, fs := range sc.Flows {
		if fs.Scheme == "fixed" {
			continue
		}
		for i := range sc.UEs {
			if sc.UEs[i].ID == fs.UE {
				target = &sc.UEs[i]
			}
		}
		break
	}
	if target == nil {
		return
	}
	maxUE, maxRNTI, maxFlow := 0, uint16(0), 0
	for i := range sc.UEs {
		if sc.UEs[i].ID > maxUE {
			maxUE = sc.UEs[i].ID
		}
		if sc.UEs[i].RNTI > maxRNTI {
			maxRNTI = sc.UEs[i].RNTI
		}
	}
	for i := range sc.Flows {
		if sc.Flows[i].ID > maxFlow {
			maxFlow = sc.Flows[i].ID
		}
	}
	rssi := target.RSSI
	if rssi == 0 {
		rssi = -90 // target rides a trajectory: give the adversary a plain cell-center signal
	}
	adv := UESpec{ID: maxUE + 1, RNTI: maxRNTI + 1, RSSI: rssi}
	// Peak rate scaled by intensity: enough to claim most of the cell
	// during an on-phase (the §6.3.3 competitor's regime), per RAT.
	rate := level * 80e6
	if len(target.CellIDs) > 0 {
		adv.CellIDs = []int{target.CellIDs[0]}
	} else {
		adv.NRCellIDs = []int{target.NRCellIDs[0]}
		rate = level * 400e6
	}
	sc.UEs = append(sc.UEs, adv)
	sc.Flows = append(sc.Flows, FlowSpec{
		ID: maxFlow + 1, UE: adv.ID, Scheme: "fixed", FixedRate: rate,
		Start:    faults.OnOffHalfPeriod,
		OnPeriod: faults.OnOffHalfPeriod, OffPeriod: faults.OnOffHalfPeriod,
	})
	faults.CountOnOffFlow()
}

// controlFor returns the cell's control-plane source for the Busy knob:
// calibrated chatter on a busy cell, the idle trace otherwise. (The steady
// family additionally adds background data users on busy cells.)
func controlFor(p Params) ran.ControlSource {
	if p.Busy {
		return trace.Busy()
	}
	return trace.Idle()
}

// Family is one parameterizable scenario generator: where the figure
// experiments bake every choice into a closure, a family exposes the
// choices as Params so the sweep runner can expand a matrix over them.
// Every family builds both RATs.
type Family struct {
	ID    string
	Title string
	// CellsAxis reports whether the family honors Params.Cells; a
	// sweep listing cell counts over a family that ignores them would
	// run mislabeled duplicate jobs, so BuildScenario rejects that.
	CellsAxis bool
	// MinCells is the smallest explicit Params.Cells the family can
	// honor (0 = any positive value). A request below it is rejected
	// rather than silently rounded up, so a result row's cell count
	// always matches what actually ran.
	MinCells int
	Build    func(scheme string, p Params) *Scenario
}

// Families returns the sweepable scenario families.
func Families() []Family {
	return []Family{
		{"steady", "single flow in steady state at one location", true, 0, SteadyScenario},
		{"mobility", "mobility trajectory (LTE) / mmWave blockage (NR)", false, 0, MobilityScenario},
		{"competition", "on-off competitor sharing the cell", false, 0, CompetitionScenario},
		{"multiflow", "two concurrent flows from one device", false, 0, MultiflowScenario},
		{"rtc", "interactive frame-level video call (GoP source + jitter buffer)", true, 0, RTCScenario},
		{"sfu", "SFU fan-out: one ingest to 32 subscribers across LTE and NR cells", true, 0, SFUScenario},
		{"metro", "city-scale sharded mix: 64-256 cells, 16 UEs/cell, bulk+rtc+sfu flows with churn", true, 2, MetroScenario},
		{"nation", "nation-scale hybrid: metro packet foreground + 64k fluid-modeled cells / 1M+ users", true, 2, NationScenario},
	}
}

// BuildScenario builds one family's scenario for a scheme, validating the
// params, scheme name and family ID first and the built
// scenario (Scenario.Validate) last.
func BuildScenario(family, scheme string, p Params) (*Scenario, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("invalid params: %w", err)
	}
	if lookupScheme(scheme) == nil {
		return nil, fmt.Errorf("unknown scheme %q (valid: %v)", scheme, Schemes)
	}
	for _, f := range Families() {
		if f.ID != family {
			continue
		}
		if p.Cells > 0 && !f.CellsAxis {
			return nil, fmt.Errorf("family %q does not support the cell-count axis", family)
		}
		if p.Cells > 0 && p.Cells < f.MinCells {
			return nil, fmt.Errorf("family %q needs at least %d cells (got %d)", family, f.MinCells, p.Cells)
		}
		if p.Location != nil && f.ID != "steady" {
			return nil, fmt.Errorf("family %q does not support the location axis (only steady does)", family)
		}
		sc := f.Build(scheme, p)
		if err := sc.Validate(); err != nil {
			return nil, fmt.Errorf("family %q built an invalid scenario: %w", family, err)
		}
		return sc, nil
	}
	ids := make([]string, 0, len(Families()))
	for _, f := range Families() {
		ids = append(ids, f.ID)
	}
	return nil, fmt.Errorf("unknown scenario family %q (valid: %v)", family, ids)
}

// SteadyScenario is one flow downloading at a fixed location: the building
// block of the paper's location grid (Figs. 12-14). LTE supports 1-3
// aggregated carriers; NR builds a µ=1 wide cell per carrier.
func SteadyScenario(scheme string, p Params) *Scenario {
	if p.rat() == RATNR {
		dur := p.dur(4 * time.Second)
		sc := NRScenario(scheme, 1, 100, p.rssi(-88), p.Busy, dur)
		for c := 1; c < p.cellCount(1); c++ {
			// Each carrier needs its own control source: the trace
			// generators are stateful, so sharing one would bleed
			// control users across cells.
			cell := NRCellSpec{ID: 101 + c, Mu: 1, BandwidthMHz: 100, Control: controlFor(p)}
			sc.NRCells = append(sc.NRCells, cell)
			sc.UEs[0].NRCellIDs = append(sc.UEs[0].NRCellIDs, cell.ID)
		}
		return p.apply(sc)
	}
	// Index%3 != 0: no Internet bottleneck on the path.
	loc := Location{Index: 1, Indoor: true, CCs: p.cellCount(1), Busy: p.Busy, RSSI: p.rssi(-91)}
	if p.Location != nil {
		loc = LocationGrid()[*p.Location]
		if p.Seed != 0 {
			p.Seed = 1000*p.Seed + int64(loc.Index)
		}
	}
	return p.apply(LocationScenario(loc, scheme, p.dur(4*time.Second)))
}

// MobilityScenario is the §6.3.2 walk for LTE (-85 -> -105 -> -85 dBm,
// Figs. 16-17); on NR it is the mmWave blockage profile, the 5G scenario
// where capacity collapses faster than any end-to-end signal.
func MobilityScenario(scheme string, p Params) *Scenario {
	if p.rat() == RATNR {
		// µ=3 (120 kHz SCS, 0.125 ms slots) at 100 MHz with an abrupt
		// 35 dB blockage over the run's middle quarter.
		dur := p.dur(8 * time.Second)
		sc := &Scenario{
			Seed: 3100, Duration: dur,
			NRCells: []NRCellSpec{{ID: 101, Mu: 3, BandwidthMHz: 100, Control: controlFor(p)}},
			UEs: []UESpec{{ID: 1, RNTI: 61, NRCellIDs: []int{101},
				Trajectory: nr.BlockageTrajectory(-80, 35, dur*3/8, dur*5/8)}},
			Flows: []FlowSpec{{ID: 1, UE: 1, Scheme: scheme, Start: 0, RTTBase: 20 * time.Millisecond}},
		}
		return p.apply(sc)
	}
	sc := &Scenario{
		Seed: 16, Duration: p.dur(40 * time.Second),
		Cells: []CellSpec{{ID: 1, Control: controlFor(p)}},
		UEs: []UESpec{{ID: 1, RNTI: 61, CellIDs: []int{1},
			Trajectory: phy.PaperMobilityTrajectory(), FadingSigma: 2}},
		Flows: []FlowSpec{{ID: 1, UE: 1, Scheme: scheme, Start: 0, RTTBase: 40 * time.Millisecond}},
	}
	return p.apply(sc)
}

// CompetitionScenario is the §6.3.3 controlled competitor: the scheme
// under test shares the cell with an on-off fixed-rate flow (60 Mbit/s on
// LTE, 300 Mbit/s on an NR wide cell).
func CompetitionScenario(scheme string, p Params) *Scenario {
	if p.rat() == RATNR {
		dur := p.dur(16 * time.Second)
		sc := &Scenario{
			Seed: 3300, Duration: dur,
			NRCells: []NRCellSpec{{ID: 101, Mu: 1, BandwidthMHz: 100, Control: controlFor(p)}},
			UEs: []UESpec{
				{ID: 1, RNTI: 61, NRCellIDs: []int{101}, RSSI: p.rssi(-88)},
				{ID: 2, RNTI: 62, NRCellIDs: []int{101}, RSSI: p.rssi(-88)},
			},
			Flows: []FlowSpec{
				{ID: 1, UE: 1, Scheme: scheme, Start: 0, RTTBase: 30 * time.Millisecond},
				{ID: 2, UE: 2, Scheme: "fixed", FixedRate: 300e6, Start: dur / 8,
					OnPeriod: dur / 4, OffPeriod: dur / 4},
			},
		}
		return p.apply(sc)
	}
	dur := p.dur(40 * time.Second)
	// Every 8 s a 4 s on-phase of a 60 Mbit/s competitor (§6.3.3). The
	// paper's fixed cadence needs at least one full cycle; shorter sweep
	// jobs scale it with the duration so the competitor actually runs.
	start, on, off := 4*time.Second, 4*time.Second, 4*time.Second
	if dur < 8*time.Second {
		start, on, off = dur/8, dur/4, dur/4
	}
	sc := &Scenario{
		Seed: 18, Duration: dur,
		Cells: []CellSpec{{ID: 1, Control: controlFor(p)}},
		UEs: []UESpec{
			{ID: 1, RNTI: 61, CellIDs: []int{1}, RSSI: p.rssi(-90)},
			{ID: 2, RNTI: 62, CellIDs: []int{1}, RSSI: p.rssi(-90)},
		},
		Flows: []FlowSpec{
			{ID: 1, UE: 1, Scheme: scheme, Start: 0, RTTBase: 40 * time.Millisecond},
			{ID: 2, UE: 2, Scheme: "fixed", FixedRate: 60e6, Start: start,
				OnPeriod: on, OffPeriod: off},
		},
	}
	return p.apply(sc)
}

// MultiflowScenario runs two concurrent connections from one device with
// different server RTTs (Fig. 20).
func MultiflowScenario(scheme string, p Params) *Scenario {
	dur := p.dur(20 * time.Second)
	if p.rat() == RATNR {
		sc := NRScenario(scheme, 1, 100, p.rssi(-88), p.Busy, dur)
		sc.Flows = append(sc.Flows, FlowSpec{
			ID: len(sc.Flows) + 1, UE: 1, Scheme: scheme, Start: 0,
			RTTBase: 46 * time.Millisecond,
		})
		return p.apply(sc)
	}
	sc := &Scenario{
		Seed: 20, Duration: dur,
		Cells: []CellSpec{{ID: 1, Control: controlFor(p)}},
		UEs:   []UESpec{{ID: 1, RNTI: 61, CellIDs: []int{1}, RSSI: p.rssi(-90)}},
		Flows: []FlowSpec{
			{ID: 1, UE: 1, Scheme: scheme, Start: 0, RTTBase: 40 * time.Millisecond},
			{ID: 2, UE: 1, Scheme: scheme, Start: 0, RTTBase: 56 * time.Millisecond},
		},
	}
	return p.apply(sc)
}
