// Scorecard: the robustness ranking built on top of a fault-axis sweep.
// For every scheme it measures a clean-channel QoE baseline, then the
// normalized degradation under each structured measurement-fault axis
// (internal/faults) at each intensity, and ranks the schemes by mean
// degradation. The question it answers is the one Zhu et al.
// (arXiv:2308.03350) raise about measurement-based congestion control:
// how much of the physical-layer schemes' clean-channel advantage
// survives when the measurements themselves are systematically wrong?
//
// Every number is derived from rounded Row values through fixed-order
// arithmetic, so a scorecard is byte-identical for any worker or shard
// count and can be committed as a CI baseline (BENCH_scorecard_baseline
// .json) and diffed with DiffScorecard.

package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"pbecc/internal/faults"
	"pbecc/internal/harness"
	"pbecc/internal/stats"
)

// ScorecardSpec is the built-in robustness matrix: the frame-level rtc
// family (the paper's latency-sensitive workload, where degradation is
// visible as freezes and late frames, not just lost throughput) crossed
// with the physical-layer schemes, their end-to-end baselines, every
// fault axis at two intensities, and two seeds.
func ScorecardSpec() *Spec {
	return &Spec{
		Name:        "scorecard",
		Experiments: []string{"rtc"},
		Schemes:     []string{"pbertc", "gcc", "pbe", "cubic", "bbr"},
		Seeds:       []int64{1, 2},
		FaultAxes:   faults.Axes(),
		FaultLevels: []float64{0.5, 1},
		DurationMs:  2000,
	}
}

// AxisScore is one scheme's degradation under one (axis, level) point,
// versus its own clean-channel baseline. Drop/inflation values are
// signed percentages (negative = the fault accidentally helped);
// FreezeGrowthPct is added freeze time as a percentage of the run
// duration. Degradation folds the three into [0, 100] (see degradation).
type AxisScore struct {
	Axis  string  `json:"axis"`
	Level float64 `json:"level"`

	TputDropPct     float64 `json:"tput_drop_pct"`
	FrameP95InflPct float64 `json:"frame_p95_infl_pct"`
	FreezeGrowthPct float64 `json:"freeze_growth_pct"`
	DegradationPct  float64 `json:"degradation_pct"`

	// Unaffected marks a point the sweep never ran because the fault
	// cannot reach the scheme (monitor faults against a scheme that
	// never reads the monitor): the clean baseline is reused and the
	// degradation is zero by construction.
	Unaffected bool `json:"unaffected,omitempty"`
}

// SchemeScore is one scheme's full scorecard line: the clean-channel
// baseline, the per-axis degradations, and the robustness rank metric.
type SchemeScore struct {
	Scheme string `json:"scheme"`

	CleanTputMbps   float64 `json:"clean_tput_mbps"`
	CleanFrameP95Ms float64 `json:"clean_frame_p95_ms"`
	CleanFreezeMs   float64 `json:"clean_freeze_ms"`
	CleanLatePct    float64 `json:"clean_late_pct"`

	// PBEErrPct is the mean capacity-estimation error across the faulted
	// jobs, for monitor-consuming schemes (omitted otherwise): the
	// mechanism column - how wrong the estimate was - next to the
	// outcome columns.
	PBEErrPct float64 `json:"pbe_err_pct,omitempty"`

	Axes []AxisScore `json:"axes"`

	// RobustnessPct is the mean DegradationPct across every fault point
	// (lower = more robust); the ranking key.
	RobustnessPct float64 `json:"robustness_pct"`
}

// Scorecard is the ranked result: Schemes sorted most robust first.
type Scorecard struct {
	Spec    Spec          `json:"spec"`
	Schemes []SchemeScore `json:"schemes"`
}

// pointAcc accumulates the rows of one (scheme, axis, level) cell across
// experiments, RATs, cells, noise levels and seeds.
type pointAcc struct {
	tput, frameP95, freeze, late, pbeErr stats.Series
}

func (a *pointAcc) add(r Row) {
	a.tput.Add(r.TputMbps)
	a.frameP95.Add(r.FrameP95Ms)
	a.freeze.Add(r.FreezeMs)
	a.late.Add(r.LateFramePct)
	a.pbeErr.Add(r.PBEErrPct)
}

// BuildScorecard folds a completed fault-axis sweep into the ranked
// scorecard. The result must come from a spec with FaultAxes set (the
// clean points alone rank nothing).
func BuildScorecard(res *Result) (*Scorecard, error) {
	spec := res.Spec
	if len(spec.FaultAxes) == 0 {
		return nil, fmt.Errorf("result %q has no fault axes; a scorecard needs a spec with fault_axes", spec.Name)
	}
	levels := spec.FaultLevels
	if len(levels) == 0 {
		levels = []float64{1}
	}
	durMs := float64(spec.DurationMs)
	if durMs <= 0 {
		durMs = 4000 // the media families' default duration
	}
	accs := map[faultPoint]map[string]*pointAcc{} // point -> scheme -> acc
	for _, r := range res.Rows {
		fp := faultPoint{r.FaultAxis, r.FaultLevel}
		if accs[fp] == nil {
			accs[fp] = map[string]*pointAcc{}
		}
		a := accs[fp][r.Scheme]
		if a == nil {
			a = &pointAcc{}
			accs[fp][r.Scheme] = a
		}
		a.add(r)
	}
	var scores []SchemeScore
	for _, scheme := range spec.Schemes {
		clean := accs[faultPoint{}][scheme]
		if clean == nil {
			return nil, fmt.Errorf("scheme %q has no clean rows in result %q", scheme, spec.Name)
		}
		sc := SchemeScore{
			Scheme:          scheme,
			CleanTputMbps:   stats.Round2(clean.tput.Mean()),
			CleanFrameP95Ms: stats.Round2(clean.frameP95.Mean()),
			CleanFreezeMs:   stats.Round2(clean.freeze.Mean()),
			CleanLatePct:    stats.Round2(clean.late.Mean()),
		}
		var faultedErr stats.Series
		var degSum float64
		for _, ax := range spec.FaultAxes {
			for _, lv := range levels {
				point := AxisScore{Axis: ax, Level: lv}
				if a := accs[faultPoint{ax, lv}][scheme]; a != nil {
					point.TputDropPct = stats.Round2(regressPct(clean.tput.Mean(), a.tput.Mean(), true))
					point.FrameP95InflPct = stats.Round2(regressPct(clean.frameP95.Mean(), a.frameP95.Mean(), false))
					point.FreezeGrowthPct = stats.Round2(100 * (a.freeze.Mean() - clean.freeze.Mean()) / durMs)
					point.DegradationPct = degradation(point)
					if harness.SchemeUsesMonitor(scheme) {
						faultedErr.Add(a.pbeErr.Mean())
					}
				} else {
					point.Unaffected = true
				}
				degSum += point.DegradationPct
				sc.Axes = append(sc.Axes, point)
			}
		}
		sc.RobustnessPct = stats.Round2(degSum / float64(len(sc.Axes)))
		if harness.SchemeUsesMonitor(scheme) {
			sc.PBEErrPct = stats.Round2(faultedErr.Mean())
		}
		scores = append(scores, sc)
	}
	sort.SliceStable(scores, func(i, j int) bool {
		if scores[i].RobustnessPct != scores[j].RobustnessPct {
			return scores[i].RobustnessPct < scores[j].RobustnessPct
		}
		return scores[i].Scheme < scores[j].Scheme
	})
	return &Scorecard{Spec: spec, Schemes: scores}, nil
}

// degradation folds one fault point's signed deltas into a [0, 100]
// composite: 40% weight on lost throughput, 30% on frame-delay
// inflation (capped at a doubling), 30% on added freeze share.
// Improvements clamp to zero - a fault that happens to help on one axis
// must not buy back degradation on another.
func degradation(p AxisScore) float64 {
	clamp01 := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	return stats.Round2(100 * (0.4*clamp01(p.TputDropPct/100) +
		0.3*clamp01(p.FrameP95InflPct/100) +
		0.3*clamp01(p.FreezeGrowthPct/100)))
}

// WriteScorecard writes the scorecard as indented JSON; like sweep
// results the encoding is deterministic, so identical code and spec give
// byte-identical files.
func WriteScorecard(w io.Writer, sc *Scorecard) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sc)
}

// ReadScorecard loads a scorecard file written by WriteScorecard.
func ReadScorecard(path string) (*Scorecard, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc := &Scorecard{}
	if err := json.Unmarshal(data, sc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// FprintScorecard renders the ranked table for humans: one line per
// scheme, most robust first, then the per-axis breakdown.
func FprintScorecard(w io.Writer, sc *Scorecard) {
	fmt.Fprintf(w, "robustness scorecard %q: mean QoE degradation under measurement faults (lower = more robust)\n", sc.Spec.Name)
	fmt.Fprintf(w, "%-4s %-8s %12s %14s %14s %12s %10s\n",
		"rank", "scheme", "degrade%", "clean_tput", "clean_p95ms", "freeze_ms", "est_err%")
	for i, s := range sc.Schemes {
		errCol := "-"
		if harness.SchemeUsesMonitor(s.Scheme) {
			errCol = fmt.Sprintf("%.2f", s.PBEErrPct)
		}
		fmt.Fprintf(w, "%-4d %-8s %12.2f %14.2f %14.2f %12.2f %10s\n",
			i+1, s.Scheme, s.RobustnessPct, s.CleanTputMbps, s.CleanFrameP95Ms, s.CleanFreezeMs, errCol)
	}
	fmt.Fprintln(w, "per-axis degradation ('-' = fault cannot reach the scheme; clean baseline reused):")
	for _, s := range sc.Schemes {
		fmt.Fprintf(w, "  %-8s", s.Scheme)
		for _, p := range s.Axes {
			if p.Unaffected {
				fmt.Fprintf(w, " %s@%v=-", p.Axis, p.Level)
				continue
			}
			fmt.Fprintf(w, " %s@%v=%.2f", p.Axis, p.Level, p.DegradationPct)
		}
		fmt.Fprintln(w)
	}
}

// DiffScorecard compares a committed baseline scorecard against a fresh
// run from the same spec: one delta per scheme for the robustness rank
// metric (RegressPct = percentage-point increase in mean degradation)
// and one for the clean-channel throughput it is normalized against.
func DiffScorecard(base, cur *Scorecard) ([]Delta, error) {
	if err := checkSameSpec(base.Spec, cur.Spec); err != nil {
		return nil, err
	}
	bi := map[string]*SchemeScore{}
	for i := range base.Schemes {
		bi[base.Schemes[i].Scheme] = &base.Schemes[i]
	}
	var deltas []Delta
	for i := range cur.Schemes {
		cs := &cur.Schemes[i]
		bs, ok := bi[cs.Scheme]
		if !ok {
			return nil, fmt.Errorf("scheme %s missing from baseline scorecard (regenerate it)", cs.Scheme)
		}
		deltas = append(deltas,
			Delta{Group: "scorecard/" + cs.Scheme, Metric: "robustness_pct",
				Base: bs.RobustnessPct, Cur: cs.RobustnessPct,
				RegressPct: stats.Round2(cs.RobustnessPct - bs.RobustnessPct)},
			Delta{Group: "scorecard/" + cs.Scheme, Metric: "clean_tput_mbps",
				Base: bs.CleanTputMbps, Cur: cs.CleanTputMbps,
				RegressPct: stats.Round2(regressPct(bs.CleanTputMbps, cs.CleanTputMbps, true))})
	}
	if len(cur.Schemes) != len(base.Schemes) {
		return nil, fmt.Errorf("baseline has %d schemes, current %d (regenerate the baseline)",
			len(base.Schemes), len(cur.Schemes))
	}
	return deltas, nil
}
