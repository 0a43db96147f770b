// Package figures regenerates the paper's tables and figures and the 5G
// NR experiments, one registry entry each, for cmd/pbebench. A figure that
// compares schemes over scenario-family jobs builds a sweep spec and runs
// its jobs on the sweep worker pool (points); every other figure that runs
// harness scenarios hands them to the same pool (sweep.Pool).
package figures

import (
	"fmt"
	"io"
	"strings"
	"time"

	"pbecc/internal/core"
	"pbecc/internal/harness"
	"pbecc/internal/lte"
	"pbecc/internal/netsim"
	"pbecc/internal/phy"
	"pbecc/internal/ran"
	"pbecc/internal/sim"
	"pbecc/internal/stats"
	"pbecc/internal/sweep"
	"pbecc/internal/trace"
)

// Table is one printable experiment output: the rows or series of a paper
// table or figure. The JSON tags serve cmd/pbebench's -json mode, so
// bench-trajectory tooling can consume rows without scraping text tables.
type Table struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintln(w, "  # "+n)
	}
	fmt.Fprintln(w)
}

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	ID    string                   `json:"id"`
	Title string                   `json:"title"`
	Run   func(quick bool) []Table `json:"-"`
}

// Experiments returns the full per-figure registry (DESIGN.md §5).
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Summary speedup/delay-reduction vs BBR, Verus, Copa", Run: Table1},
		{ID: "fig2", Title: "Secondary-carrier activation and deactivation trace", Run: Figure2},
		{ID: "fig3", Title: "HARQ retransmission and reordering-buffer delay", Run: Figure3},
		{ID: "fig5", Title: "Per-subframe PRB tracking across users", Run: Figure5},
		{ID: "fig6a", Title: "Retransmission and protocol overhead vs offered load", Run: Figure6a},
		{ID: "fig6b", Title: "Transport block error rate vs size", Run: Figure6b},
		{ID: "fig7", Title: "Active-user counts and the control-traffic filter", Run: Figure7},
		{ID: "fig8", Title: "One-way delay under increasing offered load", Run: Figure8},
		{ID: "fig9", Title: "BBR's eight-phase pacing-gain cycle", Run: Figure9},
		{ID: "fig11", Title: "Cell status micro-benchmark (users, physical rates)", Run: Figure11},
		{ID: "fig12", Title: "Throughput / 95th-pct delay CDFs across locations", Run: Figure12},
		{ID: "fig13", Title: "Order statistics at four indoor locations", Run: Figure13},
		{ID: "fig14", Title: "Order statistics at two outdoor locations", Run: Figure14},
		{ID: "fig15", Title: "Locations triggering carrier aggregation per scheme", Run: Figure15},
		{ID: "fig16", Title: "Mobility: throughput and delay per scheme", Run: Figure16},
		{ID: "fig17", Title: "Mobility timeline: PBE-CC vs BBR", Run: Figure17},
		{ID: "fig18", Title: "Controlled competition: throughput and delay", Run: Figure18},
		{ID: "fig19", Title: "Competition timeline: PBE-CC vs BBR", Run: Figure19},
		{ID: "fig20", Title: "Two concurrent connections from one device", Run: Figure20},
		{ID: "fig21a", Title: "Multi-user fairness (three PBE flows)", Run: Figure21a},
		{ID: "fig21b", Title: "RTT fairness (52/64/297 ms flows)", Run: Figure21b},
		{ID: "fig21c", Title: "TCP friendliness: two PBE flows + one BBR", Run: Figure21c},
		{ID: "fig21d", Title: "TCP friendliness: two PBE flows + one CUBIC", Run: Figure21d},
		{ID: "ablation", Title: "Design ablations: baseline, no Ta/Pa filter, bit-level PDCCH decode, misreport guard", Run: Ablations},
		{ID: "nr-tput", Title: "5G NR single-cell throughput and delay per scheme", Run: NRTput},
		{ID: "nr-blockage", Title: "mmWave blockage: PBE tracks the capacity collapse", Run: NRBlockage},
		{ID: "nr-dc", Title: "EN-DC dual connectivity: LTE anchor + NR secondary", Run: NRDualConnectivity},
		{ID: "nr-compete", Title: "NR cell competition: PBE vs on-off competitor", Run: NRCompete},
	}
}

func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// point is what a swept figure reads of one job's measured flow. Its
// values are unrounded: rounding the sweep's 2-decimal rows again can move
// a printed digit.
type point struct {
	job                      sweep.Job
	tput, avgDelay, p50, p95 float64 // Mbit/s; one-way delay in ms
	internet                 float64 // time share in PBE's Internet-bottleneck state
	ca                       bool    // a secondary carrier was activated
}

// points runs a swept figure's jobs on the sweep worker pool and
// measures each, in job order.
func points(spec *sweep.Spec) []point {
	pts, err := sweep.Map(spec, 0, false, nil, measure)
	if err != nil {
		panic(fmt.Sprintf("figures: %s: %v", spec.Name, err)) // the specs are built in
	}
	return pts
}

func measure(j sweep.Job, _ *harness.Scenario, r *harness.Result) point {
	f := r.Flows[0]
	avg := f.Delay.Mean() // before Percentile sorts the samples, which can move the sum's last bit
	return point{j, f.AvgTputMbps, avg, f.Delay.Percentile(50), f.Delay.Percentile(95), f.InternetFrac, r.CATriggered}
}

// byScheme groups points by scheme, keeping each scheme's in job order.
func byScheme(pts []point) map[string][]point {
	runs := map[string][]point{}
	for _, p := range pts {
		runs[p.job.Scheme] = append(runs[p.job.Scheme], p)
	}
	return runs
}

// eachScheme runs scenario(s) for every scheme s on the sweep's scenario
// pool and returns what measure reads of each run, in scheme order.
func eachScheme[T any](schemes []string, scenario func(scheme string) *harness.Scenario,
	measure func(scheme string, r *harness.Result) T) []T {
	return sweep.Pool(len(schemes), 0, nil,
		func(i int) *harness.Scenario { return scenario(schemes[i]) },
		func(i int, _ *harness.Scenario, r *harness.Result) T { return measure(schemes[i], r) })
}

// windowAvgs averages a flow's throughput over consecutive step-long
// intervals from from up to to, in Mbit/s.
func windowAvgs(f *harness.FlowResult, from, to, step time.Duration) []float64 {
	var avgs []float64
	for t := from; t < to; t += step {
		avgs = append(avgs, f.TimelineAvg(t, t+step))
	}
	return avgs
}

// quickOr returns q in quick mode and full otherwise.
func quickOr[T any](quick bool, q, full T) T {
	if quick {
		return q
	}
	return full
}

// schemeSpec runs each scheme once on a family at one seed: the seed its
// builder defaults to keeps a figure's historical scenario.
func schemeSpec(id, family, rat string, schemes []string, seed int64, dur time.Duration) *sweep.Spec {
	return &sweep.Spec{Name: id, Experiments: []string{family}, Schemes: schemes,
		Seeds: []int64{seed}, RATs: []string{rat}, DurationMs: int(dur / time.Millisecond)}
}

// gridSpec runs each scheme at every grid location with at least minCCs
// carriers - of the whole grid, or of four busy locations when quick - for
// 6 s (2 s quick) per job at seed 1, each location's own scenario seed.
func gridSpec(id string, schemes []string, minCCs int, quick bool) *sweep.Spec {
	spec := schemeSpec(id, "steady", harness.RATLTE, schemes, 1, quickOr(quick, 2*time.Second, 6*time.Second))
	locs := harness.LocationGrid()
	if quick {
		locs = []harness.Location{locs[0], locs[3], locs[11], locs[16]}
	}
	for _, l := range locs {
		if l.CCs >= minCCs {
			spec.Locations = append(spec.Locations, l.Index)
		}
	}
	return spec
}

// Table1 reproduces the paper's Table 1: PBE-CC's throughput speedup and
// delay reduction versus BBR, Verus and Copa, averaged over busy and idle
// links separately.
func Table1(quick bool) []Table {
	grid := byScheme(points(gridSpec("table1", []string{"pbe", "bbr", "verus", "copa"}, 1, quick)))
	locs := harness.LocationGrid()
	t := &Table{
		ID:    "table1",
		Title: "PBE-CC speedup and delay reduction (paper Table 1)",
		Header: []string{"scheme", "links", "tput speedup",
			"p95 delay reduction", "avg delay reduction"},
	}
	var internetBusy, internetIdle stats.Series
	for _, base := range []string{"bbr", "verus", "copa"} {
		for _, busy := range []bool{true, false} {
			var speedup, p95red, avgred stats.Series
			for i, p := range grid["pbe"] {
				if locs[*p.job.Location].Busy != busy {
					continue
				}
				b := grid[base][i]
				if b.tput > 0 {
					speedup.Add(p.tput / b.tput)
				}
				if p.p95 > 0 {
					p95red.Add(b.p95 / p.p95)
				}
				if p.avgDelay > 0 {
					avgred.Add(b.avgDelay / p.avgDelay)
				}
			}
			label := "idle"
			if busy {
				label = "busy"
			}
			t.Rows = append(t.Rows, []string{base, label, meanRatio(&speedup), meanRatio(&p95red), meanRatio(&avgred)})
		}
	}
	for _, p := range grid["pbe"] {
		if locs[*p.job.Location].Busy {
			internetBusy.Add(p.internet)
		} else {
			internetIdle.Add(p.internet)
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("PBE time in Internet-bottleneck state: busy %s, idle %s (paper: 18%%/4%%)",
			meanPct(&internetBusy), meanPct(&internetIdle)),
		"paper: vs BBR busy 1.04x/1.54x/1.39x, idle 1.10x/2.07x/1.84x;"+
			" vs Verus busy 1.25x/3.97x/2.53x; vs Copa busy 10.35x/0.80x/0.80x")
	return []Table{*t}
}

// meanRatio formats a series' mean as a ratio, or "n/a" when it is empty
// (the quick grid has no idle location).
func meanRatio(s *stats.Series) string {
	if s.Len() == 0 {
		return "n/a"
	}
	return f2(s.Mean()) + "x"
}

// meanPct formats a series of fractions' mean as a percentage, or "n/a"
// when it is empty.
func meanPct(s *stats.Series) string {
	if s.Len() == 0 {
		return "n/a"
	}
	return f1(100*s.Mean()) + "%"
}

// Figure2 reproduces the carrier activation/deactivation trace: a fixed
// 40 Mbit/s offered load exceeding the primary cell, dropping to 6 Mbit/s.
func Figure2(quick bool) []Table {
	eng := sim.New(2)
	primary := lte.NewCell(eng, 1, 100, phy.Table64QAM, nil)
	secondary := lte.NewCell(eng, 2, 100, phy.Table64QAM, nil)
	ue := lte.NewUE(eng, 1, 61)
	ue.AddCell(primary, phy.NewStaticChannel(-93, phy.Table64QAM, nil))
	ue.AddCell(secondary, phy.NewStaticChannel(-93, phy.Table64QAM, nil))
	delays := map[int]*stats.DurationSeries{}
	ue.SetDefaultHandler(netsim.HandlerFunc(func(now time.Duration, p *netsim.Packet) {
		b := int(now / (200 * time.Millisecond))
		if delays[b] == nil {
			delays[b] = &stats.DurationSeries{}
		}
		delays[b].AddDuration(now - p.SentAt)
	}))
	ue.Start()
	var prb1, prb2 []int
	primary.AttachMonitor(func(rep *ran.SubframeReport) {
		s := 0
		for _, a := range rep.Allocs {
			if a.RNTI == 61 {
				s += a.PRBs
			}
		}
		prb1 = append(prb1, s)
	})
	secondary.AttachMonitor(func(rep *ran.SubframeReport) {
		s := 0
		for _, a := range rep.Allocs {
			if a.RNTI == 61 {
				s += a.PRBs
			}
		}
		prb2 = append(prb2, s)
	})
	high := netsim.NewCrossTraffic(eng, ue, 40e6, 1)
	low := netsim.NewCrossTraffic(eng, ue, 6e6, 1)
	eng.At(0, high.Start)
	eng.At(2*time.Second, high.Stop)
	eng.At(2*time.Second, low.Start)
	eng.RunUntil(4 * time.Second)

	t := &Table{ID: "fig2", Title: "Carrier activation at 40 Mbit/s, deactivation after drop to 6 Mbit/s",
		Header: []string{"t(s)", "primary PRBs", "secondary PRBs", "avg delay(ms)"}}
	step := 200
	for ms := 0; ms+step <= 4000; ms += step {
		var s1, s2 int
		for i := ms; i < ms+step && i < len(prb1); i++ {
			s1 += prb1[i]
			if i < len(prb2) {
				s2 += prb2[i]
			}
		}
		d := 0.0
		if ds := delays[ms/step]; ds != nil {
			d = ds.Mean()
		}
		t.Rows = append(t.Rows, []string{
			f1(float64(ms) / 1000),
			f1(float64(s1) / float64(step)), f1(float64(s2) / float64(step)), f1(d)})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("activations=%d deactivations=%d (paper: activate ~0.13s, deactivate after rate drop)",
			ue.Activations, ue.Deactivations))
	return []Table{*t}
}

// Figure3 reproduces the HARQ retransmission/reordering delay: one failed
// transport block delays its packets by 8 ms and buffers later blocks.
func Figure3(quick bool) []Table {
	eng := sim.New(3)
	cell := lte.NewCell(eng, 1, 100, phy.Table64QAM, nil)
	cell.ErrorModel = func(rnti uint16, seq uint64, attempt, bits int, ber float64) bool {
		return seq == 2 && attempt == 0 // fail the third TB once
	}
	ue := lte.NewUE(eng, 1, 61)
	ue.AddCell(cell, phy.NewStaticChannel(-85, phy.Table64QAM, nil))
	ue.SetCarrierAggregation(false)
	type rel struct {
		seq     uint64
		release time.Duration
	}
	var rels []rel
	ue.SetDefaultHandler(netsim.HandlerFunc(func(now time.Duration, p *netsim.Packet) {
		rels = append(rels, rel{p.Seq, now})
	}))
	ue.Start()
	for i := 0; i < 400; i++ {
		ue.HandlePacket(0, &netsim.Packet{FlowID: 1, Seq: uint64(i), Size: netsim.MSS})
	}
	eng.RunUntil(40 * time.Millisecond)

	t := &Table{ID: "fig3", Title: "Reordering-buffer release after one HARQ retransmission",
		Header: []string{"packet", "released(ms)", "extra delay(ms)"}}
	base := time.Duration(0)
	for i, r := range rels {
		if i == 0 {
			base = r.release
		}
		if i > 120 {
			break
		}
		if i%10 != 0 && r.release == base {
			continue
		}
		extra := float64(r.release-base) / 1e6 // per-packet release offset
		t.Rows = append(t.Rows, []string{fmt.Sprint(r.seq),
			f2(float64(r.release) / 1e6), f2(extra)})
		base = r.release
	}
	t.Notes = append(t.Notes, "the failed TB's packets and all buffered successors release together 8 ms late")
	return []Table{*t}
}

// Figure5 shows per-subframe PRB occupancy as flows start and stop.
func Figure5(quick bool) []Table {
	eng := sim.New(5)
	cell := lte.NewCell(eng, 1, 100, phy.Table64QAM, nil)
	var rows [][]string
	cell.AttachMonitor(func(rep *ran.SubframeReport) {
		per := map[uint16]int{}
		for _, a := range rep.Allocs {
			per[a.RNTI] += a.PRBs
		}
		if rep.Subframe%50 != 0 {
			return
		}
		rows = append(rows, []string{
			fmt.Sprint(rep.Subframe),
			fmt.Sprint(per[61]), fmt.Sprint(per[62]), fmt.Sprint(per[63]),
			fmt.Sprint(rep.IdlePRBs())})
	})
	mk := func(id int, rnti uint16) *ran.UE {
		u := lte.NewUE(eng, id, rnti)
		u.AddCell(cell, phy.NewStaticChannel(-93, phy.Table64QAM, nil))
		u.SetCarrierAggregation(false)
		u.SetDefaultHandler(&netsim.Sink{Pool: netsim.PoolOf(eng)})
		u.Start()
		return u
	}
	u1, u2, u3 := mk(1, 61), mk(2, 62), mk(3, 63)
	c1 := netsim.NewCrossTraffic(eng, u1, 60e6, 1)
	c2 := netsim.NewCrossTraffic(eng, u2, 60e6, 2)
	c3 := netsim.NewCrossTraffic(eng, u3, 10e6, 3) // rate-limited user
	eng.At(0, c1.Start)
	eng.At(0, c3.Start)
	eng.At(300*time.Millisecond, c2.Start)
	eng.At(600*time.Millisecond, c2.Stop)
	eng.RunUntil(time.Second)
	t := &Table{ID: "fig5", Title: "PRBs per user as flows start/stop (user2 active 0.3-0.6s)",
		Header: []string{"subframe", "user1", "user2", "user3", "idle"}, Rows: rows}
	t.Notes = append(t.Notes, "user3's offered load is limited; others absorb freed PRBs")
	return []Table{*t}
}

// Figure6a measures retransmission overhead and protocol overhead versus
// offered load at two signal strengths.
func Figure6a(quick bool) []Table {
	t := &Table{ID: "fig6a", Title: "Capacity overheads vs offered load",
		Header: []string{"rssi(dBm)", "load(Mbit/s)", "retx(%)", "protocol(%)"}}
	loads := []float64{5, 10, 20, 30, 40}
	if quick {
		loads = []float64{10, 40}
	}
	for _, rssi := range []float64{-98, -113} {
		for _, load := range loads {
			eng := sim.New(int64(60 + int(load)))
			cell := lte.NewCell(eng, 1, 100, phy.Table64QAM, nil)
			ue := lte.NewUE(eng, 1, 61)
			ue.AddCell(cell, phy.NewStaticChannel(rssi, phy.Table64QAM, nil))
			ue.SetCarrierAggregation(false)
			ue.SetDefaultHandler(&netsim.Sink{Pool: netsim.PoolOf(eng)})
			ue.Start()
			src := netsim.NewCrossTraffic(eng, ue, load*1e6, 1)
			src.Start()
			eng.RunUntil(3 * time.Second)
			total := cell.DataPRBs + cell.RetxPRBs
			retx := 0.0
			if total > 0 {
				retx = 100 * float64(cell.RetxPRBs) / float64(total)
			}
			t.Rows = append(t.Rows, []string{f1(rssi), f1(load), f2(retx),
				f2(100 * phy.ProtocolOverhead)})
		}
	}
	t.Notes = append(t.Notes, "retransmission overhead grows with load (larger TBs); protocol overhead constant 6.8%")
	return []Table{*t}
}

// Figure6b tabulates the transport-block error model against its BER fits.
func Figure6b(quick bool) []Table {
	t := &Table{ID: "fig6b", Title: "TB error rate vs size, 1-(1-p)^L",
		Header: []string{"TB size(kbit)", "p=1e-6", "p=2e-6", "p=3e-6", "p=5e-6"}}
	for _, kbit := range []int{10, 20, 30, 40, 50, 60, 70} {
		row := []string{fmt.Sprint(kbit)}
		for _, p := range []float64{1e-6, 2e-6, 3e-6, 5e-6} {
			row = append(row, f2(phy.TBErrorRate(p, kbit*1000)))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{*t}
}

// Figure7 measures the detected-user population on a busy cell and the
// effect of PBE-CC's Ta/Pa filter.
func Figure7(quick bool) []Table {
	dur := 20 * time.Second
	if quick {
		dur = 5 * time.Second
	}
	eng := sim.New(7)
	cell := lte.NewCell(eng, 1, 100, phy.Table64QAM, trace.Busy())
	mon := core.NewMonitor(61)
	mon.AttachCell(core.CellInfo{ID: 1, Rate: func() float64 { return 400 }})
	cell.AttachMonitor(mon.OnSubframe)
	var raw, filtered stats.Series
	cell.AttachMonitor(func(rep *ran.SubframeReport) {
		if rep.Subframe%40 != 0 {
			return
		}
		raw.Add(float64(mon.DetectedUsers(1)))
		filtered.Add(float64(mon.ActiveUsers(1)))
	})
	eng.RunUntil(dur)

	t := &Table{ID: "fig7", Title: "Active users per 40 ms window, raw vs filtered (Ta>1, Pa>4)",
		Header: []string{"percentile", "all users", "after filter"}}
	for _, p := range []float64{10, 25, 50, 75, 90, 100} {
		t.Rows = append(t.Rows, []string{f1(p), f1(raw.Percentile(p)), f1(filtered.Percentile(p))})
	}
	t.Rows = append(t.Rows, []string{"mean", f2(raw.Mean()), f2(filtered.Mean())})
	t.Notes = append(t.Notes, "paper: mean 15.8 raw (max 28), 1.3 after filtering")
	return []Table{*t}
}

// Figure8 measures the one-way delay distribution under rising fixed loads
// at -98 dBm: more load, larger TBs, more 8 ms HARQ steps.
func Figure8(quick bool) []Table {
	t := &Table{ID: "fig8", Title: "One-way delay vs offered load (8 ms HARQ steps)",
		Header: []string{"load(Mbit/s)", "min(ms)", "median(ms)", "p95(ms)", ">=8ms late(%)"}}
	for _, load := range []float64{6, 24, 36} {
		eng := sim.New(int64(80 + int(load)))
		cell := lte.NewCell(eng, 1, 100, phy.Table64QAM, nil)
		ue := lte.NewUE(eng, 1, 61)
		ue.AddCell(cell, phy.NewStaticChannel(-98, phy.Table64QAM, nil))
		ue.SetCarrierAggregation(false)
		var d stats.DurationSeries
		late := 0
		total := 0
		ue.SetDefaultHandler(netsim.HandlerFunc(func(now time.Duration, p *netsim.Packet) {
			owd := now - p.SentAt
			d.AddDuration(owd)
			total++
			if owd >= 10*time.Millisecond {
				late++
			}
		}))
		ue.Start()
		src := netsim.NewCrossTraffic(eng, ue, load*1e6, 1)
		src.Start()
		eng.RunUntil(3 * time.Second)
		frac := 0.0
		if total > 0 {
			frac = 100 * float64(late) / float64(total)
		}
		t.Rows = append(t.Rows, []string{f1(load), f2(d.Min()),
			f2(d.Percentile(50)), f2(d.Percentile(95)), f2(frac)})
	}
	t.Notes = append(t.Notes, "minimum delay stays at propagation; the delayed fraction grows with load")
	return []Table{*t}
}

// Figure9 prints BBR's ProbeBW gain cycle (validated in the bbr tests).
func Figure9(quick bool) []Table {
	t := &Table{ID: "fig9", Title: "BBR ProbeBW pacing-gain cycle (one RTprop per phase)",
		Header: []string{"phase", "gain"}}
	gains := []float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}
	for i, g := range gains {
		t.Rows = append(t.Rows, []string{fmt.Sprint(i + 1), f2(g)})
	}
	return []Table{*t}
}

// Figure11 reports the cell-status micro-benchmark: diurnal user counts
// and the physical-rate population.
func Figure11(quick bool) []Table {
	users := Table{ID: "fig11a", Title: "Distinct users per hour of day",
		Header: []string{"hour", "20MHz cell", "10MHz cell"}}
	for h := 0; h < 24; h++ {
		users.Rows = append(users.Rows, []string{fmt.Sprint(h),
			fmt.Sprint(trace.DiurnalUsers(100, h)), fmt.Sprint(trace.DiurnalUsers(50, h))})
	}
	users.Notes = append(users.Notes, "paper: peak 233/135, 12-20h averages 181/97, 10MHz off 0-3h")

	rates := Table{ID: "fig11b", Title: "CDF of user physical data rate (Mbit/s/PRB)",
		Header: []string{"percentile", "rate"}}
	eng := sim.New(11)
	var s stats.Series
	for i := 0; i < 20000; i++ {
		s.Add(trace.SampleUserRate(eng.Rand()))
	}
	for _, p := range []float64{10, 25, 50, 71.9, 77.4, 90, 100} {
		rates.Rows = append(rates.Rows, []string{f1(p), f2(s.Percentile(p))})
	}
	rates.Notes = append(rates.Notes, "paper: 71.9-77.4% of users below 0.9 (half of the 1.8 max)")
	return []Table{users, rates}
}

// Figure12 compares the four high-throughput schemes across the location
// grid: distribution of average throughput and 95th-percentile delay.
func Figure12(quick bool) []Table {
	schemes := []string{"pbe", "bbr", "cubic", "verus"}
	res := byScheme(points(gridSpec("fig12", schemes, 1, quick)))
	header := append([]string{"percentile"}, schemes...)
	tput := Table{ID: "fig12a", Title: "Average throughput across locations (Mbit/s)", Header: header}
	delay := Table{ID: "fig12b", Title: "95th-percentile delay across locations (ms)", Header: header}
	for _, p := range []float64{10, 25, 50, 75, 90} {
		rowT := []string{f1(p)}
		rowD := []string{f1(p)}
		for _, s := range schemes {
			var ts, ds stats.Series
			for _, g := range res[s] {
				ts.Add(g.tput)
				ds.Add(g.p95)
			}
			rowT = append(rowT, f1(ts.Percentile(p)))
			rowD = append(rowD, f1(ds.Percentile(p)))
		}
		tput.Rows = append(tput.Rows, rowT)
		delay.Rows = append(delay.Rows, rowD)
	}
	tput.Notes = append(tput.Notes, "paper Fig 12: PBE highest throughput at most locations")
	delay.Notes = append(delay.Notes, "paper Fig 12: PBE delay CDF far left of BBR/Verus")
	return []Table{tput, delay}
}

// orderStatsAt runs all ten schemes at a set of locations and reports
// the 10/25/50/75/90th percentiles of windowed throughput and delay.
func orderStatsAt(id, title string, locs []harness.Location, quick bool) []Table {
	dur := quickOr(quick, 2*time.Second, 5*time.Second)
	var out []Table
	for _, loc := range locs {
		out = append(out, Table{ID: id, Title: fmt.Sprintf("%s @ %s", title, loc.Name),
			Header: []string{"scheme", "tput p10/p25/p50/p75/p90 (Mbit/s)", "delay p10/p25/p50/p75/p90 (ms)"},
			Rows: eachScheme(harness.Schemes,
				func(s string) *harness.Scenario { return harness.LocationScenario(loc, s, dur) },
				func(s string, r *harness.Result) []string {
					f := r.Flows[0]
					return []string{s, pct5(f.Tput), pct5(f.Delay)}
				})})
	}
	return out
}

func pct5(s stats.Dist) string {
	return fmt.Sprintf("%.1f/%.1f/%.1f/%.1f/%.1f",
		s.Percentile(10), s.Percentile(25), s.Percentile(50),
		s.Percentile(75), s.Percentile(90))
}

// Figure13 details the four indoor representative locations.
func Figure13(quick bool) []Table {
	locs := harness.RepresentativeLocations()[:4]
	if quick {
		locs = locs[:1]
	}
	return orderStatsAt("fig13", "indoor order statistics", locs, quick)
}

// Figure14 details the two outdoor representative locations.
func Figure14(quick bool) []Table {
	locs := harness.RepresentativeLocations()[4:]
	if quick {
		locs = locs[:1]
	}
	return orderStatsAt("fig14", "outdoor order statistics", locs, quick)
}

// Figure15 counts at how many CA-capable locations each scheme causes the
// network to activate a secondary carrier.
func Figure15(quick bool) []Table {
	res := byScheme(points(gridSpec("fig15", harness.Schemes, 2, quick)))
	of := len(res["pbe"])
	t := &Table{ID: "fig15", Title: fmt.Sprintf("CA triggered at N of %d locations", of),
		Header: []string{"scheme", "triggered", "of"}}
	for _, s := range harness.Schemes {
		n := 0
		for _, p := range res[s] {
			if p.ca {
				n++
			}
		}
		t.Rows = append(t.Rows, []string{s, fmt.Sprint(n), fmt.Sprint(of)})
	}
	t.Notes = append(t.Notes, "paper Fig 15: PBE/BBR/Verus/CUBIC trigger CA almost everywhere; Copa/PCC/Vivace/Sprout rarely")
	return []Table{*t}
}

// Figure16 tabulates the mobility trajectory (-85 -> -105 -> -85 dBm) for
// all ten schemes.
func Figure16(quick bool) []Table {
	t := &Table{ID: "fig16", Title: "Mobility: average throughput and delay",
		Header: []string{"scheme", "avg tput(Mbit/s)", "median delay(ms)", "p95 delay(ms)"}}
	for _, p := range points(schemeSpec("fig16", "mobility", harness.RATLTE, harness.Schemes, 16, quickOr(quick, 8*time.Second, 40*time.Second))) {
		t.Rows = append(t.Rows, []string{p.job.Scheme, f1(p.tput), f1(p.p50), f1(p.p95)})
	}
	t.Notes = append(t.Notes, "paper: PBE 55 Mbit/s at p95 64 ms; BBR similar rate at 156 ms")
	return []Table{*t}
}

// Figure17 compares PBE-CC and BBR per two-second interval along the
// trajectory.
func Figure17(quick bool) []Table {
	dur := quickOr(quick, 10*time.Second, 40*time.Second)
	step := 2 * time.Second
	tl := eachScheme([]string{"pbe", "bbr"},
		func(s string) *harness.Scenario { return harness.MobilityScenario(s, harness.Params{Duration: dur}) },
		func(_ string, r *harness.Result) []float64 { return windowAvgs(r.Flows[0], 0, dur, step) })
	t := &Table{ID: "fig17", Title: "Mobility timeline (2 s means)",
		Header: []string{"t(s)", "pbe tput", "bbr tput"}}
	for k := range tl[0] {
		from := time.Duration(k) * step
		t.Rows = append(t.Rows, []string{f0(from.Seconds()), f1(tl[0][k]), f1(tl[1][k])})
	}
	t.Notes = append(t.Notes, "paper Fig 17: PBE tracks the dip without queue buildup; BBR overshoots on recovery")
	return []Table{*t}
}

// Figure18 tabulates all schemes against the controlled on-off competitor.
func Figure18(quick bool) []Table {
	t := &Table{ID: "fig18", Title: "Controlled competition: throughput and delay",
		Header: []string{"scheme", "avg tput(Mbit/s)", "avg delay(ms)", "p95 delay(ms)"}}
	for _, p := range points(schemeSpec("fig18", "competition", harness.RATLTE, harness.Schemes, 18, quickOr(quick, 8*time.Second, 40*time.Second))) {
		t.Rows = append(t.Rows, []string{p.job.Scheme, f1(p.tput), f1(p.avgDelay), f1(p.p95)})
	}
	t.Notes = append(t.Notes, "paper: PBE 57 Mbit/s at 61/71 ms vs BBR 62 Mbit/s at 147/227 ms")
	return []Table{*t}
}

// Figure19 prints the PBE/BBR reaction timeline around competitor on-off
// events.
func Figure19(quick bool) []Table {
	dur := quickOr(quick, 12*time.Second, 24*time.Second)
	from, step := 3*time.Second, 500*time.Millisecond
	tl := eachScheme([]string{"pbe", "bbr"},
		func(s string) *harness.Scenario { return harness.CompetitionScenario(s, harness.Params{Duration: dur}) },
		func(_ string, r *harness.Result) []float64 {
			return windowAvgs(r.Flows[0], from, min(dur, 16*time.Second), step)
		})
	t := &Table{ID: "fig19", Title: "Competition timeline (500 ms averages)",
		Header: []string{"t(s)", "pbe tput", "bbr tput", "competitor"}}
	for k := range tl[0] {
		at := from + time.Duration(k)*step
		comp := "off"
		phase := (at - 4*time.Second) % (8 * time.Second)
		if at >= 4*time.Second && phase < 4*time.Second {
			comp = "ON"
		}
		t.Rows = append(t.Rows, []string{f1(at.Seconds()), f1(tl[0][k]), f1(tl[1][k]), comp})
	}
	return []Table{*t}
}

// Figure20 runs two concurrent connections from one device per scheme.
func Figure20(quick bool) []Table {
	dur := quickOr(quick, 5*time.Second, 20*time.Second)
	t := &Table{ID: "fig20", Title: "Two concurrent flows, one device",
		Header: []string{"scheme", "flow1 tput", "flow2 tput", "flow1 p50 delay", "flow2 p50 delay", "jain"},
		Rows: eachScheme(harness.Schemes,
			func(s string) *harness.Scenario { return harness.MultiflowScenario(s, harness.Params{Duration: dur}) },
			func(s string, r *harness.Result) []string {
				a, b := r.Flows[0], r.Flows[1]
				return []string{s, f1(a.AvgTputMbps), f1(b.AvgTputMbps),
					f1(a.Delay.Percentile(50)), f1(b.Delay.Percentile(50)),
					f2(stats.Jain([]float64{a.AvgTputMbps, b.AvgTputMbps}))}
			})}
	t.Notes = append(t.Notes, "paper: PBE 26/28 Mbit/s with 48/56 ms; BBR unbalanced 10/35")
	return []Table{*t}
}

// fairnessScenario builds the §6.4 experiments: three flows staggered
// 0/10/20 s to 60/50/40 s on a shared primary cell.
func fairnessScenario(schemes [3]string, rtts [3]time.Duration, dur time.Duration) *harness.Scenario {
	scale := dur.Seconds() / 60
	at := func(sec float64) time.Duration {
		return time.Duration(sec * scale * float64(time.Second))
	}
	return &harness.Scenario{
		Seed: 21, Duration: dur,
		Cells: []harness.CellSpec{{ID: 1, Control: trace.Idle()}},
		UEs: []harness.UESpec{
			{ID: 1, RNTI: 61, CellIDs: []int{1}, RSSI: -90},
			{ID: 2, RNTI: 62, CellIDs: []int{1}, RSSI: -90},
			{ID: 3, RNTI: 63, CellIDs: []int{1}, RSSI: -90},
		},
		Flows: []harness.FlowSpec{
			{ID: 1, UE: 1, Scheme: schemes[0], Start: 0, Stop: at(60), RTTBase: rtts[0]},
			{ID: 2, UE: 2, Scheme: schemes[1], Start: at(10), Stop: at(50), RTTBase: rtts[1]},
			{ID: 3, UE: 3, Scheme: schemes[2], Start: at(20), Stop: at(40), RTTBase: rtts[2]},
		},
		PRBSampleEvery: 250 * time.Millisecond,
	}
}

// fairnessTable runs a fairness scenario and reports PRB shares plus Jain
// indices over the two- and three-flow phases.
func fairnessTable(id, title string, schemes [3]string, rtts [3]time.Duration, quick bool) []Table {
	dur := quickOr(quick, 12*time.Second, 30*time.Second)
	sc := fairnessScenario(schemes, rtts, dur)
	return sweep.Pool(1, 0, nil, func(int) *harness.Scenario { return sc },
		func(_ int, sc *harness.Scenario, r *harness.Result) []Table {
			t := &Table{ID: id, Title: title,
				Header: []string{"t(s)", "ue1 PRBs", "ue2 PRBs", "ue3 PRBs"}}
			for i, tm := range r.PRBTimes {
				if i%4 != 0 {
					continue
				}
				t.Rows = append(t.Rows, []string{
					f1(tm.Seconds()),
					f1(r.PRBSamples[1][i]), f1(r.PRBSamples[2][i]), f1(r.PRBSamples[3][i])})
			}
			// Jain over the three-flow phase [after flow3 start, before flow3 stop].
			start3 := sc.Flows[2].Start + dur/10
			stop3 := sc.Flows[2].Stop - dur/30
			var shares3 []float64
			for ue := 1; ue <= 3; ue++ {
				var sum float64
				n := 0
				for i, tm := range r.PRBTimes {
					if tm >= start3 && tm < stop3 {
						sum += r.PRBSamples[ue][i]
						n++
					}
				}
				if n > 0 {
					shares3 = append(shares3, sum/float64(n))
				}
			}
			t.Notes = append(t.Notes,
				fmt.Sprintf("Jain index over 3-flow phase: %.4f (paper: 0.98-0.9997)", stats.Jain(shares3)))
			return []Table{*t}
		})[0]
}

// Figure21a: three PBE flows with similar RTTs.
func Figure21a(quick bool) []Table {
	return fairnessTable("fig21a", "Multi-user fairness: three PBE flows",
		[3]string{"pbe", "pbe", "pbe"},
		[3]time.Duration{52 * time.Millisecond, 64 * time.Millisecond, 56 * time.Millisecond}, quick)
}

// Figure21b: three PBE flows with very different RTTs (Singapore server).
func Figure21b(quick bool) []Table {
	return fairnessTable("fig21b", "RTT fairness: 52/297/64 ms PBE flows",
		[3]string{"pbe", "pbe", "pbe"},
		[3]time.Duration{52 * time.Millisecond, 297 * time.Millisecond, 64 * time.Millisecond}, quick)
}

// Figure21c: two PBE flows sharing with one BBR flow.
func Figure21c(quick bool) []Table {
	return fairnessTable("fig21c", "TCP friendliness: PBE + PBE + BBR",
		[3]string{"pbe", "bbr", "pbe"},
		[3]time.Duration{52 * time.Millisecond, 56 * time.Millisecond, 64 * time.Millisecond}, quick)
}

// Figure21d: two PBE flows sharing with one CUBIC flow.
func Figure21d(quick bool) []Table {
	return fairnessTable("fig21d", "TCP friendliness: PBE + PBE + CUBIC",
		[3]string{"pbe", "cubic", "pbe"},
		[3]time.Duration{52 * time.Millisecond, 56 * time.Millisecond, 64 * time.Millisecond}, quick)
}

// Ablations quantifies the design choices DESIGN.md calls out.
func Ablations(quick bool) []Table {
	dur := quickOr(quick, 3*time.Second, 6*time.Second)
	loc := harness.Location{Index: 200, Name: "ablation", Indoor: true, CCs: 1, Busy: true, RSSI: -91}
	type variant struct {
		name string
		set  func(*harness.Scenario)
	}
	variants := []variant{
		{"baseline", func(*harness.Scenario) {}},
		{"no Ta/Pa filter", func(sc *harness.Scenario) { sc.DisableUserFilter = true }},
	}
	if !quick {
		variants = append(variants, variant{"bit-level PDCCH decode", func(sc *harness.Scenario) { sc.MonitorDecodesPDCCH = true }})
	}
	variants = append(variants, variant{"misreport guard 2x", func(sc *harness.Scenario) { sc.MisreportGuard = 2 }})
	t := &Table{ID: "ablation", Title: "PBE-CC design ablations",
		Header: []string{"variant", "avg tput(Mbit/s)", "p95 delay(ms)"},
		Rows: sweep.Pool(len(variants), 0, nil,
			func(i int) *harness.Scenario {
				sc := harness.LocationScenario(loc, "pbe", dur)
				variants[i].set(sc)
				return sc
			},
			func(i int, _ *harness.Scenario, r *harness.Result) []string {
				f := r.Flows[0]
				return []string{variants[i].name, f1(f.AvgTputMbps), f1(f.Delay.Percentile(95))}
			})}
	t.Notes = append(t.Notes,
		"without the filter, inflated N shrinks the fair share on busy cells",
		"the bit-level row (full runs only) prices blind decoding against the oracle feed; its gap is unexplained (ROADMAP \"Decode in the loop\")")
	return []Table{*t}
}
