package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pbecc/internal/phy"
	"pbecc/internal/ran"
)

// TestMonitorMemoIsExact drives a monitor with random report streams on
// three cells (one NR cell with CBG retransmission and two slots per
// subframe) while the live Rate and BER callbacks change between reports
// and between the two queries, UseFilter flips, and cells detach and
// re-attach. After every step CapacityBits and FairShareBits must equal,
// bit for bit, an uncached recomputation: N counted afresh and Eqn 5
// solved with phy.TransportFromPhysical or TransportFromPhysicalCBG at the
// callbacks' current values.
func TestMonitorMemoIsExact(t *testing.T) {
	infos := []CellInfo{
		{ID: 1, NPRB: 100},
		{ID: 2, NPRB: 50, SlotsPerSubframe: 2, CBGBits: 8448},
		{ID: 3, NPRB: 25},
	}
	// Few distinct values, so queries often repeat their inputs exactly
	// (memo hits) and often do not.
	rateVals := []float64{0, 150, 400, 400, 650}
	berVals := []float64{0, 1e-6, 1e-6, 2e-5, 3e-4}
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		rate := map[int]float64{}
		ber := map[int]float64{}
		m := NewMonitor(61)
		attach := func(info CellInfo) {
			id := info.ID
			info.Rate = func() float64 { return rate[id] }
			info.BER = func() float64 { return ber[id] }
			m.AttachCell(info)
		}
		for _, info := range infos {
			rate[info.ID], ber[info.ID] = 400, 1e-6
			attach(info)
		}
		poke := func() {
			id := infos[r.Intn(len(infos))].ID
			if r.Intn(2) == 0 {
				rate[id] = rateVals[r.Intn(len(rateVals))]
			} else {
				ber[id] = berVals[r.Intn(len(berVals))]
			}
		}
		for step := 0; step < 600; step++ {
			switch k := r.Intn(20); {
			case k < 12:
				// A run of slots, so windows fill and evict between the
				// re-attaches below.
				info := infos[r.Intn(len(infos))]
				for n := 1 + r.Intn(Window); n > 0; n-- {
					m.OnSubframe(randomReport(r, info))
				}
			case k < 16:
				poke()
			case k < 17:
				m.UseFilter = !m.UseFilter
			case k < 19:
				info := infos[r.Intn(len(infos))]
				if m.track(info.ID) != nil && r.Intn(2) == 0 {
					m.DetachCell(info.ID)
				} else {
					attach(info)
				}
			}
			where := fmt.Sprintf("seed %d step %d", seed, step)
			wantCap, _ := uncachedTotals(m, ber)
			if got := m.CapacityBits(); math.Float64bits(got) != math.Float64bits(wantCap) {
				t.Fatalf("%s: CapacityBits = %v, uncached %v", where, got, wantCap)
			}
			if r.Intn(3) == 0 {
				poke()
			}
			_, wantFair := uncachedTotals(m, ber)
			if got := m.FairShareBits(); math.Float64bits(got) != math.Float64bits(wantFair) {
				t.Fatalf("%s: FairShareBits = %v, uncached %v", where, got, wantFair)
			}
		}
	}
}

// randomReport draws one slot of a cell: a few grants to self (RNTI 61)
// and to competitors, some of them control-sized, never more PRBs than
// the cell has.
func randomReport(r *rand.Rand, info CellInfo) *ran.SubframeReport {
	rep := &ran.SubframeReport{CellID: info.ID, NPRB: info.NPRB}
	free := info.NPRB
	for n := r.Intn(5); n > 0 && free > 0; n-- {
		prbs := 1 + r.Intn(free)
		if r.Intn(3) == 0 {
			prbs = min(free, 1+r.Intn(4))
		}
		free -= prbs
		rnti := uint16(61)
		if r.Intn(3) > 0 {
			rnti = uint16(100 + r.Intn(6))
		}
		rep.Allocs = append(rep.Allocs, ran.Alloc{RNTI: rnti, PRBs: prbs,
			MCS: phy.MCS{CQI: 1 + r.Intn(15), Table: phy.Table64QAM, Streams: 1 + r.Intn(2)}})
	}
	return rep
}

// uncachedTotals recomputes the pre-noise Eqn 3 and Eqn 2 totals in
// transport bits per millisecond without any cache: N is counted afresh
// and Eqn 5 solved at the live BER.
func uncachedTotals(m *Monitor, ber map[int]float64) (capacity, fair float64) {
	for _, ct := range m.tracks {
		n := float64(ct.countUsers(m.UseFilter))
		cp := 0.0
		if ct.fill > 0 {
			w := float64(ct.fill)
			cp = ct.rw() * (float64(ct.sumMyPRBs)/w + float64(ct.sumIdlePRBs)/w/n)
		}
		cf := ct.rw() * float64(ct.info.NPRB) / n
		spf := float64(ct.spf)
		b := ber[ct.info.ID]
		if ct.info.CBGBits > 0 {
			capacity += phy.TransportFromPhysicalCBG(cp*spf, b, ct.info.CBGBits)
			fair += phy.TransportFromPhysicalCBG(cf*spf, b, ct.info.CBGBits)
		} else {
			capacity += phy.TransportFromPhysical(cp*spf, b)
			fair += phy.TransportFromPhysical(cf*spf, b)
		}
	}
	return capacity, fair
}
