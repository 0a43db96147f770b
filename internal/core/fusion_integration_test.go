package core_test

import (
	"testing"
	"time"

	"pbecc/internal/core"
	"pbecc/internal/lte"
	"pbecc/internal/netsim"
	"pbecc/internal/pdcch"
	"pbecc/internal/phy"
	"pbecc/internal/ran"
	"pbecc/internal/sim"
)

// TestFullDecodePipelineWithFusion exercises the complete receive chain
// of the paper's Figure 10(a): two cells each encode their subframe's
// DCIs onto a PDCCH region; per-cell blind decoders recover the messages;
// and one capacity monitor consumes both cells' decoded streams. The
// monitor is the message-fusion stage: it keeps one window per cell and
// sums them per query, so the per-cell streams need no alignment before
// it. The capacity estimate must match a monitor fed directly from
// scheduler structs.
func TestFullDecodePipelineWithFusion(t *testing.T) {
	eng := sim.New(77)
	cellA := lte.NewCell(eng, 1, 100, phy.Table64QAM, nil)
	cellB := lte.NewCell(eng, 2, 50, phy.Table64QAM, nil)

	ue := lte.NewUE(eng, 1, 61)
	chA := phy.NewStaticChannel(-91, phy.Table64QAM, nil)
	chB := phy.NewStaticChannel(-95, phy.Table64QAM, nil)
	ue.AddCell(cellA, chA)
	ue.AddCell(cellB, chB)
	ue.SetCarrierAggregation(false)
	ue.SetDefaultHandler(&netsim.Sink{})
	ue.Start()

	mkMon := func() *core.Monitor {
		m := core.NewMonitor(61)
		m.AttachCell(core.CellInfo{ID: 1, NPRB: 100,
			Rate: func() float64 { return chA.MCS().BitsPerPRB() },
			BER:  func() float64 { return chA.BER() }})
		m.AttachCell(core.CellInfo{ID: 2, NPRB: 50,
			Rate: func() float64 { return chB.MCS().BitsPerPRB() },
			BER:  func() float64 { return chB.BER() }})
		return m
	}
	oracle := mkMon()
	decoded := mkMon()

	feed := func(cell *ran.Cell) ran.Monitor {
		dec := pdcch.NewDecoder(0)
		return func(rep *ran.SubframeReport) {
			oracle.OnSubframe(rep)
			region := lte.EncodeReport(rep, 3)
			if region == nil {
				t.Errorf("cell %d subframe %d: control region overflow", rep.CellID, rep.Subframe)
				return
			}
			decoded.OnSubframe(lte.DecodeReport(region, rep.CellID, cell.Table, dec))
		}
	}
	cellA.AttachMonitor(feed(cellA))
	cellB.AttachMonitor(feed(cellB))

	// Load both cells through the UE dispatcher... the UE only uses the
	// primary when CA is off, so enqueue to cellB directly as well.
	src := netsim.NewCrossTraffic(eng, ue, 20e6, 1)
	src.Start()
	eng.Every(time.Millisecond, func() {
		cellB.Enqueue(61, &netsim.Packet{FlowID: 2, Seq: 0, Size: 1200, SentAt: eng.Now()})
	})
	eng.RunUntil(200 * time.Millisecond)

	co := oracle.CapacityBits()
	cd := decoded.CapacityBits()
	if co <= 0 {
		t.Fatal("oracle capacity is zero")
	}
	diff := (co - cd) / co
	if diff < 0 {
		diff = -diff
	}
	// Blind decoding may miss a DCI; the estimates must agree within 5%.
	if diff > 0.05 {
		t.Fatalf("capacity mismatch: oracle %.0f vs decoded %.0f (%.1f%%)", co, cd, 100*diff)
	}
}
