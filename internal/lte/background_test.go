package lte

import (
	"testing"
	"time"

	"pbecc/internal/phy"
	"pbecc/internal/ran"
	"pbecc/internal/sim"
)

// stubBG demands a fixed backlog every slot and records what the cell
// grants it.
type stubBG struct {
	bits   int
	served int
}

func (s *stubBG) Demand(now time.Duration) []ran.BackgroundDemand {
	if s.bits <= 0 {
		return nil
	}
	return []ran.BackgroundDemand{{
		RNTI: 900,
		MCS:  phy.MCS{CQI: 11, Table: phy.Table64QAM, Streams: 1},
		Bits: s.bits,
	}}
}

func (s *stubBG) Serve(i int, bits int) { s.served += bits }

// TestBackgroundAppearsInReports: a virtual background user must show up
// on the control channel exactly like a packet user - a data grant under
// its own RNTI and MCS - and be served through the Serve callback, with
// no packet ever delivered.
func TestBackgroundAppearsInReports(t *testing.T) {
	eng := sim.New(1)
	cell := NewCell(eng, 1, 100, phy.Table64QAM, nil)
	bg := &stubBG{bits: 1 << 30}
	cell.SetBackground(bg)
	bgPRBs, bgAllocs := 0, 0
	cell.AttachMonitor(func(rep *SubframeReport) {
		for _, a := range rep.Allocs {
			if a.RNTI != 900 {
				continue
			}
			bgAllocs++
			bgPRBs += a.PRBs
			if !a.NDI || a.Control {
				t.Fatalf("background alloc must look like a fresh data grant: %+v", a)
			}
			if a.TBBits <= 0 || a.PRBs <= 0 {
				t.Fatalf("empty background grant: %+v", a)
			}
		}
	})
	eng.RunUntil(40 * time.Millisecond)
	// Alone on the cell with unbounded demand: every subframe grants it
	// the full 100 PRBs.
	if bgAllocs != 40 || bgPRBs != 40*100 {
		t.Fatalf("background got %d allocs / %d PRBs in 40 subframes, want 40 / 4000", bgAllocs, bgPRBs)
	}
	if cell.FluidPRBs != uint64(bgPRBs) {
		t.Fatalf("FluidPRBs = %d, want %d", cell.FluidPRBs, bgPRBs)
	}
	if bg.served <= 0 {
		t.Fatal("Serve was never called")
	}
}

// TestBackgroundSharesWaterFill: a backlogged packet user and a
// backlogged virtual user split the cell like two packet users would.
func TestBackgroundSharesWaterFill(t *testing.T) {
	eng := sim.New(1)
	ue, cell, _ := newTestUE(eng, 100, -85)
	bg := &stubBG{bits: 1 << 30}
	cell.SetBackground(bg)
	fillQueue(ue, 10000)
	uePRBs, bgPRBs := 0, 0
	cell.AttachMonitor(func(rep *SubframeReport) {
		for _, a := range rep.Allocs {
			switch a.RNTI {
			case 61:
				uePRBs += a.PRBs
			case 900:
				bgPRBs += a.PRBs
			}
		}
	})
	eng.RunUntil(100 * time.Millisecond)
	if uePRBs == 0 || bgPRBs == 0 {
		t.Fatalf("starved: ue=%d bg=%d PRBs", uePRBs, bgPRBs)
	}
	ratio := float64(uePRBs) / float64(bgPRBs)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("PRB split ue/bg = %d/%d (ratio %.2f), want roughly even", uePRBs, bgPRBs, ratio)
	}
}
