package nr

import (
	"testing"
	"time"

	"pbecc/internal/phy"
	"pbecc/internal/ran"
	"pbecc/internal/sim"
)

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
		MCS:  phy.MCS{CQI: 11, Table: phy.Table256QAM, Streams: 1},
		Bits: s.bits,
	}}
}

func (s *stubBG) Serve(i int, bits int) { s.served += bits }

// TestBackgroundAppearsInNRReports: a virtual background user on an NR
// cell gets PRB-granular data grants every slot, visible on the control
// channel under its own RNTI, with the grant served through Serve.
func TestBackgroundAppearsInNRReports(t *testing.T) {
	eng := sim.New(1)
	cell := NewCell(eng, Config{ID: 1, Mu: 1, BandwidthMHz: 100})
	bg := &stubBG{bits: 1 << 30}
	cell.SetBackground(bg)
	bgPRBs, bgAllocs := 0, 0
	cell.AttachMonitor(func(rep *ran.SubframeReport) {
		for _, a := range rep.Allocs {
			if a.RNTI != 900 {
				continue
			}
			bgAllocs++
			bgPRBs += a.PRBs
			if !a.NDI || a.Control {
				t.Fatalf("background alloc must look like a fresh data grant: %+v", a)
			}
		}
	})
	eng.RunUntil(20 * time.Millisecond)
	// µ=1: two slots per subframe, 273 PRBs per slot, sole user.
	slots := 20 * cell.SlotsPerSubframe()
	if bgAllocs != slots || bgPRBs != slots*cell.NPRB {
		t.Fatalf("background got %d allocs / %d PRBs in %d slots, want %d / %d",
			bgAllocs, bgPRBs, slots, slots, slots*cell.NPRB)
	}
	if cell.FluidPRBs != uint64(bgPRBs) {
		t.Fatalf("FluidPRBs = %d, want %d", cell.FluidPRBs, bgPRBs)
	}
	if bg.served <= 0 {
		t.Fatal("Serve was never called")
	}
}
