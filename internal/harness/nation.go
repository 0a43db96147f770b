package harness

import (
	"time"
)

// The nation family is the million-user workload the fluid tier exists
// for: a small metro-style packet foreground (the measured flow, its
// competitors, RTC calls, an SFU fan-out and fluid background on every
// real cell) riding on top of a modeled-only population of 64k fluid
// cells and over a million background users. Modeled cells never
// instantiate a scheduler or tick per slot - Run accounts their aggregate
// rate envelopes, one per monitor window, on one goroutine beside the
// shards, with no event at all - so the event volume still scales with
// the packet foreground and a nation run fits the CI smoke budget.
const (
	// NationModeledCells x NationModeledUsersPerCell is the modeled-only
	// population: 65536 cells, 1,048,576 users.
	NationModeledCells        = 1 << 16
	NationModeledUsersPerCell = 16

	nationDefaultCells = 4 // packet-foreground cells (Params.Cells axis)
)

// NationScenario builds the nation scenario. Params.Cells sizes the
// packet foreground (default 4 cells, 64 UEs); the modeled tier is fixed
// at NationModeledCells regardless, so every nation run models >=64k
// cells total. FluidBackground is forced on: a nation without the fluid
// tier would be a mislabeled metro.
func NationScenario(scheme string, p Params) *Scenario {
	fg := p
	fg.FluidBackground = true
	fg.Cells = p.cellCount(nationDefaultCells)
	fg.Duration = p.dur(1 * time.Second)
	if fg.Seed == 0 {
		fg.Seed = 52525
	}
	sc := MetroScenario(scheme, fg)
	if sc.Fluid == nil {
		sc.Fluid = &FluidSpec{}
	}
	sc.Fluid.ModeledCells = NationModeledCells
	sc.Fluid.ModeledUsersPerCell = NationModeledUsersPerCell
	return sc
}
