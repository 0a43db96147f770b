package trace

import (
	"math/rand"
	"testing"
	"time"

	"pbecc/internal/ran"
)

// userRun is one control user as its grants show it: the subframes it was
// granted in a row and its RBGs.
type userRun struct{ dur, rbgs int }

// userRuns ticks c for n subframes and groups the grants into per-user
// runs. A grant whose RNTI was granted in the previous subframe continues
// that user's run; any other starts a new user, so an RNTI that reappears
// after the allocator wraps at 0xFFF0 counts again.
func userRuns(t *testing.T, c *ControlTraffic, rng *rand.Rand, n int) []userRun {
	var runs []userRun
	prev, cur := map[uint16]int{}, map[uint16]int{} // RNTI -> index in runs
	for sf := 0; sf < n; sf++ {
		clear(cur)
		for _, g := range c.Tick(sf, rng) {
			i, ok := prev[g.RNTI]
			if !ok {
				i = len(runs)
				runs = append(runs, userRun{rbgs: g.RBGs})
			} else if runs[i].rbgs != g.RBGs {
				t.Fatalf("RNTI %#x changed from %d to %d RBGs mid-run", g.RNTI, runs[i].rbgs, g.RBGs)
			}
			runs[i].dur++
			cur[g.RNTI] = i
		}
		prev, cur = cur, prev
	}
	return runs
}

func TestControlPopulationCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	runs := userRuns(t, Busy(), rng, 200000)
	if len(runs) < 60000 {
		t.Fatalf("only %d users spawned", len(runs))
	}
	one := 0
	for _, r := range runs {
		if r.dur == 1 {
			one++
		}
	}
	frac := float64(one) / float64(len(runs))
	// Figure 7(b): 68.2% of users are active for exactly one subframe.
	if frac < 0.65 || frac < 0.60 || frac > 0.72 {
		t.Fatalf("1-subframe fraction = %.3f, want ~0.682", frac)
	}
	fourPRB := 0
	for _, r := range runs {
		if r.rbgs == 1 {
			fourPRB++
		}
	}
	pfrac := float64(fourPRB) / float64(len(runs))
	// Figure 7(b): ~47.7% of users occupy exactly four PRBs (one RBG).
	if pfrac < 0.40 || pfrac > 0.56 {
		t.Fatalf("4-PRB fraction = %.3f, want ~0.48", pfrac)
	}
}

func TestBusyCellActiveUserWindow(t *testing.T) {
	// Distinct users inside a 40 ms window on the busy preset must be
	// around the paper's 15.8 average.
	rng := rand.New(rand.NewSource(2))
	c := Busy()
	var counts []int
	window := map[uint16]int{}
	var events [][]ran.ControlGrant
	for sf := 0; sf < 20000; sf++ {
		g := append([]ran.ControlGrant(nil), c.Tick(sf, rng)...) // Tick reuses its slice
		events = append(events, g)
		for _, u := range g {
			window[u.RNTI]++
		}
		if len(events) > 40 {
			for _, u := range events[len(events)-41] {
				window[u.RNTI]--
				if window[u.RNTI] == 0 {
					delete(window, u.RNTI)
				}
			}
		}
		if sf >= 40 && sf%40 == 0 {
			counts = append(counts, len(window))
		}
	}
	var sum float64
	for _, n := range counts {
		sum += float64(n)
	}
	avg := sum / float64(len(counts))
	if avg < 11 || avg > 21 {
		t.Fatalf("avg users per 40ms window = %.1f, want ~15.8", avg)
	}
}

func TestIdlePresetNearlyQuiet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := Idle()
	grants := 0
	for sf := 0; sf < 10000; sf++ {
		grants += len(c.Tick(sf, rng))
	}
	if grants > 1500 {
		t.Fatalf("idle cell produced %d grants in 10s", grants)
	}
}

func TestLongUsersFilterable(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, r := range userRuns(t, Busy(), rng, 50000) {
		if r.dur > 1 && r.rbgs != 1 {
			t.Fatal("long-lived control user with >1 RBG would evade the Pa filter")
		}
		if r.dur > longUserMaxDur {
			t.Fatalf("duration %d beyond cap", r.dur)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sum int
	n := 100000
	for i := 0; i < n; i++ {
		sum += poisson(rng, 0.37)
	}
	mean := float64(sum) / float64(n)
	if mean < 0.35 || mean > 0.39 {
		t.Fatalf("poisson mean = %.3f, want 0.37", mean)
	}
	if poisson(rng, 0) != 0 {
		t.Fatal("lambda 0 must give 0")
	}
}

func TestGeometricMean(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var sum int
	n := 100000
	for i := 0; i < n; i++ {
		sum += geometric(rng, 0.125)
	}
	mean := float64(sum) / float64(n)
	if mean < 6 || mean > 8.5 {
		t.Fatalf("geometric mean = %.2f, want ~7", mean)
	}
}

func TestDiurnalShape(t *testing.T) {
	// Peak hours dwarf night hours; the 10 MHz cell is off 1-3 am.
	if DiurnalUsers(100, 14) < 200 {
		t.Fatal("20 MHz peak too low")
	}
	if DiurnalUsers(100, 3) > 20 {
		t.Fatal("20 MHz night too high")
	}
	for h := 1; h <= 3; h++ {
		if DiurnalUsers(50, h) != 0 {
			t.Fatalf("10 MHz cell must be off at %dh", h)
		}
	}
	if DiurnalUsers(50, 14) < 100 {
		t.Fatal("10 MHz peak too low")
	}
	// Wrap-around hours.
	if DiurnalUsers(100, 26) != DiurnalUsers(100, 2) {
		t.Fatal("hour wrap broken")
	}
}

func TestRatePopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	below := 0
	n := 100000
	for i := 0; i < n; i++ {
		r := SampleUserRate(rng)
		if r <= 0 || r > 1.8 {
			t.Fatalf("rate %v out of range", r)
		}
		if r < 0.9 {
			below++
		}
	}
	frac := float64(below) / float64(n)
	// Figure 11(b): 71.9-77.4% of users below half the maximum.
	if frac < 0.68 || frac > 0.80 {
		t.Fatalf("below-half fraction = %.3f, want ~0.74", frac)
	}
}

func TestSessionOnOff(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var onSum, offSum time.Duration
	n := 50000
	for i := 0; i < n; i++ {
		on, off := SessionOnOff(rng)
		if on < 100*time.Millisecond || on > 4*time.Second {
			t.Fatalf("on-time %v outside clamp", on)
		}
		if off < 100*time.Millisecond || off > 4*time.Second {
			t.Fatalf("off-time %v outside clamp", off)
		}
		onSum += on
		offSum += off
	}
	onMean := onSum / time.Duration(n)
	offMean := offSum / time.Duration(n)
	// Clamping pulls the means toward the window slightly; both must
	// stay near their calibration and keep the ~40% duty cycle.
	duty := float64(onMean) / float64(onMean+offMean)
	if duty < 0.30 || duty > 0.50 {
		t.Fatalf("duty cycle %.3f, want ~0.4 (on %v, off %v)", duty, onMean, offMean)
	}
}
