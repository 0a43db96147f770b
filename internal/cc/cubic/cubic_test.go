package cubic

import (
	"testing"
	"time"

	"pbecc/internal/cc"
	"pbecc/internal/cc/cctest"
)

func TestSlowStartDoubles(t *testing.T) {
	cu := New()
	if !cu.InSlowStart() {
		t.Fatal("must begin in slow start")
	}
	w0 := cu.cwnd
	// Acking a window's worth of data in slow start doubles the window.
	for i := 0; i < 10; i++ {
		cu.OnAck(cc.AckSample{Now: time.Millisecond, Seq: uint64(i), AckedBytes: 1500, SRTT: 50 * time.Millisecond})
	}
	if got := cu.cwnd; got < 2*w0-0.01 {
		t.Fatalf("window after 10 acks = %.1f, want ~%.1f", got, 2*w0)
	}
}

func TestLossMultiplicativeDecrease(t *testing.T) {
	cu := New()
	cu.cwnd = 100
	cu.OnSent(0, 500, 0)
	cu.OnLoss(cc.LossSample{Now: time.Second, Seq: 100})
	if got := cu.cwnd; got < 69 || got > 71 {
		t.Fatalf("window after loss = %.1f, want 70 (beta=0.7)", got)
	}
	if cu.InSlowStart() {
		t.Fatal("must leave slow start after loss")
	}
}

func TestLossCoalescedPerWindow(t *testing.T) {
	cu := New()
	cu.cwnd = 100
	cu.OnSent(0, 500, 0)
	cu.OnLoss(cc.LossSample{Now: time.Second, Seq: 100})
	w := cu.cwnd
	// More losses from the same window of data must not reduce again.
	cu.OnLoss(cc.LossSample{Now: time.Second, Seq: 101})
	cu.OnLoss(cc.LossSample{Now: time.Second, Seq: 499})
	if cu.cwnd != w {
		t.Fatalf("window reduced twice in one episode: %.1f -> %.1f", w, cu.cwnd)
	}
	// A loss from data sent after recovery began does reduce.
	cu.OnSent(0, 600, 0)
	cu.OnAck(cc.AckSample{Now: time.Second, Seq: 501, AckedBytes: 1500, SRTT: 50 * time.Millisecond})
	cu.OnLoss(cc.LossSample{Now: 2 * time.Second, Seq: 600})
	if cu.cwnd >= w {
		t.Fatal("new-episode loss did not reduce window")
	}
}

func TestFastConvergence(t *testing.T) {
	cu := New()
	cu.cwnd = 100
	cu.wMax = 120 // window is below the previous max: shrink wMax further
	cu.OnSent(0, 1, 0)
	cu.OnLoss(cc.LossSample{Now: time.Second, Seq: 1})
	want := 100 * (2 - beta) / 2
	if cu.wMax != want {
		t.Fatalf("fast convergence wMax = %.1f, want %.1f", cu.wMax, want)
	}
}

func TestCubicGrowthConcaveThenConvex(t *testing.T) {
	// After a loss the window approaches wMax (concave), plateaus, then
	// grows past it (convex) - the defining CUBIC shape.
	cu := New()
	cu.cwnd = 100
	cu.OnSent(0, 1, 0)
	cu.OnLoss(cc.LossSample{Now: 0, Seq: 1})
	base := cu.cwnd
	var atK, late float64
	k := time.Duration(cu.kAfterEpochStart(base) * float64(time.Second))
	step := 10 * time.Millisecond
	for now := step; now <= 3*k; now += step {
		cu.OnAck(cc.AckSample{Now: now, Seq: 2, AckedBytes: 1500, SRTT: 50 * time.Millisecond})
		if now <= k {
			atK = cu.cwnd
		}
		late = cu.cwnd
	}
	if atK < base || atK > cu.wMax*1.1 {
		t.Fatalf("window at K = %.1f, want between %.1f and ~wMax %.1f", atK, base, cu.wMax)
	}
	if late <= cu.wMax {
		t.Fatalf("window after 3K = %.1f, must exceed wMax %.1f (convex phase)", late, cu.wMax)
	}
}

// kAfterEpochStart exposes K for the test above given the post-loss
// window.
func (cu *Cubic) kAfterEpochStart(w float64) float64 {
	return cbrt(cu.wMax * (1 - beta) / c)
}

func cbrt(x float64) float64 {
	if x < 0 {
		return 0
	}
	guess := x
	for i := 0; i < 60; i++ {
		guess = (2*guess + x/(guess*guess)) / 3
	}
	return guess
}

func TestUtilizationDeepBuffer(t *testing.T) {
	r := cctest.Run(1, New(), 20e6, 60*time.Millisecond, 1<<20, 10*time.Second)
	if r.ThroughputMbps < 15 {
		t.Fatalf("CUBIC got %.1f Mbit/s of 20 with a deep buffer", r.ThroughputMbps)
	}
	// CUBIC fills deep buffers: delay must be well above propagation.
	if r.AvgOWDms < 35 {
		t.Fatalf("avg OWD %.1f ms suspiciously low for CUBIC in deep buffer", r.AvgOWDms)
	}
}

func TestUtilizationShallowBuffer(t *testing.T) {
	r := cctest.Run(2, New(), 20e6, 60*time.Millisecond, 8*4500, 10*time.Second)
	if r.ThroughputMbps < 8 {
		t.Fatalf("CUBIC got %.1f Mbit/s of 20 with a shallow buffer", r.ThroughputMbps)
	}
	if r.Lost == 0 {
		t.Fatal("no losses in shallow buffer - detector broken?")
	}
}

func TestPacingDisabled(t *testing.T) {
	if New().PacingRate() != 0 {
		t.Fatal("CUBIC must be unpaced")
	}
}
