package verus

import (
	"testing"
	"time"

	"pbecc/internal/cc"
	"pbecc/internal/cc/cctest"
)

func TestThroughputWithQueueing(t *testing.T) {
	r := cctest.Run(1, New(), 20e6, 60*time.Millisecond, 1<<21, 10*time.Second)
	if r.ThroughputMbps < 12 {
		t.Fatalf("Verus got %.1f Mbit/s of 20", r.ThroughputMbps)
	}
	// Verus trades delay for rate: its target delay ratio (2-6x Dmin)
	// means standing queues well above propagation.
	if r.AvgOWDms < 32 {
		t.Fatalf("avg OWD = %.1f ms: Verus should hold a standing queue", r.AvgOWDms)
	}
}

func TestProfileInversionRespectsTarget(t *testing.T) {
	v := New()
	v.dMinMs = 50
	for b := 2; b < 100; b++ {
		v.profile[b] = 50 + float64(b) // delay grows with window
	}
	// Largest bucket with profile <= 100 is b=50, but growth from the
	// current window is bounded (5% or two segments per epoch).
	v.ratio = 2
	v.cwnd = 10
	if got := v.invertProfile(100); got != 12 {
		t.Fatalf("inverted window = %v, want 12 (bounded growth)", got)
	}
	// From a window already at the known-good frontier the result shrinks
	// to the largest bucket meeting the target.
	v.cwnd = 80
	if got := v.invertProfile(100); got != 50 {
		t.Fatalf("inverted window = %v, want 50 (shrink to evidence)", got)
	}
}

func TestProfileInversionExploresBeyondKnown(t *testing.T) {
	v := New()
	v.cwnd = 10
	v.dMinMs = 50
	for b := 2; b <= 10; b++ {
		v.profile[b] = 55
	}
	// All known delays below target: the window may step past known
	// territory by a couple of buckets.
	got := v.invertProfile(200)
	if got < 10 || got > 13 {
		t.Fatalf("exploration window = %v, want 10-13", got)
	}
}

func TestRatioBounds(t *testing.T) {
	v := New()
	v.dMinMs = 10
	v.lastDelay = 10
	// Repeated rising delay drives the ratio to its floor, not below.
	for i := 0; i < 50; i++ {
		v.epochAcks = 1
		v.epochDelay = float64(100 + i)
		v.epochEnd = time.Duration(i) * epoch
		v.OnAck(cc.AckSample{Now: time.Duration(i)*epoch + epoch, RTT: 100 * time.Millisecond, SRTT: 100 * time.Millisecond, AckedBytes: 1500})
	}
	if v.ratio < ratioMin-1e-9 {
		t.Fatalf("ratio fell below floor: %v", v.ratio)
	}
}

func TestLossHalves(t *testing.T) {
	v := New()
	v.cwnd = 64
	v.OnLoss(cc.LossSample{})
	if v.cwnd != 32 {
		t.Fatalf("cwnd after loss = %v", v.cwnd)
	}
}
