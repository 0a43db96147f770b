package copa

import (
	"testing"
	"time"

	"pbecc/internal/cc"
	"pbecc/internal/cc/cctest"
)

func TestLowDelaySteadyState(t *testing.T) {
	r := cctest.Run(1, New(), 20e6, 60*time.Millisecond, 1<<20, 10*time.Second)
	// Copa targets ~1/(delta*dq): queueing stays tiny even in a deep
	// buffer. One-way propagation is 30 ms.
	if r.P95OWDms > 55 {
		t.Fatalf("p95 OWD = %.1f ms, want < 55 (low standing queue)", r.P95OWDms)
	}
	if r.ThroughputMbps < 10 {
		t.Fatalf("throughput = %.1f Mbit/s of 20", r.ThroughputMbps)
	}
}

func TestVelocityDoublesAfterThreeRTTs(t *testing.T) {
	co := New()
	co.srtt = 50 * time.Millisecond
	now := time.Duration(0)
	co.updateVelocity(now, +1)
	if co.velocity != 1 {
		t.Fatalf("initial velocity = %v", co.velocity)
	}
	for i := 0; i < 3; i++ {
		now += 51 * time.Millisecond
		co.updateVelocity(now, +1)
	}
	if co.velocity != 2 {
		t.Fatalf("velocity after 3 same-direction RTTs = %v, want 2", co.velocity)
	}
	now += 51 * time.Millisecond
	co.updateVelocity(now, +1)
	if co.velocity != 4 {
		t.Fatalf("velocity = %v, want 4", co.velocity)
	}
}

func TestVelocityResetsOnDirectionChange(t *testing.T) {
	co := New()
	co.srtt = 50 * time.Millisecond
	co.velocity = 8
	co.direction = +1
	co.updateVelocity(time.Second, -1)
	if co.velocity != 1 {
		t.Fatalf("velocity after direction flip = %v, want 1", co.velocity)
	}
}

func TestLossHalvesWindow(t *testing.T) {
	co := New()
	co.cwnd = 40
	co.OnLoss(cc.LossSample{})
	if co.cwnd != 20 {
		t.Fatalf("window after loss = %v, want 20", co.cwnd)
	}
}

func TestWindowFloor(t *testing.T) {
	co := New()
	co.cwnd = 2.5
	co.OnLoss(cc.LossSample{})
	if co.cwnd < 2 {
		t.Fatalf("window below floor: %v", co.cwnd)
	}
}
