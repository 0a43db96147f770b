package vivace

import (
	"testing"
	"time"

	"pbecc/internal/cc/cctest"
)

func TestUtilityPenalizesLatencyGradient(t *testing.T) {
	v := New()
	flat := miRecord{rate: 10e6, start: 0, end: 100 * time.Millisecond,
		acked: 100, firstRTT: 50 * time.Millisecond, lastRTT: 50 * time.Millisecond}
	rising := flat
	rising.lastRTT = 80 * time.Millisecond // +0.3 s/s gradient
	if v.utility(&rising) >= v.utility(&flat) {
		t.Fatal("rising RTT must lower utility")
	}
}

func TestUtilityIgnoresFallingRTT(t *testing.T) {
	v := New()
	flat := miRecord{rate: 10e6, start: 0, end: 100 * time.Millisecond,
		acked: 100, firstRTT: 50 * time.Millisecond, lastRTT: 50 * time.Millisecond}
	falling := flat
	falling.lastRTT = 30 * time.Millisecond
	if v.utility(&falling) != v.utility(&flat) {
		t.Fatal("negative gradients are clamped to zero in Vivace's utility")
	}
}

func TestUtilityPenalizesLoss(t *testing.T) {
	v := New()
	clean := miRecord{rate: 10e6, start: 0, end: 100 * time.Millisecond, acked: 100,
		firstRTT: 50 * time.Millisecond, lastRTT: 50 * time.Millisecond}
	lossy := clean
	lossy.acked, lossy.lost = 80, 20
	if v.utility(&lossy) >= v.utility(&clean) {
		t.Fatal("loss must lower utility")
	}
}

func TestStepBounded(t *testing.T) {
	v := New()
	v.rate = 10e6
	v.half = 1
	v.uUp = 1e12 // absurd gradient
	v.mi = miRecord{rate: v.rate * (1 - eps), start: 0, end: time.Millisecond, acked: 10,
		firstRTT: 50 * time.Millisecond, lastRTT: 50 * time.Millisecond}
	v.closeMI(2 * time.Millisecond)
	if v.rate > 10e6*(1+maxChange)+1 {
		t.Fatalf("rate change exceeded bound: %v", v.rate)
	}
}

func TestConfidenceGrowsSameDirection(t *testing.T) {
	v := New()
	v.rate = 10e6
	for i := 0; i < 5; i++ {
		v.half = 1
		v.uUp = 100 // up always better
		v.mi = miRecord{rate: v.rate * (1 - eps), start: 0, end: time.Millisecond, acked: 10,
			firstRTT: 50 * time.Millisecond, lastRTT: 50 * time.Millisecond}
		v.closeMI(time.Duration(i+1) * 10 * time.Millisecond)
	}
	if v.confidence < 3 {
		t.Fatalf("confidence = %d after 5 consistent updates", v.confidence)
	}
}

func TestConvergesReasonably(t *testing.T) {
	v := New()
	r := cctest.Run(1, v, 20e6, 60*time.Millisecond, 64*1500, 15*time.Second)
	if r.ThroughputMbps < 4 {
		t.Fatalf("Vivace got %.1f Mbit/s of 20", r.ThroughputMbps)
	}
	if v.rate > 60e6 {
		t.Fatalf("Vivace rate runaway: %.1f Mbit/s", v.rate/1e6)
	}
}

func TestRateFloorHolds(t *testing.T) {
	v := New()
	v.rate = minRate
	v.half = 1
	v.uUp = -1e12
	v.mi = miRecord{rate: v.rate, start: 0, end: time.Millisecond, acked: 1, lost: 99,
		firstRTT: 50 * time.Millisecond, lastRTT: 500 * time.Millisecond}
	v.closeMI(2 * time.Millisecond)
	if v.rate < minRate {
		t.Fatalf("rate below floor: %v", v.rate)
	}
}
