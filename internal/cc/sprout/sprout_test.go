package sprout

import (
	"testing"
	"time"

	"pbecc/internal/cc"
	"pbecc/internal/cc/cctest"
)

func TestConservativeLowDelay(t *testing.T) {
	r := cctest.Run(1, New(), 20e6, 60*time.Millisecond, 1<<20, 10*time.Second)
	// Sprout's window bounds queueing to roughly its 100 ms delay
	// horizon (one-way propagation here is 30 ms).
	if r.P95OWDms > 140 {
		t.Fatalf("p95 OWD = %.1f ms, want < 140", r.P95OWDms)
	}
	if r.ThroughputMbps < 1 {
		t.Fatalf("throughput = %.2f Mbit/s: completely starved", r.ThroughputMbps)
	}
	// On a rock-stable link Sprout may reach full rate; its conservatism
	// shows on variable links (covered by the harness experiments).
	if r.ThroughputMbps > 21 {
		t.Fatalf("throughput = %.1f above link capacity", r.ThroughputMbps)
	}
}

func TestLossHalvesBelief(t *testing.T) {
	sp := New()
	sp.rateMean = 10e6
	sp.OnLoss(cc.LossSample{})
	if sp.rateMean != 5e6 {
		t.Fatalf("belief after loss = %v", sp.rateMean)
	}
}

func TestBeliefTracksObservations(t *testing.T) {
	sp := New()
	now := time.Duration(0)
	// Feed a steady 12 Mbit/s of acks: 1500B each, 1 per ms.
	for i := 0; i < 2000; i++ {
		now += time.Millisecond
		sp.OnAck(cc.AckSample{Now: now, AckedBytes: 1500, SRTT: 50 * time.Millisecond})
	}
	if sp.rateMean < 9e6 || sp.rateMean > 15e6 {
		t.Fatalf("belief = %.1f Mbit/s, want ~12", sp.rateMean/1e6)
	}
}
