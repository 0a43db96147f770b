package pcc

import (
	"testing"
	"time"

	"pbecc/internal/cc/cctest"
)

func TestUtilityPenalizesLoss(t *testing.T) {
	clean := utility(10e6, 100, 0)
	lossy := utility(10e6, 90, 10) // 10% loss, past the 5% sigmoid cliff
	if lossy >= clean {
		t.Fatalf("utility with loss (%v) not below clean (%v)", lossy, clean)
	}
	if lossy > 0 {
		t.Fatalf("utility at 10%% loss = %v, want negative-ish", lossy)
	}
}

func TestUtilityMonotoneInRateWhenClean(t *testing.T) {
	prev := utility(1e6, 100, 0)
	for r := 2e6; r <= 100e6; r += 1e6 {
		u := utility(r, 100, 0)
		if u <= prev {
			t.Fatalf("clean utility not increasing at %v", r)
		}
		prev = u
	}
}

func TestSigmoidBounds(t *testing.T) {
	if s := sigmoid(-1000); s < 0.999 {
		t.Fatalf("sigmoid(-inf) = %v", s)
	}
	if s := sigmoid(1000); s > 0.001 {
		t.Fatalf("sigmoid(+inf) = %v", s)
	}
}

func TestConvergesNearCapacity(t *testing.T) {
	p := New()
	r := cctest.Run(1, p, 20e6, 60*time.Millisecond, 64*1500, 15*time.Second)
	if r.ThroughputMbps < 6 {
		t.Fatalf("PCC got %.1f Mbit/s of 20 after 15s", r.ThroughputMbps)
	}
	if p.rate > 40e6 {
		t.Fatalf("PCC rate %.1f Mbit/s runaway above capacity", p.rate/1e6)
	}
}

func TestRateFloor(t *testing.T) {
	p := New()
	p.rate = minRate
	p.haveUtil = true
	p.lastUtil = 1e9 // force the "utility decreased" branch
	p.applyUtility(&miRecord{rate: minRate, epoch: p.epoch, acked: 0, lost: 100}, utility(minRate, 0, 100))
	if p.rate < minRate {
		t.Fatalf("rate below floor: %v", p.rate)
	}
}

func TestDecisionPicksBetterDirection(t *testing.T) {
	p := New()
	p.rate = 10e6
	p.enterDeciding()
	// Four scored trials: up trials (slots 1,3) clean, down trials lossy.
	p.applyUtility(&miRecord{trial: 1, epoch: p.epoch}, utility(p.rate*(1+eps), 100, 0))
	p.applyUtility(&miRecord{trial: 2, epoch: p.epoch}, utility(p.rate*(1-eps), 50, 50))
	p.applyUtility(&miRecord{trial: 3, epoch: p.epoch}, utility(p.rate*(1+eps), 100, 0))
	p.applyUtility(&miRecord{trial: 4, epoch: p.epoch}, utility(p.rate*(1-eps), 50, 50))
	if p.state != moving || p.dir != +1 {
		t.Fatalf("state=%v dir=%d, want moving/+1", p.state, p.dir)
	}
}

func TestStaleEpochIgnored(t *testing.T) {
	p := New()
	p.applyUtility(&miRecord{epoch: p.epoch + 5}, 100)
	if p.haveUtil {
		t.Fatal("wrong-epoch MI advanced the state machine")
	}
	p.enterDeciding()
	p.applyUtility(&miRecord{trial: 0, epoch: p.epoch}, 5) // non-trial MI must not count
	if p.trialSeen != 0 {
		t.Fatalf("stale MI counted as trial: seen=%d", p.trialSeen)
	}
}

func TestStartingDoublesOnImprovement(t *testing.T) {
	p := New()
	r0 := p.rate
	p.applyUtility(&miRecord{epoch: p.epoch}, 1)
	p.applyUtility(&miRecord{epoch: p.epoch}, 2)
	if p.rate != r0*4 {
		t.Fatalf("rate after two improving MIs = %v, want %v", p.rate, r0*4)
	}
	if p.state != starting {
		t.Fatal("left starting too early")
	}
	p.applyUtility(&miRecord{epoch: p.epoch}, 1) // utility fell
	if p.state != deciding {
		t.Fatalf("state = %v, want deciding after utility drop", p.state)
	}
	if p.rate != r0*2 {
		t.Fatalf("rate after exit = %v, want %v (halved)", p.rate, r0*2)
	}
}

func TestSentSeqAttribution(t *testing.T) {
	p := New()
	p.miDur = 10 * time.Millisecond
	p.OnSent(0, 1, 1500)
	p.OnSent(time.Millisecond, 2, 3000)
	p.OnSent(11*time.Millisecond, 3, 4500) // rotates to a new MI
	if m := p.record(1); m == nil || m == p.cur {
		t.Fatal("seq 1 must belong to the first (closed) MI")
	}
	if m := p.record(3); m != p.cur {
		t.Fatal("seq 3 must belong to the current MI")
	}
	if p.record(99) != nil {
		t.Fatal("unknown seq must not match")
	}
}
