package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"pbecc/internal/phy"
	"pbecc/internal/ran"
)

// TestMonitorCapacityBounds property-tests Eqn 3's output against its
// physical bounds: for any random report stream, 0 <= C_p <= R_wmax *
// P_cell, and N >= 1.
func TestMonitorCapacityBounds(t *testing.T) {
	const nprb = 100
	maxRate := phy.MCS{CQI: 15, Table: phy.Table256QAM, Streams: 2}.BitsPerPRB()
	f := func(seed int64, nSubframes uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMonitor(61)
		m.AttachCell(CellInfo{ID: 1, NPRB: nprb,
			Rate: func() float64 { return 400 },
			BER:  func() float64 { return 2e-6 }})
		for sf := 0; sf < int(nSubframes)+1; sf++ {
			rep := &ran.SubframeReport{CellID: 1, Subframe: sf, NPRB: nprb}
			remaining := nprb
			for u := 0; u < rng.Intn(6) && remaining > 0; u++ {
				prbs := 1 + rng.Intn(remaining)
				remaining -= prbs
				rnti := uint16(61 + rng.Intn(5))
				rep.Allocs = append(rep.Allocs, ran.Alloc{
					RNTI: rnti, PRBs: prbs,
					MCS: phy.MCS{CQI: 1 + rng.Intn(15), Table: phy.Table64QAM,
						Streams: 1 + rng.Intn(2)},
					NDI: rng.Intn(2) == 0,
				})
			}
			m.OnSubframe(rep)
		}
		cp := m.CellCapacity(1)
		if cp < 0 || cp > maxRate*nprb {
			return false
		}
		if m.ActiveUsers(1) < 1 {
			return false
		}
		ct := m.CapacityBits()
		return ct >= 0 && ct <= cp+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestDetectorNeverFlipsEarly property-tests the Eqn 6 guard: fewer than
// npkt consecutive out-of-band packets never switch state.
func TestDetectorNeverFlipsEarly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewDetector()
		npkt := 4 + rng.Intn(8)
		d.Observe(0, 30*time.Millisecond, npkt)
		now := time.Duration(0)
		for i := 0; i < 200; i++ {
			now += time.Millisecond
			// Runs of high delay strictly shorter than npkt.
			runLen := rng.Intn(npkt)
			for k := 0; k < runLen; k++ {
				now += time.Millisecond
				if d.Observe(now, 200*time.Millisecond, npkt) {
					return false
				}
			}
			if d.Observe(now+time.Millisecond, 31*time.Millisecond, npkt) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestWireMonotone property-tests that the feedback quantization
// preserves rate ordering (a faster rate never decodes below a slower
// one beyond quantization granularity).
func TestWireMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		ra := 1e3 + float64(a%1000000)*1e3 // 1 kbit/s .. 1 Gbit/s
		rb := 1e3 + float64(b%1000000)*1e3
		if ra > rb {
			ra, rb = rb, ra
		}
		qa, qb := QuantizeRate(ra), QuantizeRate(rb)
		return qa <= qb*1.001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSenderModeNeverInvalid drives the sender with random feedback and
// checks the mode machine stays in its three states with sane rates.
func TestSenderModeNeverInvalid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSender()
		now := time.Duration(0)
		for i := 0; i < 500; i++ {
			now += time.Duration(1+rng.Intn(10)) * time.Millisecond
			a := ackWith(now, float64(1+rng.Intn(100))*1e6, rng.Intn(4) == 0)
			s.OnAck(a)
			if s.mode != ModeWireless && s.mode != ModeDrain && s.mode != ModeInternet {
				return false
			}
			if s.PacingRate() < 0 {
				return false
			}
			if s.CWND() < 1500 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
