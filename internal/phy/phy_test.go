package phy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestCQIFromSINRMonotone(t *testing.T) {
	for _, table := range []CQITable{Table64QAM, Table256QAM} {
		prev := 0
		for sinr := -10.0; sinr <= 35; sinr += 0.25 {
			cqi := CQIFromSINR(sinr, table)
			if cqi < prev {
				t.Fatalf("CQI not monotone in SINR at %v dB (table %d): %d < %d", sinr, table, cqi, prev)
			}
			prev = cqi
		}
		if prev != 15 {
			t.Fatalf("max CQI at 35 dB = %d, want 15", prev)
		}
	}
}

func TestCQIFromSINROutOfRange(t *testing.T) {
	if cqi := CQIFromSINR(-20, Table64QAM); cqi != 0 {
		t.Fatalf("CQI at -20 dB = %d, want 0", cqi)
	}
}

func TestEfficiencyBounds(t *testing.T) {
	if Efficiency(0, Table64QAM) != 0 || Efficiency(16, Table64QAM) != 0 {
		t.Fatal("efficiency outside 1..15 must be 0")
	}
	if got := Efficiency(15, Table64QAM); got != 5.5547 {
		t.Fatalf("64QAM CQI15 efficiency = %v, want 5.5547", got)
	}
	if got := Efficiency(15, Table256QAM); got != 7.4063 {
		t.Fatalf("256QAM CQI15 efficiency = %v, want 7.4063", got)
	}
}

func TestEfficiencyMonotoneInCQI(t *testing.T) {
	for _, table := range []CQITable{Table64QAM, Table256QAM} {
		for cqi := 2; cqi <= 15; cqi++ {
			if Efficiency(cqi, table) <= Efficiency(cqi-1, table) {
				t.Fatalf("efficiency not increasing at CQI %d table %d", cqi, table)
			}
		}
	}
}

// TestMaxPhysicalRate checks the paper's calibration point: the maximum
// physical data rate is about 1.8 Mbit/s/PRB (Figure 11b).
func TestMaxPhysicalRate(t *testing.T) {
	m := MCS{CQI: 15, Table: Table256QAM, Streams: 2}
	got := MbitPerSecPerPRB(m.BitsPerPRB())
	if got < 1.7 || got > 1.9 {
		t.Fatalf("max rate = %.3f Mbit/s/PRB, want ~1.8", got)
	}
}

func TestMCSFromSINRStreams(t *testing.T) {
	if m := MCSFromSINR(10, Table64QAM); m.Streams != 1 {
		t.Fatalf("streams at 10 dB = %d, want 1", m.Streams)
	}
	if m := MCSFromSINR(25, Table64QAM); m.Streams != 2 {
		t.Fatalf("streams at 25 dB = %d, want 2", m.Streams)
	}
}

func TestMCSValid(t *testing.T) {
	if (MCS{CQI: 0, Table: Table64QAM, Streams: 1}).Valid() {
		t.Fatal("CQI 0 must be invalid")
	}
	if !(MCS{CQI: 7, Table: Table64QAM, Streams: 1}).Valid() {
		t.Fatal("CQI 7 must be valid")
	}
}

func TestBitsPerPRBZeroStreamsClamped(t *testing.T) {
	a := MCS{CQI: 7, Table: Table64QAM, Streams: 0}.BitsPerPRB()
	b := MCS{CQI: 7, Table: Table64QAM, Streams: 1}.BitsPerPRB()
	if a != b {
		t.Fatalf("streams=0 not clamped to 1: %v vs %v", a, b)
	}
}

func TestSINRFromRSSICalibration(t *testing.T) {
	if got := SINRFromRSSI(-85); math.Abs(got-22.5) > 1e-9 {
		t.Fatalf("SINR(-85) = %v, want 22.5", got)
	}
	if got := SINRFromRSSI(-105); math.Abs(got-4.5) > 1e-9 {
		t.Fatalf("SINR(-105) = %v, want 4.5", got)
	}
}

func TestBERAnchors(t *testing.T) {
	cases := []struct{ rssi, want float64 }{
		{-80, 1e-6}, {-85, 1e-6}, {-98, 2.5e-6}, {-113, 5e-6}, {-120, 5e-6},
	}
	for _, c := range cases {
		if got := BERFromRSSI(c.rssi); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("BER(%v) = %v, want %v", c.rssi, got, c.want)
		}
	}
	// Interpolation must be strictly monotone between anchors.
	prev := BERFromRSSI(-85)
	for rssi := -86.0; rssi >= -113; rssi-- {
		got := BERFromRSSI(rssi)
		if got < prev {
			t.Fatalf("BER not monotone at %v dBm", rssi)
		}
		prev = got
	}
}

// TestTBErrorRatePaperPoints verifies the Figure 6(b) curve: at p=5e-6 and
// L=70 kbit the error rate is about 0.30.
func TestTBErrorRatePaperPoints(t *testing.T) {
	got := TBErrorRate(5e-6, 70000)
	want := 1 - math.Pow(1-5e-6, 70000)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("TBErrorRate = %v, want %v", got, want)
	}
	if got < 0.25 || got > 0.35 {
		t.Fatalf("TBErrorRate(5e-6, 70kbit) = %v, want ~0.30 per Figure 6b", got)
	}
}

func TestTBErrorRateEdges(t *testing.T) {
	if TBErrorRate(1e-6, 0) != 0 {
		t.Fatal("zero-size TB must have zero error rate")
	}
	if TBErrorRate(0, 1000) != 0 {
		t.Fatal("zero BER must have zero error rate")
	}
	if TBErrorRate(1, 10) != 1 {
		t.Fatal("BER=1 must give error rate 1")
	}
}

func TestTBErrorRateMonotoneInSize(t *testing.T) {
	f := func(a, b uint16) bool {
		la, lb := int(a), int(b)
		if la > lb {
			la, lb = lb, la
		}
		return TBErrorRate(3e-6, la) <= TBErrorRate(3e-6, lb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEqn5RoundTrip property-tests that TransportFromPhysical inverts
// PhysicalFromTransport.
func TestEqn5RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		ct := rng.Float64() * 180000 // up to 180 kbit/subframe = 180 Mbit/s
		ber := 1e-6 + rng.Float64()*4e-6
		cp := PhysicalFromTransport(ct, ber)
		back := TransportFromPhysical(cp, ber)
		if math.Abs(back-ct) > 1+1e-3*ct {
			t.Fatalf("round trip ct=%v ber=%v -> cp=%v -> %v", ct, ber, cp, back)
		}
	}
}

func TestTransportFromPhysicalBelowPhysical(t *testing.T) {
	for _, cp := range []float64{0, 100, 10000, 100000, 180000} {
		ct := TransportFromPhysical(cp, 5e-6)
		if ct > cp {
			t.Fatalf("goodput %v exceeds physical capacity %v", ct, cp)
		}
		if cp > 0 && ct <= 0 {
			t.Fatalf("goodput non-positive for cp=%v", cp)
		}
	}
}

// TestOverheadFraction reproduces the shape of Figure 6(a): total overhead
// (retransmission + protocol) grows with offered load and stays in the
// 6-16% band for the paper's loads.
func TestOverheadFraction(t *testing.T) {
	prev := 0.0
	for _, loadMbit := range []float64{5, 10, 20, 30, 40} {
		ct := loadMbit * 1e6 / 1000 // bits per subframe
		cp := PhysicalFromTransport(ct, 5e-6)
		overhead := (cp - ct) / cp
		if overhead < prev {
			t.Fatalf("overhead not increasing with load at %v Mbit/s", loadMbit)
		}
		if overhead < 0.05 || overhead > 0.25 {
			t.Fatalf("overhead at %v Mbit/s = %v, outside plausible band", loadMbit, overhead)
		}
		prev = overhead
	}
}

func TestTranslationTableMatchesDirect(t *testing.T) {
	tab := NewTranslationTable(2.5e-6, 200000, 500)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		cp := rng.Float64() * 200000
		got := tab.Transport(cp)
		want := TransportFromPhysical(cp, 2.5e-6)
		if math.Abs(got-want) > 1+0.002*want {
			t.Fatalf("table lookup cp=%v: got %v want %v", cp, got, want)
		}
	}
	if tab.BER() != 2.5e-6 {
		t.Fatalf("BER() = %v", tab.BER())
	}
}

func TestTranslationTableBeyondGrid(t *testing.T) {
	tab := NewTranslationTable(1e-6, 10000, 500)
	got := tab.Transport(50000)
	want := TransportFromPhysical(50000, 1e-6)
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("beyond-grid lookup: got %v want %v", got, want)
	}
	if tab.Transport(-5) != 0 {
		t.Fatal("negative capacity must yield 0")
	}
}

func TestFadingZeroWithoutRNG(t *testing.T) {
	f := NewFading(3, 50*time.Millisecond, nil)
	for i := 0; i < 10; i++ {
		if f.Step(time.Millisecond) != 0 {
			t.Fatal("nil-rng fading must stay at 0")
		}
	}
}

func TestFadingStationary(t *testing.T) {
	f := NewFading(3, 50*time.Millisecond, rand.New(rand.NewSource(1)))
	var sum, sumSq float64
	n := 200000
	for i := 0; i < n; i++ {
		v := f.Step(time.Millisecond)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.3 {
		t.Fatalf("fading mean = %v, want ~0", mean)
	}
	if std < 2 || std > 4 {
		t.Fatalf("fading std = %v, want ~3", std)
	}
}

func TestFadingOffsetDoesNotAdvance(t *testing.T) {
	f := NewFading(3, 50*time.Millisecond, rand.New(rand.NewSource(2)))
	f.Step(time.Millisecond)
	a := f.Offset()
	b := f.Offset()
	if a != b {
		t.Fatal("Offset must not advance the process")
	}
}

func TestTrajectoryInterpolation(t *testing.T) {
	tr := PaperMobilityTrajectory()
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, -85},
		{5 * time.Second, -85},
		{13 * time.Second, -85},
		{19500 * time.Millisecond, -95},
		{26 * time.Second, -105},
		{28 * time.Second, -95},
		{35 * time.Second, -85},
		{100 * time.Second, -85},
	}
	for _, c := range cases {
		if got := tr.At(c.at); math.Abs(got-c.want) > 0.01 {
			t.Fatalf("trajectory at %v = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestTrajectoryEmpty(t *testing.T) {
	var tr Trajectory
	if got := tr.At(time.Second); got != -85 {
		t.Fatalf("empty trajectory = %v, want default -85", got)
	}
}

func TestStaticChannel(t *testing.T) {
	c := NewStaticChannel(-85, Table256QAM, nil)
	sinr := c.Step(0, time.Millisecond)
	if math.Abs(sinr-22.5) > 1e-9 {
		t.Fatalf("static channel SINR = %v, want 22.5", sinr)
	}
	if c.RSSI() != -85 {
		t.Fatalf("RSSI = %v", c.RSSI())
	}
	if !c.MCS().Valid() {
		t.Fatal("MCS at -85 dBm must be valid")
	}
	if c.BER() != 1e-6 {
		t.Fatalf("BER = %v, want 1e-6", c.BER())
	}
}

func TestMobileChannelFollowsTrajectory(t *testing.T) {
	c := NewMobileChannel(PaperMobilityTrajectory(), Table64QAM, nil)
	c.Step(0, time.Millisecond)
	strong := c.MCS().BitsPerPRB()
	c.Step(26*time.Second, time.Millisecond)
	weak := c.MCS().BitsPerPRB()
	if weak >= strong {
		t.Fatalf("rate at -105 dBm (%v) must be below rate at -85 dBm (%v)", weak, strong)
	}
	if c.SINR() != SINRFromRSSI(-105) {
		t.Fatalf("SINR = %v, want %v", c.SINR(), SINRFromRSSI(-105))
	}
}

func BenchmarkTransportFromPhysical(b *testing.B) {
	for i := 0; i < b.N; i++ {
		TransportFromPhysical(60000, 2.5e-6)
	}
}

func BenchmarkTranslationTableLookup(b *testing.B) {
	tab := NewTranslationTable(2.5e-6, 200000, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Transport(float64(i%200) * 1000)
	}
}

// tbErrorRateRef and transportFromPhysicalRef are the Eqn 5 solver as
// first written: TBErrorRate, logarithm included, at every bisection step.
func tbErrorRateRef(ber float64, sizeBits int) float64 {
	if sizeBits <= 0 || ber <= 0 {
		return 0
	}
	if ber >= 1 {
		return 1
	}
	return -math.Expm1(float64(sizeBits) * math.Log1p(-ber))
}

func transportFromPhysicalRef(cp float64, ber float64) float64 {
	if cp <= 0 {
		return 0
	}
	budget := cp * (1 - ProtocolOverhead)
	lo, hi := 0.0, budget
	for i := 0; i < 60 && hi-lo > 1e-9*budget; i++ {
		ct := (lo + hi) / 2
		need := ct * (1 + tbErrorRateRef(ber, int(ct)))
		if need > budget {
			hi = ct
		} else {
			lo = ct
		}
	}
	return (lo + hi) / 2
}

// TestTransportFromPhysicalBitExact holds the solver, which computes the
// logarithm once and each bit count's error rate once, to the reference
// bit for bit over a grid of capacities and error rates - including cp <= 0,
// capacities below one bit, and the guarded BERs 0, 1 and 2.
func TestTransportFromPhysicalBitExact(t *testing.T) {
	bers := []float64{0, 1, 2, -1e-6, 1e-9, 1e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.5, 0.999}
	cps := []float64{-100, -1e-9, 0, 1e-12, 0.3, 0.999, 1, 1.07, 1.5, 2, 3.3, 17}
	for cp := 10.0; cp < 2e6; cp *= 1.37 {
		cps = append(cps, cp, cp+0.5, math.Nextafter(cp, 0))
	}
	n := 0
	for _, ber := range bers {
		for _, cp := range cps {
			got, want := TransportFromPhysical(cp, ber), transportFromPhysicalRef(cp, ber)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("TransportFromPhysical(%v, %v) = %v, reference %v", cp, ber, got, want)
			}
			for _, bits := range []int{-1, 0, 1, int(cp)} {
				if got, want := TBErrorRate(ber, bits), tbErrorRateRef(ber, bits); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("TBErrorRate(%v, %d) = %v, reference %v", ber, bits, got, want)
				}
			}
			n++
		}
	}
	if n < 1000 {
		t.Fatalf("grid has %d cases, want at least 1000", n)
	}
}
