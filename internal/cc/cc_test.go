package cc

import (
	"testing"
	"time"

	"pbecc/internal/netsim"
	"pbecc/internal/sim"
)

// fakeCtrl is a programmable controller for framework tests.
type fakeCtrl struct {
	rate   float64
	cwnd   int
	acks   []AckSample
	losses []LossSample
	sent   int
}

func (f *fakeCtrl) Name() string                                   { return "fake" }
func (f *fakeCtrl) OnSent(now time.Duration, seq uint64, b, i int) { f.sent++ }
func (f *fakeCtrl) OnAck(s AckSample)                              { f.acks = append(f.acks, s) }
func (f *fakeCtrl) OnLoss(l LossSample)                            { f.losses = append(f.losses, l) }
func (f *fakeCtrl) PacingRate() float64                            { return f.rate }
func (f *fakeCtrl) CWND() int                                      { return f.cwnd }

// loop builds sender -> fwd link -> receiver -> ack link -> sender.
func loop(eng *sim.Engine, ctrl Controller, fwdRate float64, delay time.Duration, queue int) (*Sender, *Receiver, *netsim.Link) {
	var snd *Sender
	ackLink := netsim.NewLink(eng, 0, delay/2, 0, netsim.HandlerFunc(func(now time.Duration, p *netsim.Packet) {
		snd.HandlePacket(now, p)
	}))
	rcv := NewReceiver(eng, 1, ackLink)
	fwd := netsim.NewLink(eng, fwdRate, delay/2, queue, rcv)
	snd = NewSender(eng, 1, fwd, ctrl)
	return snd, rcv, fwd
}

func TestPacedRateThroughput(t *testing.T) {
	eng := sim.New(1)
	ctrl := &fakeCtrl{rate: 12e6, cwnd: 1 << 30}
	snd, rcv, _ := loop(eng, ctrl, 100e6, 40*time.Millisecond, 0)
	snd.Start()
	eng.RunUntil(2 * time.Second)
	// 12 Mbit/s = 1000 pps; over 2s minus startup ~ 2000 packets.
	if rcv.Received < 1900 || rcv.Received > 2050 {
		t.Fatalf("received %d packets, want ~2000", rcv.Received)
	}
}

func TestWindowLimitedThroughput(t *testing.T) {
	eng := sim.New(2)
	// cwnd = 10 packets, RTT 100 ms, ample link: ~100 packets/s.
	ctrl := &fakeCtrl{rate: 0, cwnd: 10 * netsim.MSS}
	snd, rcv, _ := loop(eng, ctrl, 1e9, 100*time.Millisecond, 0)
	snd.Start()
	eng.RunUntil(5 * time.Second)
	pps := float64(rcv.Received) / 5
	if pps < 85 || pps > 115 {
		t.Fatalf("window-limited rate %.1f pps, want ~100", pps)
	}
}

func TestRTTEstimate(t *testing.T) {
	eng := sim.New(3)
	ctrl := &fakeCtrl{rate: 6e6, cwnd: 1 << 30}
	snd, _, _ := loop(eng, ctrl, 100e6, 60*time.Millisecond, 0)
	snd.Start()
	eng.RunUntil(time.Second)
	if snd.SRTT() < 59*time.Millisecond || snd.SRTT() > 65*time.Millisecond {
		t.Fatalf("SRTT = %v, want ~60ms", snd.SRTT())
	}
	if len(ctrl.acks) == 0 {
		t.Fatal("no acks processed")
	}
}

func TestDeliveryRateSample(t *testing.T) {
	eng := sim.New(4)
	// Push 50 Mbit/s into a 20 Mbit/s bottleneck: delivery-rate samples
	// must converge to the bottleneck rate.
	ctrl := &fakeCtrl{rate: 50e6, cwnd: 1 << 30}
	snd, _, _ := loop(eng, ctrl, 20e6, 40*time.Millisecond, 1<<20)
	snd.Start()
	eng.RunUntil(2 * time.Second)
	n := len(ctrl.acks)
	if n < 100 {
		t.Fatalf("too few acks: %d", n)
	}
	var avg float64
	for _, a := range ctrl.acks[n-50:] {
		avg += a.DeliveryRate
	}
	avg /= 50
	if avg < 18e6 || avg > 22e6 {
		t.Fatalf("delivery rate = %.1f Mbit/s, want ~20", avg/1e6)
	}
}

func TestLossDetection(t *testing.T) {
	eng := sim.New(5)
	// Overdrive a small-queue bottleneck: drops must surface as OnLoss.
	ctrl := &fakeCtrl{rate: 40e6, cwnd: 1 << 30}
	snd, _, fwd := loop(eng, ctrl, 10e6, 40*time.Millisecond, 20*netsim.MSS)
	snd.Start()
	eng.RunUntil(2 * time.Second)
	if fwd.Drops == 0 {
		t.Fatal("bottleneck never dropped")
	}
	if len(ctrl.losses) == 0 {
		t.Fatal("no losses reported to controller")
	}
	if snd.LostPackets != uint64(len(ctrl.losses)) {
		t.Fatalf("counter mismatch: %d vs %d", snd.LostPackets, len(ctrl.losses))
	}
}

func TestInflightAccounting(t *testing.T) {
	eng := sim.New(6)
	ctrl := &fakeCtrl{rate: 20e6, cwnd: 1 << 30}
	snd, _, _ := loop(eng, ctrl, 20e6, 40*time.Millisecond, 1<<20)
	snd.Start()
	eng.RunUntil(2 * time.Second)
	snd.Stop()
	eng.RunUntil(3 * time.Second)
	// After stopping and draining, all packets are acked or lost.
	if snd.InflightBytes() != 0 {
		t.Fatalf("inflight = %d after drain, want 0", snd.InflightBytes())
	}
	if snd.AckedPackets+snd.LostPackets != snd.SentPackets {
		t.Fatalf("acked %d + lost %d != sent %d",
			snd.AckedPackets, snd.LostPackets, snd.SentPackets)
	}
}

func TestNoLossOnHARQLikeReordering(t *testing.T) {
	eng := sim.New(7)
	// A 20 ms delay spike on one packet (under the 27 ms HARQ allowance)
	// must not trigger loss detection.
	var snd *Sender
	ackLink := netsim.NewLink(eng, 0, 5*time.Millisecond, 0,
		netsim.HandlerFunc(func(now time.Duration, p *netsim.Packet) { snd.HandlePacket(now, p) }))
	rcv := NewReceiver(eng, 1, ackLink)
	delayed := netsim.HandlerFunc(func(now time.Duration, p *netsim.Packet) {
		d := 5 * time.Millisecond
		if p.Seq == 50 {
			d += 20 * time.Millisecond
		}
		eng.Schedule(d, func() { rcv.HandlePacket(eng.Now(), p) })
	})
	ctrl := &fakeCtrl{rate: 12e6, cwnd: 1 << 30}
	snd = NewSender(eng, 1, delayed, ctrl)
	snd.Start()
	eng.RunUntil(time.Second)
	if snd.LostPackets != 0 {
		t.Fatalf("%d spurious losses on HARQ-like delay", snd.LostPackets)
	}
}

func TestStopHaltsTransmission(t *testing.T) {
	eng := sim.New(8)
	ctrl := &fakeCtrl{rate: 12e6, cwnd: 1 << 30}
	snd, _, _ := loop(eng, ctrl, 100e6, 20*time.Millisecond, 0)
	snd.Start()
	eng.RunUntil(500 * time.Millisecond)
	snd.Stop()
	sentAtStop := snd.SentPackets
	eng.RunUntil(time.Second)
	if snd.SentPackets != sentAtStop {
		t.Fatal("sender kept transmitting after Stop")
	}
	if snd.running {
		t.Fatal("running after Stop")
	}
}

type feedbackStub struct {
	rate float64
	btl  bool
}

func (f *feedbackStub) Feedback(now time.Duration, owd time.Duration, dataBytes int) (float64, bool) {
	return f.rate, f.btl
}

func TestReceiverFeedbackAttached(t *testing.T) {
	eng := sim.New(9)
	ctrl := &fakeCtrl{rate: 6e6, cwnd: 1 << 30}
	snd, rcv, _ := loop(eng, ctrl, 100e6, 20*time.Millisecond, 0)
	rcv.Feedback = &feedbackStub{rate: 33e6, btl: true}
	snd.Start()
	eng.RunUntil(200 * time.Millisecond)
	if len(ctrl.acks) == 0 {
		t.Fatal("no acks")
	}
	a := ctrl.acks[len(ctrl.acks)-1]
	if a.FeedbackRate != 33e6 || !a.InternetBottleneck {
		t.Fatalf("feedback not carried: %+v", a)
	}
}

func TestReceiverIgnoresOtherFlows(t *testing.T) {
	eng := sim.New(10)
	rcv := NewReceiver(eng, 1, &netsim.Sink{})
	rcv.HandlePacket(0, &netsim.Packet{FlowID: 2, Size: netsim.MSS})
	if rcv.Received != 0 {
		t.Fatal("receiver accepted foreign flow")
	}
}

// --- Filters ---

func TestWindowedMax(t *testing.T) {
	w := WindowedMax{Window: 100 * time.Millisecond}
	w.Update(0, 10)
	w.Update(50*time.Millisecond, 5)
	if w.Get() != 10 {
		t.Fatalf("max = %v, want 10", w.Get())
	}
	w.Update(150*time.Millisecond, 7)
	if w.Get() != 7 {
		t.Fatalf("max after expiry = %v, want 7", w.Get())
	}
	w.Update(400*time.Millisecond, 3)
	if w.Get() != 3 {
		t.Fatalf("max after full expiry = %v, want 3", w.Get())
	}
}

func TestWindowedMin(t *testing.T) {
	w := WindowedMin{Window: 100 * time.Millisecond}
	w.Update(0, 10)
	w.Update(10*time.Millisecond, 20)
	if w.Get() != 10 {
		t.Fatalf("min = %v, want 10", w.Get())
	}
	// At t=150ms the 100ms window has expired both earlier samples.
	w.Update(150*time.Millisecond, 30)
	if w.Get() != 30 {
		t.Fatalf("min after expiry = %v, want 30", w.Get())
	}
	w.Update(160*time.Millisecond, 25)
	if w.Get() != 25 {
		t.Fatalf("min = %v, want 25", w.Get())
	}
	w.Reset()
	if w.Get() != 0 {
		t.Fatal("reset failed")
	}
}

func TestWindowedMaxDominance(t *testing.T) {
	w := WindowedMax{Window: time.Second}
	for i := 0; i < 100; i++ {
		w.Update(time.Duration(i)*time.Millisecond, float64(100-i))
	}
	// Monotonically decreasing input keeps all samples; the max is the
	// first.
	if w.Get() != 100 {
		t.Fatalf("max = %v", w.Get())
	}
	w.Update(100*time.Millisecond, 1000)
	if w.Get() != 1000 {
		t.Fatalf("new max = %v", w.Get())
	}
}

func TestBDPBytes(t *testing.T) {
	// 80 Mbit/s x 100 ms = 1 MB.
	if got := BDPBytes(80e6, 100*time.Millisecond); got != 1000000 {
		t.Fatalf("BDP = %d, want 1000000", got)
	}
	if BDPBytes(0, time.Second) != 0 || BDPBytes(1e6, 0) != 0 {
		t.Fatal("degenerate BDP must be 0")
	}
}
