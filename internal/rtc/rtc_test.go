package rtc

import (
	"slices"
	"testing"
	"time"

	"pbecc/internal/cc"
	"pbecc/internal/cc/gcc"
	"pbecc/internal/netsim"
	"pbecc/internal/obs"
	"pbecc/internal/sim"
)

func TestEncoderGoPStructureAndRate(t *testing.T) {
	eng := sim.New(1)
	var frames []Frame
	enc := NewEncoder(eng, MediaSpec{}, func(f Frame) { frames = append(frames, f) })
	enc.Available = func() float64 { return 8e6 } // top rung at default headroom? 8e6*0.85=6.8M -> layer 5e6
	enc.Start()
	eng.RunUntil(2 * time.Second)

	if len(frames) != 61 { // t=0 plus 60 ticks
		t.Fatalf("produced %d frames, want 61", len(frames))
	}
	keyframes := 0
	var bytes int
	for _, f := range frames[:60] {
		if f.Keyframe {
			keyframes++
		}
		bytes += f.Bytes
	}
	if keyframes != 2 {
		t.Fatalf("%d keyframes in 2 s with a 1 s GoP, want 2", keyframes)
	}
	// 60 frames at the 5 Mbit/s rung: about 10 Mbit total.
	rate := float64(bytes) * 8 / 2
	if rate < 4.5e6 || rate > 5.5e6 {
		t.Fatalf("encoded rate %.0f bit/s, want ~5e6", rate)
	}
	// Keyframes are boosted relative to delta frames.
	if frames[0].Bytes <= frames[1].Bytes*3 {
		t.Fatalf("keyframe %dB not boosted vs delta %dB", frames[0].Bytes, frames[1].Bytes)
	}
}

func TestEncoderAdaptsDownTheLadder(t *testing.T) {
	eng := sim.New(1)
	rate := 8e6
	var layers []int
	enc := NewEncoder(eng, MediaSpec{}, func(f Frame) { layers = append(layers, f.Layer) })
	enc.Available = func() float64 { return rate }
	enc.Start()
	eng.At(time.Second, func() { rate = 500e3 })
	eng.RunUntil(2 * time.Second)
	if layers[0] != 3 { // 8e6*0.85 = 6.8M -> 5 Mbit/s rung (index 3)
		t.Fatalf("start layer %d, want 3", layers[0])
	}
	if last := layers[len(layers)-1]; last != 0 {
		t.Fatalf("layer after rate collapse = %d, want 0", last)
	}
}

func TestSimulcastProducesEveryRung(t *testing.T) {
	eng := sim.New(1)
	perLayer := map[int]int{}
	enc := NewEncoder(eng, MediaSpec{Simulcast: true}, func(f Frame) { perLayer[f.Layer]++ })
	enc.Start()
	eng.RunUntil(time.Second)
	if len(perLayer) != len(DefaultLadder) {
		t.Fatalf("saw %d layers, want %d", len(perLayer), len(DefaultLadder))
	}
	for l, n := range perLayer {
		if n != 31 {
			t.Fatalf("layer %d produced %d frames, want 31", l, n)
		}
	}
}

func TestSenderShedsStaleFrames(t *testing.T) {
	cl := sim.NewCluster(1)
	rec := obs.NewSeriesRecorder()
	cl.SetSeriesRecorder(rec)
	eng := cl.AddShard().Engine
	sink := &netsim.Sink{}
	// A starved controller: 100 kbit/s pacing against a 2.5 Mbit/s stream.
	ctrl := &fixedRateController{rate: 100e3}
	snd := NewSender(eng, 1, sink, ctrl, MediaSpec{})
	snd.Start()
	enc := NewEncoder(eng, MediaSpec{}, snd.QueueFrame)
	enc.Available = func() float64 { return 2.5e6 / 0.85 }
	enc.Start()
	cl.RunUntil(4 * time.Second)
	if snd.FramesDropped == 0 {
		t.Fatal("overloaded sender never shed a frame")
	}
	// Every shed frame is one sample on the flow's rtc.shed series.
	shed := 0
	for _, p := range rec.TrackPoints("rtc.shed", 1) {
		shed += p.Count
	}
	if uint64(shed) != snd.FramesDropped {
		t.Fatalf("rtc.shed series counts %d sheds, sender dropped %d frames", shed, snd.FramesDropped)
	}
	// The queue must stay near the maxQueueDelay bound, not grow without
	// limit: at 2.5 Mbit/s in and 0.1 Mbit/s out, an unbounded queue
	// would hold dozens of frames.
	if q := snd.frames.Len(); q > 16 {
		t.Fatalf("queue holds %d frames despite deadline shedding", q)
	}
}

// TestSenderSkipsEmptyFrames queues a 0-byte frame ahead of real ones: it
// has no packet to send, so the sender drops it instead of parking an
// empty record at the head of its queue. The 40 real frames that follow
// outgrow the first frame ring twice; every one of their packets must
// still leave in queue order.
func TestSenderSkipsEmptyFrames(t *testing.T) {
	eng := sim.New(1)
	type sent struct {
		seq uint64
		off int
	}
	var got []sent
	out := netsim.HandlerFunc(func(_ time.Duration, p *netsim.Packet) {
		if !p.Padding {
			got = append(got, sent{p.Media.FrameSeq, p.Media.Offset})
		}
	})
	snd := NewSender(eng, 1, out, &fixedRateController{rate: 100e6}, MediaSpec{})
	snd.QueueFrame(Frame{Seq: 0, Bytes: 0})
	var want []sent
	for seq := uint64(1); seq <= 40; seq++ {
		snd.QueueFrame(Frame{Seq: seq, Bytes: 4000})
		for off := 0; off < 4000; off += netsim.MSS {
			want = append(want, sent{seq, off})
		}
	}
	snd.Start()
	eng.RunUntil(100 * time.Millisecond)
	if !slices.Equal(got, want) {
		t.Fatalf("sent %v, want %v", got, want)
	}
}

// fixedRateController paces at a constant rate with a generous window.
type fixedRateController struct{ rate float64 }

func (c *fixedRateController) OnSent(now time.Duration, seq uint64, infl int) {}
func (c *fixedRateController) OnAck(s cc.AckSample)                           {}
func (c *fixedRateController) OnLoss(l cc.LossSample)                         {}
func (c *fixedRateController) PacingRate() float64                            { return c.rate }
func (c *fixedRateController) CWND() int                                      { return 1 << 30 }

func TestJitterBufferReassemblyAndOrder(t *testing.T) {
	eng := sim.New(1)
	jb := NewJitterBuffer(eng)
	var released []uint64
	jb.OnFrame = func(f Frame, delay time.Duration) { released = append(released, f.Seq) }

	mk := func(seq uint64, frameBytes, off, size int) *netsim.Packet {
		return &netsim.Packet{Size: size, Media: netsim.MediaInfo{
			FrameSeq: seq, FrameBytes: frameBytes, Offset: off,
		}}
	}
	// Frame 0 in two packets; frame 1 complete before frame 0 finishes.
	jb.Add(10*time.Millisecond, mk(0, 3000, 0, 1500))
	jb.Add(11*time.Millisecond, mk(1, 1500, 0, 1500))
	if len(released) != 0 {
		t.Fatal("released a frame before an older frame completed")
	}
	jb.Add(12*time.Millisecond, mk(0, 3000, 1500, 1500))
	if len(released) != 2 || released[0] != 0 || released[1] != 1 {
		t.Fatalf("release order %v, want [0 1]", released)
	}
}

func TestJitterBufferSkipsLostFrame(t *testing.T) {
	eng := sim.New(1)
	jb := NewJitterBuffer(eng)
	var released []uint64
	jb.OnFrame = func(f Frame, delay time.Duration) { released = append(released, f.Seq) }

	mk := func(seq uint64) *netsim.Packet {
		return &netsim.Packet{Size: 1000, Media: netsim.MediaInfo{FrameSeq: seq, FrameBytes: 1000}}
	}
	eng.At(10*time.Millisecond, func() { jb.Add(eng.Now(), mk(0)) })
	// Frame 1 is lost; frames 2 and 3 arrive.
	eng.At(20*time.Millisecond, func() { jb.Add(eng.Now(), mk(2)) })
	eng.At(30*time.Millisecond, func() { jb.Add(eng.Now(), mk(3)) })
	eng.RunUntil(time.Second)

	want := []uint64{0, 2, 3}
	if len(released) != 3 {
		t.Fatalf("released %v, want %v", released, want)
	}
	for i, s := range want {
		if released[i] != s {
			t.Fatalf("released %v, want %v", released, want)
		}
	}
	if jb.Stats().Skipped != 1 {
		t.Fatalf("skipped = %d, want 1", jb.Stats().Skipped)
	}
}

// runCall drives an end-to-end adaptive call over a fixed-rate bottleneck.
func runCall(t *testing.T, ctrl cc.Controller, feedback cc.FeedbackSource, linkBps float64, dur time.Duration) (*FrameStats, *Sender) {
	t.Helper()
	eng := sim.New(11)
	spec := MediaSpec{}
	var snd *Sender
	ackLink := netsim.NewLink(eng, 0, 20*time.Millisecond, 0, netsim.HandlerFunc(func(now time.Duration, p *netsim.Packet) {
		snd.HandlePacket(now, p)
	}))
	rcv := NewReceiver(eng, 1, ackLink, spec)
	rcv.Transport().Feedback = feedback
	fwd := netsim.NewLink(eng, linkBps, 20*time.Millisecond, 100*1500, rcv)
	snd = NewSender(eng, 1, fwd, ctrl, spec)
	snd.Start()
	enc := NewEncoder(eng, spec, snd.QueueFrame)
	enc.Available = snd.AvailableRate
	enc.Start()
	eng.RunUntil(dur)
	return rcv.Stats(), snd
}

func TestCallOverBottleneckWithGCC(t *testing.T) {
	st, snd := runCall(t, gcc.New(), gcc.NewREMB(), 4e6, 10*time.Second)
	if st.Released < 200 {
		t.Fatalf("only %d frames released in 10 s", st.Released)
	}
	// On a 4 Mbit/s link the adaptive encoder must settle on a rung the
	// link carries with interactive delay.
	if p95 := st.Delay.Percentile(95); p95 > 200 {
		t.Fatalf("p95 frame delay %.1f ms", p95)
	}
	if st.LatePct() > 20 {
		t.Fatalf("%.1f%% of frames late", st.LatePct())
	}
	_ = snd
}

func TestSFUFanoutLayerSelection(t *testing.T) {
	eng := sim.New(5)
	spec := MediaSpec{Simulcast: true}
	sfu := NewSFU(eng, spec)

	// Two subscribers: one wide link, one narrow link.
	type leg struct {
		rcv  *Receiver
		link *netsim.Link
	}
	mkLeg := func(id int, bps float64) *leg {
		l := &leg{}
		var sub *Subscriber
		ackLink := netsim.NewLink(eng, 0, 10*time.Millisecond, 0, netsim.HandlerFunc(func(now time.Duration, p *netsim.Packet) {
			sub.Send.HandlePacket(now, p)
		}))
		l.rcv = NewReceiver(eng, id, ackLink, sfu.LegSpec())
		l.rcv.Transport().Feedback = gcc.NewREMB()
		l.link = netsim.NewLink(eng, bps, 10*time.Millisecond, 60*1500, l.rcv)
		sub = sfu.AddSubscriber(id, l.link, gcc.New())
		return l
	}
	wide := mkLeg(1, 20e6)
	narrow := mkLeg(2, 600e3)
	sfu.Start()

	enc := NewEncoder(eng, spec, sfu.OnFrame)
	enc.Start()
	eng.RunUntil(10 * time.Second)

	ws, ns := wide.rcv.Stats(), narrow.rcv.Stats()
	if ws.Released < 200 || ns.Released < 100 {
		t.Fatalf("released wide=%d narrow=%d", ws.Released, ns.Released)
	}
	if sfu.subs[0].layer <= sfu.subs[1].layer {
		t.Fatalf("wide leg layer %d not above narrow leg layer %d",
			sfu.subs[0].layer, sfu.subs[1].layer)
	}
	if ns.LatePct() > 30 {
		t.Fatalf("narrow leg %.1f%% late despite layer-down", ns.LatePct())
	}
}

// TestJitterBufferAddAllocatesNothing pins steady-state playout: once the
// buffer has recycled a few frames (and its delay series has room), adding
// packets and releasing frames allocates nothing.
func TestJitterBufferAddAllocatesNothing(t *testing.T) {
	eng := sim.New(1)
	jb := NewJitterBuffer(eng)
	p := &netsim.Packet{Size: 1000, Media: netsim.MediaInfo{FrameBytes: 2000}}
	var seq uint64
	frame := func() {
		now := time.Duration(seq) * 33 * time.Millisecond
		p.Media.FrameSeq, p.Media.CapturedAt = seq, now
		p.Media.Offset = 0
		jb.Add(now, p)
		p.Media.Offset = 1000
		jb.Add(now, p)
		seq++
	}
	for i := 0; i < 4096; i++ {
		frame()
	}
	jb.stats.Delay.Reset() // room for the measured frames
	// One run of a 1000-frame batch (after one warm-up batch) counts every
	// allocation: AllocsPerRun's per-run average would round rare ones away.
	batch := func() {
		for i := 0; i < 1000; i++ {
			frame()
		}
	}
	if n := testing.AllocsPerRun(1, batch); n != 0 {
		t.Fatalf("1000 warmed frames allocate %v times, want 0", n)
	}
	if jb.Stats().Released != 4096+2000 {
		t.Fatalf("released %d frames, want %d", jb.Stats().Released, 4096+2000)
	}
}
