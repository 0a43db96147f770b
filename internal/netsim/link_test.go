package netsim

import (
	"testing"
	"time"

	"pbecc/internal/sim"
)

// observer counts deliveries like a Sink and hands each one to fn.
type observer struct {
	Sink
	fn func(now time.Duration, p *Packet)
}

func (o *observer) HandlePacket(now time.Duration, p *Packet) {
	o.Sink.HandlePacket(now, p)
	o.fn(now, p)
}

func TestPureDelayLink(t *testing.T) {
	eng := sim.New(1)
	var at time.Duration
	sink := &observer{fn: func(now time.Duration, p *Packet) { at = now }}
	l := NewLink(eng, 0, 25*time.Millisecond, 0, sink)
	l.Send(&Packet{Size: MSS})
	eng.Run()
	if at != 25*time.Millisecond {
		t.Fatalf("delivery at %v, want 25ms", at)
	}
	if sink.Count != 1 {
		t.Fatalf("count = %d, want 1", sink.Count)
	}
}

func TestSerializationDelay(t *testing.T) {
	eng := sim.New(1)
	var times []time.Duration
	sink := &observer{fn: func(now time.Duration, p *Packet) { times = append(times, now) }}
	// 12 Mbit/s: one 1500-byte packet takes exactly 1 ms to serialize.
	l := NewLink(eng, 12e6, 0, 0, sink)
	for i := 0; i < 3; i++ {
		l.Send(&Packet{Seq: uint64(i), Size: MSS})
	}
	eng.Run()
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("packet %d delivered at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestDropTail(t *testing.T) {
	eng := sim.New(1)
	sink := &Sink{}
	// Tiny queue: room for exactly 2 queued packets.
	l := NewLink(eng, 12e6, 0, 2*MSS, sink)
	for i := 0; i < 10; i++ {
		l.Send(&Packet{Seq: uint64(i), Size: MSS})
	}
	// One packet may be in transmission plus 2 queued; the rest drop.
	eng.Run()
	if l.Drops == 0 {
		t.Fatal("no drops with full queue")
	}
	if sink.Count+l.Drops != 10 {
		t.Fatalf("delivered %d + dropped %d != 10", sink.Count, l.Drops)
	}
	if sink.Count < 2 || sink.Count > 4 {
		t.Fatalf("delivered %d, want 2-4", sink.Count)
	}
}

func TestQueueDrainsAfterBurst(t *testing.T) {
	eng := sim.New(1)
	sink := &Sink{}
	l := NewLink(eng, 12e6, 0, 100*MSS, sink)
	for i := 0; i < 50; i++ {
		l.Send(&Packet{Seq: uint64(i), Size: MSS})
	}
	eng.Run()
	if sink.Count != 50 {
		t.Fatalf("delivered %d, want 50", sink.Count)
	}
	if l.queuedBytes != 0 {
		t.Fatalf("queue not drained: %d bytes", l.queuedBytes)
	}
	if eng.Now() != 50*time.Millisecond {
		t.Fatalf("drain completed at %v, want 50ms", eng.Now())
	}
}

func TestFIFOOrder(t *testing.T) {
	eng := sim.New(1)
	var seqs []uint64
	sink := &observer{fn: func(now time.Duration, p *Packet) { seqs = append(seqs, p.Seq) }}
	l := NewLink(eng, 10e6, 5*time.Millisecond, 0, sink)
	for i := 0; i < 20; i++ {
		l.Send(&Packet{Seq: uint64(i), Size: MSS})
	}
	eng.Run()
	for i := range seqs {
		if seqs[i] != uint64(i) {
			t.Fatalf("out of order delivery: %v", seqs)
		}
	}
}

func TestLinkChaining(t *testing.T) {
	eng := sim.New(1)
	var at time.Duration
	sink := &observer{fn: func(now time.Duration, p *Packet) { at = now }}
	l2 := NewLink(eng, 0, 10*time.Millisecond, 0, sink)
	l1 := NewLink(eng, 12e6, 10*time.Millisecond, 0, l2)
	l1.Send(&Packet{Size: MSS})
	eng.Run()
	// 1 ms serialization + 10 ms + 10 ms propagation.
	if at != 21*time.Millisecond {
		t.Fatalf("chained delivery at %v, want 21ms", at)
	}
}

func TestCrossTrafficRate(t *testing.T) {
	eng := sim.New(1)
	sink := &Sink{}
	ct := NewCrossTraffic(eng, sink, 12e6, 7)
	ct.Start()
	eng.RunUntil(time.Second)
	// 12 Mbit/s = 1000 packets/sec of 1500 bytes.
	if sink.Count < 995 || sink.Count > 1005 {
		t.Fatalf("cross traffic delivered %d packets in 1s, want ~1000", sink.Count)
	}
	ct.Stop()
	before := sink.Count
	eng.RunUntil(2 * time.Second)
	if sink.Count != before {
		t.Fatal("cross traffic kept sending after Stop")
	}
}

func TestCrossTrafficRestart(t *testing.T) {
	eng := sim.New(1)
	sink := &Sink{}
	ct := NewCrossTraffic(eng, sink, 12e6, 7)
	ct.Start()
	ct.Start() // double start must not double rate
	eng.RunUntil(time.Second)
	if sink.Count > 1005 {
		t.Fatalf("double Start doubled the rate: %d", sink.Count)
	}
	ct.Stop()
	ct.Start()
	eng.RunUntil(2 * time.Second)
	if sink.Count < 1990 || sink.Count > 2010 {
		t.Fatalf("restart broken: %d packets after 2s", sink.Count)
	}
}

func TestHandlerFunc(t *testing.T) {
	called := false
	HandlerFunc(func(now time.Duration, p *Packet) { called = true }).HandlePacket(0, nil)
	if !called {
		t.Fatal("HandlerFunc did not call through")
	}
}
