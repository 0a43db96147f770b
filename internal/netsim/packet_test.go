package netsim

import (
	"testing"
	"time"

	"pbecc/internal/sim"
)

// TestMediaMetadataSurvivesLinkChain drives a media packet through a
// three-hop chain (pure delay -> rate-limited -> pure delay) and checks
// that the frame metadata and padding flag arrive untouched: the RTC
// subsystem's reassembly depends on links never mutating packets.
func TestMediaMetadataSurvivesLinkChain(t *testing.T) {
	eng := sim.New(1)
	var got *Packet
	var at time.Duration
	sink := &observer{fn: func(now time.Duration, p *Packet) { got, at = p, now }}
	last := NewLink(eng, 0, 5*time.Millisecond, 0, sink)
	mid := NewLink(eng, 12e6, 2*time.Millisecond, 64*1500, last)
	first := NewLink(eng, 0, 3*time.Millisecond, 0, mid)

	want := &Packet{
		FlowID: 7, Seq: 42, Size: 1500, SentAt: 0,
		Media: MediaInfo{
			FrameSeq:   9,
			FrameBytes: 4500,
			Offset:     1500,
			Layer:      2,
			Keyframe:   true,
			CapturedAt: 123 * time.Millisecond,
		},
	}
	first.Send(want)
	eng.RunUntil(time.Second)

	if got == nil {
		t.Fatal("packet never arrived")
	}
	if got != want {
		t.Fatal("links must forward the same packet, not a copy")
	}
	if got.Media != want.Media {
		t.Fatalf("media metadata changed in flight: %+v", got.Media)
	}
	// 3 + 2 + 5 ms propagation plus 1 ms serialization at 12 Mbit/s.
	if wantAt := 11 * time.Millisecond; at != wantAt {
		t.Fatalf("arrival at %v, want %v", at, wantAt)
	}
}

func TestPaddingFlagAndMediaPredicate(t *testing.T) {
	pad := &Packet{FlowID: 1, Seq: 1, Size: MSS, Padding: true}
	if pad.Media.FrameBytes != 0 {
		t.Fatal("padding must not look like a media packet")
	}
	media := &Packet{FlowID: 1, Seq: 2, Size: MSS,
		Media: MediaInfo{FrameSeq: 1, FrameBytes: MSS}}
	if media.Media.FrameBytes == 0 {
		t.Fatal("media packet lost its frame size")
	}
}

// TestAckInfoSurvivesReversePath checks the acknowledgement payload
// through a pure-delay reverse link.
func TestAckInfoSurvivesReversePath(t *testing.T) {
	eng := sim.New(1)
	var got *Packet
	sink := &observer{fn: func(now time.Duration, p *Packet) { got = p }}
	back := NewLink(eng, 0, 10*time.Millisecond, 0, sink)

	ack := &Packet{
		FlowID: 3, Seq: 5, Size: 60, IsAck: true,
		Ack: AckInfo{AckSeq: 5, FeedbackRate: 42e6, InternetBottleneck: true},
	}
	back.Send(ack)
	eng.RunUntil(time.Second)

	if got == nil || !got.IsAck {
		t.Fatal("ack never arrived")
	}
	if got.Ack != ack.Ack {
		t.Fatalf("ack payload changed in flight: %+v", got.Ack)
	}
}

// TestLinkCountersAcrossChain checks the delivery/drop accounting on a
// chain whose middle hop overflows: upstream counts every packet as
// delivered, the bottleneck splits them between Delivered and Drops, and
// byte counters stay consistent with packet counters.
func TestLinkCountersAcrossChain(t *testing.T) {
	eng := sim.New(1)
	sink := &Sink{}
	// 1.2 Mbit/s bottleneck with a two-packet queue.
	bottleneck := NewLink(eng, 1.2e6, time.Millisecond, 2*MSS, sink)
	front := NewLink(eng, 0, time.Millisecond, 0, bottleneck)

	const n = 20
	for i := 0; i < n; i++ {
		front.Send(&Packet{FlowID: 1, Seq: uint64(i + 1), Size: MSS})
	}
	eng.RunUntil(time.Second)

	if front.Delivered != n || front.Drops != 0 {
		t.Fatalf("front delivered=%d drops=%d, want %d/0", front.Delivered, front.Drops, n)
	}
	if bottleneck.Delivered+bottleneck.Drops != n {
		t.Fatalf("bottleneck delivered=%d + drops=%d != %d",
			bottleneck.Delivered, bottleneck.Drops, n)
	}
	if bottleneck.Drops == 0 {
		t.Fatal("burst into a two-packet queue dropped nothing")
	}
	if bottleneck.SentBytes != bottleneck.Delivered*MSS {
		t.Fatalf("SentBytes=%d for %d delivered MSS packets",
			bottleneck.SentBytes, bottleneck.Delivered)
	}
	if bottleneck.DropsBytes != bottleneck.Drops*MSS {
		t.Fatalf("DropsBytes=%d for %d drops", bottleneck.DropsBytes, bottleneck.Drops)
	}
	if sink.Count != bottleneck.Delivered || sink.Bytes != bottleneck.SentBytes {
		t.Fatalf("sink %d/%dB disagrees with bottleneck %d/%dB",
			sink.Count, sink.Bytes, bottleneck.Delivered, bottleneck.SentBytes)
	}
}

// TestQueuedBytesTracksOccupancy checks the queue gauge during a burst.
func TestQueuedBytesTracksOccupancy(t *testing.T) {
	eng := sim.New(1)
	l := NewLink(eng, 12e6, 0, 10*MSS, &Sink{})
	for i := 0; i < 5; i++ {
		l.Send(&Packet{Seq: uint64(i + 1), Size: MSS})
	}
	// One packet is in serialization; four wait in the queue.
	if got := l.queuedBytes; got != 4*MSS {
		t.Fatalf("QueuedBytes = %d, want %d", got, 4*MSS)
	}
	eng.RunUntil(time.Second)
	if got := l.queuedBytes; got != 0 {
		t.Fatalf("QueuedBytes = %d after drain, want 0", got)
	}
}
