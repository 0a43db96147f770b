package rtc

import (
	"math/rand"
	"testing"
	"time"

	"pbecc/internal/netsim"
	"pbecc/internal/sim"
)

// TestJitterBufferNeverReleasesOutOfOrder is the ordering property: under
// random packetization, random delivery order, random duplication and
// random loss, the jitter buffer must release frames with strictly
// increasing sequence numbers and never release a frame it has not fully
// received.
func TestJitterBufferNeverReleasesOutOfOrder(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		eng := sim.New(int64(trial))
		jb := NewJitterBuffer(eng)

		var released []Frame
		jb.OnFrame = func(f Frame, delay time.Duration) { released = append(released, f) }

		const frames = 40
		sizes := make([]int, frames)
		type delivery struct {
			at time.Duration
			p  *netsim.Packet
		}
		var sched []delivery
		for seq := 0; seq < frames; seq++ {
			sizes[seq] = 200 + rng.Intn(6000)
			if rng.Float64() < 0.15 {
				continue // whole frame lost
			}
			captured := time.Duration(seq) * 33 * time.Millisecond
			for off := 0; off < sizes[seq]; off += netsim.MSS {
				size := netsim.MSS
				if sizes[seq]-off < size {
					size = sizes[seq] - off
				}
				if rng.Float64() < 0.05 {
					continue // packet lost
				}
				copies := 1
				if rng.Float64() < 0.05 {
					copies = 2 // duplicated
				}
				for c := 0; c < copies; c++ {
					jitter := time.Duration(rng.Intn(120)) * time.Millisecond
					sched = append(sched, delivery{captured + jitter, &netsim.Packet{
						Size: size,
						Media: netsim.MediaInfo{
							FrameSeq:   uint64(seq),
							FrameBytes: sizes[seq],
							Offset:     off,
							CapturedAt: captured,
						},
					}})
				}
			}
		}
		for _, d := range sched {
			d := d
			eng.At(d.at, func() { jb.Add(eng.Now(), d.p) })
		}
		eng.RunUntil(10 * time.Second)

		for i := 1; i < len(released); i++ {
			if released[i].Seq <= released[i-1].Seq {
				t.Fatalf("trial %d: released %d after %d", trial, released[i].Seq, released[i-1].Seq)
			}
		}
		for _, f := range released {
			if f.Bytes != sizes[f.Seq] {
				t.Fatalf("trial %d: frame %d released with %d bytes, want %d",
					trial, f.Seq, f.Bytes, sizes[f.Seq])
			}
		}
		st := jb.Stats()
		if st.Released != uint64(len(released)) {
			t.Fatalf("trial %d: stats released %d, callback saw %d", trial, st.Released, len(released))
		}
	}
}

// TestJitterBufferDuplicatesDoNotInflate checks that duplicated packets
// cannot complete a frame that is still missing data.
func TestJitterBufferDuplicatesDoNotInflate(t *testing.T) {
	eng := sim.New(1)
	jb := NewJitterBuffer(eng)
	var released int
	jb.OnFrame = func(f Frame, delay time.Duration) { released++ }

	first := &netsim.Packet{Size: 1500, Media: netsim.MediaInfo{FrameSeq: 0, FrameBytes: 3000, Offset: 0}}
	jb.Add(time.Millisecond, first)
	jb.Add(2*time.Millisecond, first) // duplicate of the same half
	if released != 0 {
		t.Fatal("a duplicated packet completed a half-received frame")
	}
	second := &netsim.Packet{Size: 1500, Media: netsim.MediaInfo{FrameSeq: 0, FrameBytes: 3000, Offset: 1500}}
	jb.Add(3*time.Millisecond, second)
	if released != 1 {
		t.Fatalf("released = %d after the real second half, want 1", released)
	}
}
