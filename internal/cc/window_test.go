package cc

import (
	"math/rand"
	"testing"
	"time"

	"pbecc/internal/netsim"
	"pbecc/internal/sim"
)

// refWindow is the reference model the sender's sent-packet ring is
// checked against: the map keyed by sequence plus the send-order slice the
// ring replaced, kept here only as the tests' oracle.
type refWindow struct {
	sent  map[uint64]refPkt
	order []uint64
}

type refPkt struct {
	bytes  int
	sentAt time.Duration
}

func (r *refWindow) send(seq uint64, bytes int, at time.Duration) {
	r.sent[seq] = refPkt{bytes, at}
	r.order = append(r.order, seq)
}

func (r *refWindow) ack(seq uint64) (refPkt, bool) {
	p, ok := r.sent[seq]
	delete(r.sent, seq)
	r.compact()
	return p, ok
}

// compact drops the resolved prefix of the send-order list.
func (r *refWindow) compact() {
	for len(r.order) > 0 {
		if _, ok := r.sent[r.order[0]]; ok {
			return
		}
		r.order = r.order[1:]
	}
}

// sweep returns the sequences older than threshold, in send order,
// stopping at the first young packet.
func (r *refWindow) sweep(now, threshold time.Duration) []uint64 {
	var lost []uint64
	for _, seq := range r.order {
		p, ok := r.sent[seq]
		if !ok {
			continue
		}
		if now-p.sentAt <= threshold {
			break
		}
		delete(r.sent, seq)
		lost = append(lost, seq)
	}
	r.compact()
	return lost
}

func (r *refWindow) inflight() int {
	n := 0
	for _, p := range r.sent {
		n += p.bytes
	}
	return n
}

// windowRig is a sender whose transmissions land in the reference model
// and whose loss sweeps the test triggers by hand (the ticker is stopped),
// so every container operation happens at a time the test chose.
type windowRig struct {
	t    *testing.T
	eng  *sim.Engine
	ctrl *fakeCtrl
	snd  *Sender
	ref  *refWindow
	peak int // the widest window check has seen
}

func newWindowRig(t *testing.T, seed int64, cwndPkts int) *windowRig {
	r := &windowRig{t: t, eng: sim.New(seed), ctrl: &fakeCtrl{cwnd: cwndPkts * netsim.MSS},
		ref: &refWindow{sent: map[uint64]refPkt{}}}
	out := netsim.HandlerFunc(func(now time.Duration, p *netsim.Packet) {
		r.ref.send(p.Seq, p.Size, now)
	})
	r.snd = NewSender(r.eng, 1, out, r.ctrl)
	// Sizes vary with the sequence so a slot holding the wrong packet shows.
	r.snd.Source = func(time.Duration) *netsim.Packet {
		return &netsim.Packet{Size: 100 + int(r.snd.nextSeq*37%1400)}
	}
	r.snd.Start()
	r.snd.lossTicker.Stop()
	return r
}

func (r *windowRig) ack(seq uint64) {
	r.t.Helper()
	now := r.eng.Now()
	before := len(r.ctrl.acks)
	want, ok := r.ref.ack(seq)
	r.snd.HandlePacket(now, &netsim.Packet{IsAck: true, Ack: netsim.AckInfo{AckSeq: seq}})
	got := r.ctrl.acks[before:]
	if !ok {
		if len(got) != 0 {
			r.t.Fatalf("ack %d (stale, duplicate or never sent) reached the controller: %+v", seq, got)
		}
		return
	}
	if len(got) != 1 || got[0].Seq != seq || got[0].AckedBytes != want.bytes || got[0].RTT != now-want.sentAt {
		r.t.Fatalf("ack %d: controller saw %+v, want one sample of %d bytes sent at %v", seq, got, want.bytes, want.sentAt)
	}
}

func (r *windowRig) sweep() {
	r.t.Helper()
	now := r.eng.Now()
	var want []uint64
	if r.snd.srtt > 0 {
		slack := 4 * r.snd.rttvar
		if slack < 10*time.Millisecond {
			slack = 10 * time.Millisecond
		}
		want = r.ref.sweep(now, r.snd.srtt+slack+harqReorderAllowance)
	}
	before := len(r.ctrl.losses)
	r.snd.sweepLosses()
	got := r.ctrl.losses[before:]
	if len(got) != len(want) {
		r.t.Fatalf("sweep at %v declared %d losses, want %d (%v)", now, len(got), len(want), want)
	}
	for i, l := range got {
		if l.Seq != want[i] {
			r.t.Fatalf("sweep at %v: loss %d is seq %d, want %d (send order)", now, i, l.Seq, want[i])
		}
	}
}

// check compares the ring against the model slot by slot and asserts the
// window invariant: base <= every live sequence <= nextSeq.
func (r *windowRig) check() {
	r.t.Helper()
	s := r.snd
	if live := liveSlots(s); live != len(r.ref.sent) || s.inflightBytes != r.ref.inflight() {
		r.t.Fatalf("live %d / inflight %d, model has %d / %d", live, s.inflightBytes, len(r.ref.sent), r.ref.inflight())
	}
	if n := s.nextSeq + 1 - s.base; n != uint64(s.ring.Len()) {
		r.t.Fatalf("window [%d,%d] held in a ring of %d entries", s.base, s.nextSeq, s.ring.Len())
	}
	r.peak = max(r.peak, s.ring.Len())
	for seq, want := range r.ref.sent {
		if seq < s.base || seq > s.nextSeq {
			r.t.Fatalf("seq %d outside window [%d,%d], model %+v", seq, s.base, s.nextSeq, want)
		}
		if slot := s.ring.At(int(seq - s.base)); !slot.live || slot.bytes != want.bytes || slot.sentAt != want.sentAt {
			r.t.Fatalf("seq %d: slot %+v in window [%d,%d], model %+v", seq, *slot, s.base, s.nextSeq, want)
		}
	}
	oldest := s.nextSeq + 1
	for seq := range r.ref.sent {
		if seq < oldest {
			oldest = seq
		}
	}
	if s.base != oldest {
		r.t.Fatalf("base = %d, oldest unresolved sequence is %d (nextSeq %d)", s.base, oldest, s.nextSeq)
	}
}

// liveSlots counts the ring's unresolved packets.
func liveSlots(s *Sender) int {
	n := 0
	for i := 0; i < s.ring.Len(); i++ {
		if s.ring.At(i).live {
			n++
		}
	}
	return n
}

// TestSenderWindowMatchesReference drives the ring and the map/slice model
// with the same randomized script: ACKs out of order, duplicate and stale
// ACKs, ACKs for sequences already declared lost or never sent, loss
// sweeps at arbitrary times, and a window that swings between a few
// packets (the ring wraps many times) and several times the initial ring.
func TestSenderWindowMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newWindowRig(t, seed, 8)
		var resolved []uint64 // acked or lost earlier: duplicate/late ACK targets
		for step := 0; step < 4000; step++ {
			switch k := rng.Intn(10); {
			case k < 5: // ACK a burst of outstanding packets, mostly oldest first
				for n := rng.Intn(64); n > 0 && len(r.ref.sent) > 0; n-- {
					seq := r.ref.order[0]
					if rng.Intn(3) == 0 {
						seq = r.ref.order[rng.Intn(len(r.ref.order))]
					}
					r.ack(seq)
					resolved = append(resolved, seq)
				}
			case k == 5 && len(resolved) > 0: // duplicate, or ACK of a lost packet
				r.ack(resolved[rng.Intn(len(resolved))])
			case k == 6: // never sent
				r.ack(r.snd.nextSeq + 1 + uint64(rng.Intn(1000)))
				r.ack(0)
			case k == 7:
				r.sweep()
				resolved = append(resolved, lossSeqs(r.ctrl.losses)...)
				r.ctrl.losses = r.ctrl.losses[:0]
			case k == 8:
				r.ctrl.cwnd = (1 + rng.Intn(400)) * netsim.MSS
				r.snd.Pump()
			default:
				d := time.Duration(rng.Intn(30)) * time.Millisecond
				if rng.Intn(20) == 0 {
					d = time.Second // a stall: most of what is outstanding times out
				}
				r.eng.RunUntil(r.eng.Now() + d)
			}
			r.check()
			if len(resolved) > 512 {
				resolved = resolved[256:]
			}
		}
		t.Logf("seed %d: %d sent, %d acked, %d lost, window up to %d packets, srtt %v", seed, r.snd.nextSeq, r.snd.AckedPackets, r.snd.LostPackets, r.peak, r.snd.srtt)
		if r.peak <= 64 {
			t.Fatalf("seed %d: window never grew past 64 packets", seed)
		}
		if r.snd.nextSeq < 20*64 {
			t.Fatalf("seed %d: only %d packets sent, the ring barely wrapped", seed, r.snd.nextSeq)
		}
		if r.snd.LostPackets == 0 {
			t.Fatalf("seed %d: script declared no losses", seed)
		}
	}
}

func lossSeqs(ls []LossSample) []uint64 {
	seqs := make([]uint64, len(ls))
	for i, l := range ls {
		seqs[i] = l.Seq
	}
	return seqs
}

// TestSenderWindowWrapsInPlace: a small window acked in order pops every
// resolved packet, so the ring spans the window and no more, for ever: it
// never holds 64 packets under an 8-packet window. (That a ring which
// never fills keeps its buffer is sim.Ring's own contract, FuzzRing's.)
func TestSenderWindowWrapsInPlace(t *testing.T) {
	r := newWindowRig(t, 1, 8)
	for i := 0; i < 50*64; i++ {
		r.eng.RunUntil(r.eng.Now() + time.Millisecond)
		r.ack(r.ref.order[0])
		r.check()
	}
	if r.peak >= 64 {
		t.Fatalf("window grew to %d packets under an 8-packet window", r.peak)
	}
}

// TestSenderWindowGrowsWhenNeverAcked: with no ACK there is no RTT
// estimate, so nothing is ever declared lost and base cannot advance; a
// large window must grow the ring, not wrap onto live slots.
func TestSenderWindowGrowsWhenNeverAcked(t *testing.T) {
	const pkts = 1000
	r := newWindowRig(t, 1, 0) // a zero window still lets the first packet out
	r.ctrl.cwnd = 1 << 30
	n := 1
	r.snd.Source = func(time.Duration) *netsim.Packet {
		if n == pkts {
			return nil
		}
		n++
		return &netsim.Packet{Size: 100 + n}
	}
	r.snd.Pump()
	r.eng.RunUntil(time.Second)
	r.sweep()
	r.check()
	if live := liveSlots(r.snd); live != pkts || r.snd.base != 1 || r.snd.LostPackets != 0 {
		t.Fatalf("live %d, base %d, lost %d; want all %d packets outstanding", live, r.snd.base, r.snd.LostPackets, pkts)
	}
	for _, seq := range rand.New(rand.NewSource(2)).Perm(pkts) {
		r.ack(uint64(seq) + 1)
	}
	r.check()
	if r.snd.AckedPackets != pkts || r.snd.inflightBytes != 0 {
		t.Fatalf("acked %d of %d, %d bytes still in flight", r.snd.AckedPackets, pkts, r.snd.inflightBytes)
	}
}

// quietCtrl is a window-only controller that records nothing.
type quietCtrl struct{ cwnd int }

func (quietCtrl) OnSent(time.Duration, uint64, int) {}
func (quietCtrl) OnAck(AckSample)                   {}
func (quietCtrl) OnLoss(LossSample)                 {}
func (quietCtrl) PacingRate() float64               { return 0 }
func (c quietCtrl) CWND() int                       { return c.cwnd }

// TestSenderSteadyStateAllocatesNothing pins the per-packet loop: once the
// ring has reached the window's size, an ACK plus the transmission it
// clocks out allocate nothing.
func TestSenderSteadyStateAllocatesNothing(t *testing.T) {
	eng := sim.New(1)
	pool := netsim.PoolOf(eng)
	snd := NewSender(eng, 1, &netsim.Sink{Pool: pool}, quietCtrl{cwnd: 200 * netsim.MSS})
	snd.Start()
	next := uint64(1)
	cycle := func() {
		ack := pool.Get()
		ack.IsAck, ack.Ack.AckSeq = true, next
		next++
		snd.HandlePacket(eng.Now(), ack)
	}
	for i := 0; i < 1000; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("send+ACK cycle allocates %.1f objects, want 0", allocs)
	}
	if live := liveSlots(snd); live != 200 || snd.AckedPackets < 2000 {
		t.Fatalf("live %d, acked %d: the cycle did not keep the window full", live, snd.AckedPackets)
	}
}
