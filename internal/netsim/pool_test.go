package netsim

import (
	"testing"

	"pbecc/internal/sim"
)

// TestPacketPoolReuse: released packets come back zeroed, and the pool
// actually reuses them instead of allocating.
func TestPacketPoolReuse(t *testing.T) {
	eng := sim.New(1)
	pool := PoolOf(eng)
	if PoolOf(eng) != pool {
		t.Fatal("PoolOf must return the engine's one pool")
	}
	p := pool.Get()
	p.FlowID, p.Seq, p.Size, p.IsAck = 7, 42, MSS, true
	pool.Release(p)
	q := pool.Get()
	if q != p {
		t.Fatal("expected the released packet back")
	}
	if q.FlowID != 0 || q.Seq != 0 || q.Size != 0 || q.IsAck {
		t.Fatalf("reused packet not zeroed: %+v", q)
	}
}

// TestPacketHandleGoesStale is the generation guard: a handle taken
// before release must deterministically report dead afterwards - even
// once the packet has been recycled into an unrelated transmission - so
// a holder can never alias the new owner's packet.
func TestPacketHandleGoesStale(t *testing.T) {
	eng := sim.New(1)
	pool := PoolOf(eng)
	p := pool.Get()
	h := HandleOf(p)
	if !h.Live() || h.Packet() != p {
		t.Fatal("fresh handle must be live")
	}
	pool.Release(p)
	if h.Live() || h.Packet() != nil {
		t.Fatal("handle must go stale at release")
	}
	q := pool.Get() // recycles p under a new generation
	if q != p {
		t.Fatal("expected recycled packet")
	}
	if h.Live() || h.Packet() != nil {
		t.Fatal("stale handle must not resurrect on reuse")
	}
	if h2 := HandleOf(q); !h2.Live() {
		t.Fatal("new owner's handle must be live")
	}
}

// TestPacketPoolDoubleReleasePanics: releasing the same packet twice is
// a hard ownership bug and must fail loudly and deterministically.
func TestPacketPoolDoubleReleasePanics(t *testing.T) {
	eng := sim.New(1)
	pool := PoolOf(eng)
	p := pool.Get()
	pool.Release(p)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double release")
		}
	}()
	pool.Release(p)
}

// TestPacketPoolUnpooledNoop: packets allocated outside a pool (tests,
// pooling disabled) release as no-ops and their handles never go stale.
func TestPacketPoolUnpooledNoop(t *testing.T) {
	eng := sim.New(1)
	pool := PoolOf(eng)
	p := &Packet{Seq: 9}
	h := HandleOf(p)
	pool.Release(p)
	pool.Release(p) // no double-release panic for unpooled packets
	if !h.Live() || h.Packet() != p {
		t.Fatal("unpooled handle must stay live")
	}
	if got := pool.Get(); got == p {
		t.Fatal("unpooled packet must not enter the free list")
	}
}

// TestPacketPoolKillSwitch: with pooling off, Get allocates unpooled
// packets, so release becomes a no-op and nothing is ever reused.
func TestPacketPoolKillSwitch(t *testing.T) {
	prev := SetPooling(false)
	defer SetPooling(prev)
	eng := sim.New(1)
	pool := PoolOf(eng)
	p := pool.Get()
	pool.Release(p)
	if q := pool.Get(); q == p {
		t.Fatal("pooling disabled: packets must not be reused")
	}
}

// TestPacketPoolCrossPoolAdoption: releasing into a different engine's
// pool (the cross-shard case) migrates the packet there.
func TestPacketPoolCrossPoolAdoption(t *testing.T) {
	a, b := PoolOf(sim.New(1)), PoolOf(sim.New(2))
	p := a.Get()
	b.Release(p)
	if got := b.Get(); got != p {
		t.Fatal("releasing pool must adopt the packet")
	}
	if got := a.Get(); got == p {
		t.Fatal("origin pool must not also hold the packet")
	}
}

// TestPacketPoolRecycle: recycling the engine takes back every packet the
// run took from the pool - released or still held - and handles to them
// stay stale even once the next run is handed the same packets; that run
// allocates nothing, and a run that needs fewer leaves the pool holding
// only those. Packets adopted from another pool go back to their maker.
func TestPacketPoolRecycle(t *testing.T) {
	eng := sim.New(1)
	pp := PoolOf(eng)
	var ps []*Packet
	var hs []PacketHandle
	for i := 0; i < 6; i++ {
		p := pp.Get()
		ps, hs = append(ps, p), append(hs, HandleOf(p))
	}
	pp.Release(ps[0])
	pp.Release(ps[1]) // ps[2:] are still queued or in flight at the end
	other := PoolOf(sim.New(2))
	foreign := other.Get()
	pp.Release(foreign)

	eng.Recycle()
	if len(pp.free) != 6 || len(pp.slab) != 6 {
		t.Fatalf("after recycle: %d free, slab %d; want the run's 6 packets", len(pp.free), len(pp.slab))
	}
	mine := map[*Packet]bool{}
	for _, p := range ps {
		mine[p] = true
	}
	var again []*Packet
	for i := 0; i < 6; i++ {
		p := pp.Get()
		if !mine[p] {
			t.Fatal("the next run got a packet the pool did not take back")
		}
		again = append(again, p)
	}
	for i, h := range hs {
		if h.Live() {
			t.Fatalf("handle %d from the previous run is live in the next", i)
		}
	}

	// The next run releases two and holds the rest; the one after touches
	// only two packets, so the other four are dropped.
	pp.Release(again[0])
	pp.Release(again[1])
	eng.Recycle()
	a, b := pp.Get(), pp.Get()
	pp.Release(a)
	_ = b // still held at the end
	eng.Recycle()
	if len(pp.slab) != 2 || len(pp.free) != 2 {
		t.Fatalf("after a smaller run: slab %d, free %d; want 2", len(pp.slab), len(pp.free))
	}
	for _, p := range pp.free {
		if p == foreign || !p.pooled || p.pool != pp {
			t.Fatal("free list holds a packet this pool does not own")
		}
	}
}
