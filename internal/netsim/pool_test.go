package netsim

import (
	"runtime"
	"testing"
	"unsafe"

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
// allocates nothing, and neither does a smaller run after it, whose
// recycle keeps the larger set. A packet adopted into another pool's free
// list is dropped there at recycle and handed out again by its maker.
func TestPacketPoolRecycle(t *testing.T) {
	eng, engB := sim.New(1), sim.New(2)
	pp, other := PoolOf(eng), PoolOf(engB)
	const n = 2*packetBlock + 5
	ps := make([]*Packet, n)
	hs := make([]PacketHandle, n)
	for i := range ps {
		ps[i] = pp.Get()
		hs[i] = HandleOf(ps[i])
	}
	pp.Release(ps[0])
	pp.Release(ps[1])
	other.Release(ps[2]) // adopted across shards; ps[3:] are still held
	foreign := other.Get()
	if foreign != ps[2] {
		t.Fatal("the adopting pool must hand its adopted packet out first")
	}
	pp.Release(foreign) // back into the maker's free list before the end

	eng.Recycle()
	engB.Recycle()
	for i, h := range hs {
		if h.Live() || h.Packet() != nil {
			t.Fatalf("handle %d from the previous run is live after recycle", i)
		}
	}
	if len(pp.free) != 0 || len(other.free) != 0 {
		t.Fatalf("free lists hold %d and %d packets after recycle, want 0", len(pp.free), len(other.free))
	}
	mine := map[*Packet]bool{}
	for _, p := range ps {
		mine[p] = true
	}
	again := make([]*Packet, n)
	if allocs, _ := allocsOf(func() {
		for i := range again {
			again[i] = pp.Get()
		}
	}); allocs != 0 {
		t.Fatalf("the next run's %d packets cost %d allocations, want 0", n, allocs)
	}
	seen := map[*Packet]bool{}
	for i, p := range again {
		if !mine[p] || seen[p] {
			t.Fatalf("packet %d of the next run is not one of the previous run's, or repeats", i)
		}
		seen[p] = true
		if p.pool != pp || p.pooled || p.gen == 0 {
			t.Fatalf("packet %d handed out as pool %p, pooled %v, gen %d", i, p.pool, p.pooled, p.gen)
		}
		if h := HandleOf(p); !h.Live() {
			t.Fatalf("the new owner's handle of packet %d is stale", i)
		}
	}
	if got := other.Get(); mine[got] {
		t.Fatal("the adopting pool handed out its maker's packet after recycle")
	}

	// A smaller run after the large one: the recycle keeps every block.
	eng.Recycle()
	pp.Release(pp.Get())
	pp.Get() // still held at the end
	eng.Recycle()
	if len(pp.blocks) != 3 {
		t.Fatalf("after a smaller run the pool keeps %d blocks, want the 3 the largest run needed", len(pp.blocks))
	}
	if allocs, _ := allocsOf(func() {
		for range n {
			pp.Get()
		}
	}); allocs != 0 {
		t.Fatalf("a run as large as the largest before cost %d allocations, want 0", allocs)
	}
}

// TestPacketPoolBlocks: n live packets cost at most ceil(n/63) block
// allocations and a few hundred bytes of bookkeeping (the block table and
// the free list), and a packet released in between is handed out again
// before the cursor moves on.
func TestPacketPoolBlocks(t *testing.T) {
	for _, n := range []int{1, packetBlock - 1, packetBlock, packetBlock + 1, 5*packetBlock + 17} {
		pp := PoolOf(sim.New(1))
		_, bytes := allocsOf(func() {
			for range n {
				pp.Get()
				pp.Release(pp.Get())
			}
		})
		live := n + 1 // the released packet stays in the free list
		blocks := (live + packetBlock - 1) / packetBlock
		if len(pp.blocks) != blocks {
			t.Errorf("%d live packets: %d blocks, want %d", live, len(pp.blocks), blocks)
		}
		if limit := blocks*8192 + 512; bytes > uint64(limit) {
			t.Errorf("%d live packets: %d bytes allocated, want at most %d", live, bytes, limit)
		}
	}
}

// allocsOf counts the heap allocations of one call of f and their bytes.
func allocsOf(f func()) (n, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestPacketLayout pins the packet at 128 bytes, so 63 fill one 8 KB
// block, with the pool bookkeeping Release reads in its first 64 bytes,
// beside the fields every hop reads.
func TestPacketLayout(t *testing.T) {
	var p Packet
	if got := unsafe.Sizeof(p); got != 128 {
		t.Fatalf("Sizeof(Packet{}) = %d, want 128", got)
	}
	for name, end := range map[string]uintptr{
		"pool":   unsafe.Offsetof(p.pool) + unsafe.Sizeof(p.pool),
		"gen":    unsafe.Offsetof(p.gen) + unsafe.Sizeof(p.gen),
		"pooled": unsafe.Offsetof(p.pooled) + unsafe.Sizeof(p.pooled),
	} {
		if end > 64 {
			t.Errorf("%s ends at byte %d, outside the first cache line", name, end)
		}
	}
}
