package netsim

import (
	"sync/atomic"

	"pbecc/internal/obs"
	"pbecc/internal/sim"
)

// mPktReuse counts packets served from a free list instead of the heap,
// the packet-path twin of sim.event_pool_reuse.
var mPktReuse = obs.NewCounter("sim.packet_pool_reuse")

// poolingOff is the global packet-pool kill switch. Pooling is a pure
// memory optimization - a pooled run and an unpooled run are
// byte-identical (the property tests in internal/harness enforce it) -
// so the switch exists for those tests (SetPooling(false) is their
// reference path), not for correctness.
var poolingOff atomic.Bool

// SetPooling enables or disables packet pooling process-wide and returns
// the previous setting. With pooling off, Get returns ordinary heap
// packets and Release is a no-op, so the garbage collector owns every
// packet - the reference behavior pooled runs must match byte-for-byte.
func SetPooling(on bool) (prev bool) {
	prev = !poolingOff.Load()
	poolingOff.Store(!on)
	return prev
}

// PacketPool is a per-engine packet free list, mirroring the engine's
// event pool: single-threaded by construction (one pool per shard
// engine, only that shard's events touch it), generation-guarded so
// stale references are detectable, and strictly optional - a pooled
// packet that is never released is simply collected by the GC, costing a
// reuse, never correctness.
//
// Ownership rule (DESIGN.md section 12): a *Packet passed to
// HandlePacket is valid only for the duration of the call unless the
// handler is the packet's designated consumer (the cc receiver for data,
// the cc sender for acks, the UE reorder buffer in between). The
// consumer - and only the consumer - releases it, into the pool of the
// engine it is running on; cross-shard packets thereby migrate between
// shard pools without synchronization, because release rewrites the
// packet's pool binding while holding the only live reference.
//
// The pool survives its engine's Recycle. Packets come from fixed blocks
// of packetBlock packets, handed out in order through a cursor whenever
// the free list is empty; Recycle takes every packet the cursor handed
// out back at once - including packets still queued or in flight, whose
// generation it bumps so no handle from the run stays live - by resetting
// the cursor. Blocks are never freed, so the pool keeps the largest
// working set any run on its engine touched.
type PacketPool struct {
	free   []*Packet
	blocks []*[packetBlock]Packet
	next   int // packets the cursor handed out since the last Recycle
}

// packetBlock is the number of packets per block. 63 128-byte packets and
// the 8-byte header the allocator puts before a large object with pointers
// fill the 8 KB size class; 64 would round up to the 9.25 KB class.
const packetBlock = 63

// poolKey is the engine-local slot of the engine's packet pool.
var poolKey = sim.NewLocalKey()

// PoolOf returns eng's packet pool, installing one on first use. The
// engine owns the slot, so every subsystem sharing an engine shares one
// free list.
func PoolOf(eng *sim.Engine) *PacketPool {
	if p, ok := eng.Local(poolKey).(*PacketPool); ok {
		return p
	}
	p := &PacketPool{}
	eng.SetLocal(poolKey, p)
	return p
}

// Get returns a zeroed packet, reusing a released one when possible and
// otherwise taking the next one from the blocks.
func (pp *PacketPool) Get() *Packet {
	if poolingOff.Load() {
		return &Packet{}
	}
	var p *Packet
	if n := len(pp.free); n > 0 {
		p = pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
	} else {
		b := pp.next / packetBlock
		if b == len(pp.blocks) {
			pp.blocks = append(pp.blocks, new([packetBlock]Packet))
		}
		p = &pp.blocks[b][pp.next%packetBlock]
		pp.next++
	}
	gen := p.gen
	if gen != 0 { // released or recycled before: not fresh from a block
		mPktReuse.Inc()
	}
	*p = Packet{pool: pp, gen: gen}
	return p
}

// Release returns a consumed packet to this pool (not necessarily the
// one that created it: a cross-shard packet is adopted by the releasing
// shard's pool, keeping every free list single-threaded). Releasing a
// nil or unpooled packet is a no-op; releasing the same packet twice
// panics - deterministically, since pool state is engine-local.
func (pp *PacketPool) Release(p *Packet) {
	if p == nil || p.pool == nil {
		return
	}
	if p.pooled {
		panic("netsim: double release of pooled packet")
	}
	p.gen++
	p.pooled = true
	p.pool = pp
	pp.free = append(pp.free, p)
}

// Recycle implements sim.Recycler: every packet the cursor handed out
// since the last Recycle goes back to the blocks - one still held
// elsewhere first has its generation bumped, so its handles go stale -
// and the cursor restarts at the first block. The free list is cleared:
// it holds only packets the cursor handed out, this pool's or, adopted,
// another pool's, which that pool's Recycle takes back (every engine of a
// cluster or an arena recycles together). The cost is O(packets the cursor
// handed out).
func (pp *PacketPool) Recycle() {
	for i := range pp.next {
		if p := &pp.blocks[i/packetBlock][i%packetBlock]; !p.pooled {
			p.gen++
			p.pooled = true
		}
	}
	clear(pp.free)
	pp.free = pp.free[:0]
	pp.next = 0
}

// PacketHandle is a generation-stamped reference to a packet, for
// holders that may outlive the packet's consumption (diagnostics,
// tests). Once the packet is released - and possibly reused for an
// unrelated transmission - the handle goes stale: Live reports false and
// Packet returns nil, deterministically, instead of aliasing the
// recycled packet.
type PacketHandle struct {
	p   *Packet
	gen uint64
}

// HandleOf stamps a handle for p. Handles of unpooled packets never go
// stale (the GC keeps them valid).
func HandleOf(p *Packet) PacketHandle {
	return PacketHandle{p: p, gen: p.gen}
}

// Live reports whether the handle still refers to its original packet.
func (h PacketHandle) Live() bool {
	return h.p != nil && !h.p.pooled && h.p.gen == h.gen
}

// Packet returns the referenced packet, or nil once the handle is stale.
func (h PacketHandle) Packet() *Packet {
	if h.Live() {
		return h.p
	}
	return nil
}
