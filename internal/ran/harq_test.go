package ran

import (
	"math/rand"
	"slices"
	"testing"
)

// refRetx is the reference model the HARQ ring is checked against: the
// map keyed by slot it replaced, kept here only as the test's oracle.
type refRetx map[int][]*transportBlock

func (m refRetx) add(slot int, tbs ...*transportBlock) { m[slot] = append(m[slot], tbs...) }

func (m refRetx) serve(slot int, fit func(*transportBlock) bool) {
	due := m[slot]
	delete(m, slot)
	for i, tb := range due {
		if !fit(tb) {
			// Slot exhausted: postpone the rest by one slot.
			m[slot+1] = append(m[slot+1], due[i:]...)
			break
		}
	}
}

// retxQueue is what the cell's tick and transmit use of the HARQ ring.
type retxQueue interface {
	add(slot int, tbs ...*transportBlock)
	serve(slot int, fit func(*transportBlock) bool)
}

// retxServed is one retransmission grant: the slot, the block and the
// attempt it was on.
type retxServed struct {
	slot     int
	seq      uint64
	attempts int
}

// replayRetx drives q the way a cell does, from a seeded script: every
// slot offers a random number of free RBGs (often none, or fewer than the
// first due block needs, so full slots defer their rest to the next one),
// a served block fails again with probability 0.3 until its last attempt
// and is re-queued HARQDelaySlots later from inside the serve, and up to
// four new blocks fail their first attempt. After the script every slot
// is served with unlimited room until nothing is pending. It returns the
// grants in order and how many times a full slot refused a due block.
func replayRetx(seed int64, q retxQueue) (log []retxServed, refused int) {
	r := rand.New(rand.NewSource(seed))
	var blocks uint64
	pending := 0
	slot := 0
	step := func(room int, unlimited bool) {
		slot++
		q.serve(slot, func(tb *transportBlock) bool {
			if !unlimited && tb.rbgs > room {
				refused++
				return false
			}
			room -= tb.rbgs
			pending--
			log = append(log, retxServed{slot, tb.seq, tb.attempts})
			if tb.attempts < MaxRetransmissions && r.Float64() < 0.3 {
				tb.attempts++
				pending++
				q.add(slot+HARQDelaySlots, tb)
			}
			return true
		})
	}
	for i := 0; i < 3000; i++ {
		room := 0
		switch k := r.Intn(10); {
		case k < 3: // full slot
		case k < 7:
			room = r.Intn(12)
		default:
			room = 25
		}
		step(room, false)
		for n := r.Intn(5); n > 0; n-- {
			tb := &transportBlock{seq: blocks, rbgs: 1 + r.Intn(8), attempts: 1}
			blocks++
			pending++
			q.add(slot+HARQDelaySlots, tb)
		}
	}
	// A queue that loses blocks never drains: stop after far more slots
	// than any block can still wait, and let the grant log show it.
	for drain := 0; pending > 0 && drain < 100*HARQDelaySlots; drain++ {
		step(0, true)
	}
	return log, refused
}

// TestRetxRingMatchesReference replays random grant patterns on the HARQ
// ring and on the slot map it replaced: both must grant the same blocks
// on the same attempts in the same slots and order, including the blocks
// a full slot postpones to the next one (which queue behind that slot's
// own retransmissions) and blocks postponed several slots in a row.
func TestRetxRingMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		want, refused := replayRetx(seed, refRetx{})
		var ring retxRing
		got, _ := replayRetx(seed, &ring)
		if !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d: grant %d is %+v, map model %+v", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: %d grants, map model %d", seed, len(got), len(want))
		}
		if len(want) < 5000 || refused < 500 {
			t.Fatalf("seed %d: %d grants and %d full-slot deferrals; the script exercises too little",
				seed, len(want), refused)
		}
		for i := range ring {
			if len(ring[i]) != 0 {
				t.Fatalf("seed %d: ring slot %d still holds %d blocks after the drain", seed, i, len(ring[i]))
			}
		}
	}
}
