package ran

// WaterFiller distributes capacity RBGs over users with given demands,
// equalizing shares: users wanting less than the fair share are satisfied
// in full and the surplus is redistributed. Leftover odd RBGs rotate with
// the slot index so no user position is systematically favored.
//
// It holds the result storage, so schedulers on the per-slot hot path
// allocate nothing: Fill returns a grants slice that stays valid until the
// next Fill call on the same WaterFiller. The zero value is ready to use.
type WaterFiller struct {
	grants []int
	unsat  []int
}

// Fill returns the grant for each entry of wants; see WaterFiller for the
// policy.
func (f *WaterFiller) Fill(wants []int, capacity, rotate int) []int {
	if cap(f.grants) < len(wants) {
		// Double, so a cell whose backlogged-user count creeps up one at
		// a time regrows its storage a few times, not once per new high.
		n := max(len(wants), 2*cap(f.grants))
		f.grants = make([]int, n)
		f.unsat = make([]int, 0, n)
	}
	grants := f.grants[:len(wants)]
	for i := range grants {
		grants[i] = 0
	}
	unsat := f.unsat[:0]
	for i, w := range wants {
		if w > 0 {
			unsat = append(unsat, i)
		}
	}
	f.unsat = unsat
	for capacity > 0 && len(unsat) > 0 {
		share := capacity / len(unsat)
		if share == 0 {
			// Fewer RBGs than users: hand out one each, rotating.
			off := rotate % len(unsat)
			for k := 0; k < capacity; k++ {
				grants[unsat[(off+k)%len(unsat)]]++
			}
			capacity = 0
			break
		}
		progress := false
		next := unsat[:0]
		for _, i := range unsat {
			need := wants[i] - grants[i]
			if need <= share {
				grants[i] = wants[i]
				capacity -= need
				progress = true
			} else {
				next = append(next, i)
			}
		}
		unsat = next
		if !progress {
			// Everyone needs more than the share: grant the share and
			// rotate the remainder.
			for _, i := range unsat {
				grants[i] += share
				capacity -= share
			}
			off := rotate % len(unsat)
			for k := 0; k < capacity; k++ {
				grants[unsat[(off+k)%len(unsat)]]++
			}
			capacity = 0
			break
		}
	}
	return grants
}
