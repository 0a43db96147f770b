package faults

import (
	"testing"
	"time"

	"pbecc/internal/core"
	"pbecc/internal/phy"
	"pbecc/internal/ran"
	"pbecc/internal/sim"
)

func cellInfo(id int) core.CellInfo {
	mcs := phy.MCS{CQI: 10, Table: phy.Table64QAM, Streams: 1}
	return core.CellInfo{ID: id, NPRB: 100,
		Rate: func() float64 { return mcs.BitsPerPRB() },
		BER:  func() float64 { return 1e-6 }}
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{}).Validate(); err != nil {
		t.Fatalf("zero spec invalid: %v", err)
	}
	if err := (Spec{Stale: 1, Miss: 0.5, Handover: 0.1, OnOff: 1}).Validate(); err != nil {
		t.Fatalf("full spec invalid: %v", err)
	}
	if err := (Spec{Miss: 1.5}).Validate(); err == nil {
		t.Fatal("intensity above 1 accepted")
	}
	if err := (Spec{Handover: -0.1}).Validate(); err == nil {
		t.Fatal("negative intensity accepted")
	}
}

func TestSpecSetLevelRoundTrip(t *testing.T) {
	var s Spec
	for i, axis := range Axes() {
		lv := 0.1 * float64(i+1)
		if err := s.Set(axis, lv); err != nil {
			t.Fatalf("Set(%q): %v", axis, err)
		}
		if p, _ := s.axis(axis); *p != lv {
			t.Fatalf("axis %q = %v after Set, want %v", axis, *p, lv)
		}
	}
	if err := s.Set("bogus", 1); err == nil {
		t.Fatal("unknown axis accepted")
	}
}

// TestStaleHoldsLastDecode: once a stale window opens, the wrapped feed
// must deliver the held grant pattern while the real cell has moved on,
// then resume fresh decodes.
func TestStaleHoldsLastDecode(t *testing.T) {
	eng := sim.New(1)
	mon := core.NewMonitor(61)
	in := New(eng, mon, Spec{Stale: 1}, 99, 61)

	var got []int // PRBs of RNTI 7 as seen downstream
	feed := in.WrapFeed(func(rep *ran.SubframeReport) {
		prbs := 0
		for _, a := range rep.Allocs {
			if a.RNTI == 7 {
				prbs = a.PRBs
			}
		}
		got = append(got, prbs)
	})
	mcs := phy.MCS{CQI: 10, Table: phy.Table64QAM, Streams: 1}
	rep := &ran.SubframeReport{CellID: 1, NPRB: 100}
	for i := 0; i < 400; i++ {
		rep.Subframe = i
		rep.Allocs = []ran.Alloc{{RNTI: 7, PRBs: i % 97, MCS: mcs}}
		feed(rep)
	}
	if len(got) != 400 {
		t.Fatalf("downstream saw %d reports, want 400", len(got))
	}
	stale := 0
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] { // replayed hold (fresh values all differ)
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("full-intensity stale axis never replayed a decode")
	}
	if stale == len(got)-1 {
		t.Fatal("stale axis never resumed fresh decodes")
	}
}

// TestStaleOffIsIdentity: zero intensity must return the feed unchanged
// (pointer equality - the clean path has no wrapper at all).
func TestStaleOffIsIdentity(t *testing.T) {
	eng := sim.New(1)
	mon := core.NewMonitor(61)
	in := New(eng, mon, Spec{Miss: 1}, 99, 61)
	calls := 0
	next := ran.Monitor(func(*ran.SubframeReport) { calls++ })
	feed := in.WrapFeed(next)
	feed(&ran.SubframeReport{CellID: 1, NPRB: 100})
	if calls != 1 {
		t.Fatal("wrapped feed did not forward")
	}
}

// TestMissDelaysAttach: at full Miss intensity the monitor must not see
// the cell immediately, but must see it before the max delay elapses.
func TestMissDelaysAttach(t *testing.T) {
	eng := sim.New(1)
	mon := core.NewMonitor(61)
	in := New(eng, mon, Spec{Miss: 1}, 99, 61)
	in.AttachCell(cellInfo(1))
	if len(mon.ActiveCellIDs()) != 0 {
		t.Fatal("attach was not delayed at full Miss intensity")
	}
	eng.RunUntil(missMaxDelay + time.Millisecond)
	if len(mon.ActiveCellIDs()) != 1 {
		t.Fatal("delayed attach never landed")
	}
}

// TestDetachCancelsPendingAttach: a detach racing a delayed attach wins.
func TestDetachCancelsPendingAttach(t *testing.T) {
	eng := sim.New(1)
	mon := core.NewMonitor(61)
	in := New(eng, mon, Spec{Miss: 1}, 99, 61)
	in.AttachCell(cellInfo(1))
	in.DetachCell(1)
	eng.RunUntil(missMaxDelay + time.Millisecond)
	if len(mon.ActiveCellIDs()) != 0 {
		t.Fatal("cancelled attach landed after detach")
	}
}

// TestHandoverStormResetsWindows: bursts must empty and repopulate the
// monitor's cell set, and the window restart must actually discard the
// accumulated samples (capacity drops to the pre-fill value).
func TestHandoverStormResetsWindows(t *testing.T) {
	eng := sim.New(1)
	mon := core.NewMonitor(61)
	in := New(eng, mon, Spec{Handover: 1}, 99, 61)
	in.AttachCell(cellInfo(1))
	if len(mon.ActiveCellIDs()) != 1 {
		t.Fatal("clean attach did not land")
	}
	mcs := phy.MCS{CQI: 10, Table: phy.Table64QAM, Streams: 1}
	rep := &ran.SubframeReport{CellID: 1, NPRB: 100,
		Allocs: []ran.Alloc{{RNTI: 61, PRBs: 50, MCS: mcs}}}
	detached, reattached := 0, 0
	wasAttached := true
	eng.Every(time.Millisecond, func() {
		attached := len(mon.ActiveCellIDs()) == 1
		if !attached {
			detached++
		} else if !wasAttached {
			reattached++
		}
		wasAttached = attached
		if attached {
			rep.Subframe++
			mon.OnSubframe(rep)
		}
	})
	eng.RunUntil(4 * time.Second)
	if detached == 0 {
		t.Fatal("full-intensity handover storm never detached the cell")
	}
	if reattached == 0 {
		t.Fatal("storm never re-attached the cell")
	}
}

// TestInjectorDeterminism: two injectors with the same seed must produce
// the same fault sequence; a different seed must diverge.
func TestInjectorDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		eng := sim.New(1)
		mon := core.NewMonitor(61)
		in := New(eng, mon, Spec{Stale: 0.7}, seed, 61)
		var pattern []int
		feed := in.WrapFeed(func(rep *ran.SubframeReport) {
			pattern = append(pattern, rep.Allocs[0].PRBs)
		})
		mcs := phy.MCS{CQI: 10, Table: phy.Table64QAM, Streams: 1}
		rep := &ran.SubframeReport{CellID: 1, NPRB: 100}
		for i := 0; i < 500; i++ {
			rep.Subframe = i
			rep.Allocs = []ran.Alloc{{RNTI: 7, PRBs: i % 89, MCS: mcs}}
			feed(rep)
		}
		return pattern
	}
	a, b := run(5), run(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at subframe %d", i)
		}
	}
	c := run(6)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault sequences")
	}
}
