package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pbecc/internal/phy"
	"pbecc/internal/ran"
)

// refTrack is the reference model the monitor's window is checked
// against: the per-RNTI map and the per-report scratch map it replaced,
// kept here only as the test's oracle.
type refTrack struct {
	info CellInfo
	spf  int
	ring []refSample
	next int
	fill int

	sumMyPRBs, sumIdlePRBs int
	sumMyRate              float64
	myRateN                int
	users                  map[uint16]*refUser
}

type refSample struct {
	myPRBs int
	myRate float64
	idle   int
	allocs map[uint16]int
}

type refUser struct{ subframes, prbs int }

func newRefTrack(info CellInfo) *refTrack {
	spf := max(info.SlotsPerSubframe, 1)
	return &refTrack{info: info, spf: spf, ring: make([]refSample, Window*spf), users: map[uint16]*refUser{}}
}

func (rt *refTrack) ingest(self uint16, rep *ran.SubframeReport) {
	if rt.fill == len(rt.ring) {
		old := &rt.ring[rt.next]
		rt.sumMyPRBs -= old.myPRBs
		rt.sumIdlePRBs -= old.idle
		if old.myPRBs > 0 {
			rt.sumMyRate -= old.myRate
			rt.myRateN--
		}
		for rnti, prbs := range old.allocs {
			u := rt.users[rnti]
			u.subframes--
			u.prbs -= prbs
			if u.subframes == 0 {
				delete(rt.users, rnti)
			}
		}
	}
	s := refSample{idle: rep.IdlePRBs(), allocs: map[uint16]int{}}
	for _, a := range rep.Allocs {
		if a.RNTI == self {
			s.myPRBs += a.PRBs
			s.myRate = a.MCS.BitsPerPRB()
			continue
		}
		s.allocs[a.RNTI] += a.PRBs
	}
	if s.myPRBs > 0 {
		rt.sumMyRate += s.myRate
		rt.myRateN++
	}
	rt.sumMyPRBs += s.myPRBs
	rt.sumIdlePRBs += s.idle
	for rnti, prbs := range s.allocs {
		u := rt.users[rnti]
		if u == nil {
			u = &refUser{}
			rt.users[rnti] = u
		}
		u.subframes++
		u.prbs += prbs
	}
	rt.ring[rt.next] = s
	rt.next = (rt.next + 1) % len(rt.ring)
	rt.fill = min(rt.fill+1, len(rt.ring))
}

func (rt *refTrack) n(useFilter bool) int {
	n := 1
	for _, u := range rt.users {
		if !useFilter || u.subframes > FilterMinSubframes && float64(u.prbs)/float64(u.subframes) > FilterMinPRBs {
			n++
		}
	}
	return n
}

// totals returns the cell's Eqn 3 and Eqn 2 terms in transport bits per
// millisecond, from the model's own sums and N.
func (rt *refTrack) totals(useFilter bool) (capacity, fair float64) {
	rw := rt.info.Rate()
	if rt.myRateN > 0 {
		rw = rt.sumMyRate / float64(rt.myRateN)
	}
	n := float64(rt.n(useFilter))
	cp := 0.0
	if rt.fill > 0 {
		w := float64(rt.fill)
		cp = rw * (float64(rt.sumMyPRBs)/w + float64(rt.sumIdlePRBs)/w/n)
	}
	cf := rw * float64(rt.info.NPRB) / n
	spf, ber := float64(rt.spf), rt.info.BER()
	if rt.info.CBGBits > 0 {
		return phy.TransportFromPhysicalCBG(cp*spf, ber, rt.info.CBGBits),
			phy.TransportFromPhysicalCBG(cf*spf, ber, rt.info.CBGBits)
	}
	return phy.TransportFromPhysical(cp*spf, ber), phy.TransportFromPhysical(cf*spf, ber)
}

// busyReport draws one slot with up to eight grants from a pool of 40
// competing RNTIs (an RNTI may hold several grants in one slot) and the
// monitored RNTI 61; some grants are control-sized and some carry no PRB.
func busyReport(r *rand.Rand, info CellInfo) *ran.SubframeReport {
	rep := &ran.SubframeReport{CellID: info.ID, NPRB: info.NPRB}
	free := info.NPRB
	for n := r.Intn(9); n > 0; n-- {
		prbs := 0
		switch k := r.Intn(6); {
		case k == 0 || free == 0:
		case k < 3:
			prbs = min(free, 1+r.Intn(4))
		default:
			prbs = 1 + r.Intn(free)
		}
		free -= prbs
		rnti := uint16(61)
		if r.Intn(4) > 0 {
			rnti = uint16(100 + r.Intn(40))
		}
		rep.Allocs = append(rep.Allocs, ran.Alloc{RNTI: rnti, PRBs: prbs,
			MCS: phy.MCS{CQI: 1 + r.Intn(15), Table: phy.Table64QAM, Streams: 1 + r.Intn(2)}})
	}
	return rep
}

// TestMonitorMatchesMapReference feeds the monitor and the map model the
// same random report streams on three cells of one, two and four slots
// per subframe, with detaches and re-attaches between runs of reports (so
// windows are reset in place and a detached cell's storage is reused by a
// cell of another slot rate). After every step each cell's N, with the
// filter on and off, and every RNTI's subframe and PRB sums must equal the
// model's, and CapacityBits and FairShareBits must equal, bit for bit,
// the totals computed from the model's own sums.
func TestMonitorMatchesMapReference(t *testing.T) {
	rate := func() float64 { return 400 }
	ber := func() float64 { return 2e-6 }
	infos := []CellInfo{
		{ID: 1, NPRB: 100, Rate: rate, BER: ber},
		{ID: 2, NPRB: 50, SlotsPerSubframe: 2, CBGBits: 8448, Rate: rate, BER: ber},
		{ID: 3, NPRB: 25, SlotsPerSubframe: 4, Rate: rate, BER: ber},
	}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := NewMonitor(61)
		ref := map[int]*refTrack{}
		var order []int
		attach := func(info CellInfo) {
			m.AttachCell(info)
			if ref[info.ID] == nil {
				order = append(order, info.ID)
			}
			ref[info.ID] = newRefTrack(info)
		}
		detach := func(id int) {
			m.DetachCell(id)
			delete(ref, id)
			for i, v := range order {
				if v == id {
					order = append(order[:i], order[i+1:]...)
					break
				}
			}
		}
		for _, info := range infos {
			attach(info)
		}
		for step := 0; step < 300; step++ {
			info := infos[r.Intn(len(infos))]
			switch k := r.Intn(10); {
			case k < 8:
				for n := 1 + r.Intn(3*Window); n > 0; n-- {
					rep := busyReport(r, info)
					m.OnSubframe(rep)
					if rt := ref[info.ID]; rt != nil {
						rt.ingest(61, rep)
					}
				}
			case k < 9 && ref[info.ID] != nil:
				detach(info.ID)
			default:
				attach(info)
			}
			where := fmt.Sprintf("seed %d step %d", seed, step)
			var wantCap, wantFair float64
			for _, id := range order {
				rt, ct := ref[id], m.track(id)
				for _, filter := range []bool{true, false} {
					if got, want := ct.countUsers(filter), rt.n(filter); got != want {
						t.Fatalf("%s cell %d filter %v: N = %d, map model %d", where, id, filter, got, want)
					}
				}
				if len(ct.users) != len(rt.users) {
					t.Fatalf("%s cell %d: %d users, map model %d", where, id, len(ct.users), len(rt.users))
				}
				for _, u := range ct.users {
					if w := rt.users[u.rnti]; w == nil || u.subframes != w.subframes || u.prbs != w.prbs {
						t.Fatalf("%s cell %d RNTI %d: %d subframes %d PRBs, map model %+v",
							where, id, u.rnti, u.subframes, u.prbs, w)
					}
				}
				c, f := rt.totals(m.UseFilter)
				wantCap += c
				wantFair += f
			}
			if got := m.CapacityBits(); math.Float64bits(got) != math.Float64bits(wantCap) {
				t.Fatalf("%s: CapacityBits = %v, map model %v", where, got, wantCap)
			}
			if got := m.FairShareBits(); math.Float64bits(got) != math.Float64bits(wantFair) {
				t.Fatalf("%s: FairShareBits = %v, map model %v", where, got, wantFair)
			}
		}
	}
}
