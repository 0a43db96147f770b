package harness

import (
	"testing"
	"time"

	"pbecc/internal/netsim"
)

// TestArenaStaleHandles: a packet handed out in one run and still held
// when the run is handed back is taken back by the arena, and a handle to
// it is not live in the next run - even though the next run may be
// handed the same packet.
func TestArenaStaleHandles(t *testing.T) {
	sc, err := BuildScenario("steady", "pbe", Params{Seed: 3, Duration: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena()
	res := a.Run(sc)
	eng := res.cluster.Shards()[0].Engine
	held := netsim.PoolOf(eng).Get() // still held when the run ends
	h := netsim.HandleOf(held)
	a.Reclaim(res)
	if res.Flows != nil || res.Series != nil {
		t.Fatal("Reclaim must clear the result")
	}

	res = a.Run(sc)
	if res.cluster.Shards()[0].Engine != eng {
		t.Fatal("the second run did not reuse the arena's engine")
	}
	if h.Live() || h.Packet() != nil {
		t.Fatal("a handle from the previous run is still live")
	}
	if res.Flows[0].Received == 0 {
		t.Fatal("the second run delivered nothing")
	}
}

// TestArenaRunMatchesRun: a scenario run on an arena that just ran a
// different scenario family gives the result harness.Run (a throwaway
// arena) gives.
func TestArenaRunMatchesRun(t *testing.T) {
	build := func(family string) *Scenario {
		sc, err := BuildScenario(family, "pbe", Params{Seed: 2, Duration: 300 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		sc.Series = true
		return sc
	}
	want := Run(build("steady"))
	a := NewArena()
	a.Reclaim(a.Run(build("sfu")))
	got := a.Run(build("steady"))
	for i, f := range want.Flows {
		g := got.Flows[i]
		if g.Received != f.Received || g.Lost != f.Lost || g.AvgTputMbps != f.AvgTputMbps ||
			g.Delay.Percentile(95) != f.Delay.Percentile(95) || g.Delay.Len() != f.Delay.Len() {
			t.Fatalf("flow %d on a used arena: %+v, fresh: %+v", i, g, f)
		}
	}
	if got.Series.Len() != want.Series.Len() {
		t.Fatalf("series points %d on a used arena, %d fresh", got.Series.Len(), want.Series.Len())
	}
	gp, wp := got.Series.Points(), want.Series.Points()
	for i := range wp {
		if gp[i] != wp[i] {
			t.Fatalf("series point %d: %+v on a used arena, %+v fresh", i, gp[i], wp[i])
		}
	}
}
