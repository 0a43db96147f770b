// Cellmonitor: watch a busy cell through PBE-CC's eyes. The example runs
// a cell with calibrated control-plane chatter and one competing data
// user, attaches the capacity monitor, and prints what the monitor
// extracts each 200 ms: detected users, filtered active users N, the
// Eqn 3 capacity estimate and the Eqn 2 fair share.
//
// The first few subframes additionally run through the bit-level PDCCH
// pipeline (encode -> blind decode) to show that the monitor's input
// really is recoverable from coded control-channel bits.
package main

import (
	"fmt"
	"time"

	"pbecc/internal/core"
	"pbecc/internal/lte"
	"pbecc/internal/netsim"
	"pbecc/internal/pdcch"
	"pbecc/internal/phy"
	"pbecc/internal/ran"
	"pbecc/internal/sim"
	"pbecc/internal/trace"
)

func main() {
	eng := sim.New(7)
	cell := lte.NewCell(eng, 1, 100, phy.Table64QAM, trace.Busy())

	// The monitored phone.
	me := lte.NewUE(eng, 1, 61)
	myChannel := phy.NewStaticChannel(-91, phy.Table64QAM, nil)
	me.AddCell(cell, myChannel)
	me.SetCarrierAggregation(false)
	me.SetDefaultHandler(&netsim.Sink{})
	me.Start()

	// A competing data user.
	other := lte.NewUE(eng, 2, 62)
	other.AddCell(cell, phy.NewStaticChannel(-95, phy.Table64QAM, nil))
	other.SetCarrierAggregation(false)
	other.SetDefaultHandler(&netsim.Sink{})
	other.Start()
	comp := netsim.NewCrossTraffic(eng, other, 15e6, 2)
	eng.At(time.Second, comp.Start)
	eng.At(3*time.Second, comp.Stop)

	mine := netsim.NewCrossTraffic(eng, me, 20e6, 1)
	mine.Start()

	mon := core.NewMonitor(61)
	mon.AttachCell(core.CellInfo{
		ID: 1, NPRB: 100,
		Rate: func() float64 { return myChannel.MCS().BitsPerPRB() },
		BER:  func() float64 { return myChannel.BER() },
	})

	decoder := pdcch.NewDecoder(0)
	decodedSubframes := 0
	cell.AttachMonitor(func(rep *ran.SubframeReport) {
		// Demonstrate the coded path on the first 5 non-empty subframes.
		if decodedSubframes < 5 && len(rep.Allocs) > 0 {
			decodedSubframes++
			region := lte.EncodeReport(rep, 3)
			if region != nil {
				got := lte.DecodeReport(region, 1, phy.Table64QAM, decoder)
				fmt.Printf("subframe %4d: %d DCIs on the air, blind-decoded %d (PRBs %d vs %d)\n",
					rep.Subframe, len(rep.Allocs), len(got.Allocs),
					rep.AllocatedPRBs(), got.AllocatedPRBs())
				mon.OnSubframe(got)
				return
			}
		}
		mon.OnSubframe(rep)
	})

	fmt.Println("t(s)  detected  N  capacity(Mbit/s)  fair-share(Mbit/s)")
	eng.Every(200*time.Millisecond, func() {
		fmt.Printf("%4.1f  %8d  %d  %16.1f  %18.1f\n",
			eng.Now().Seconds(),
			mon.DetectedUsers(1),
			mon.ActiveUsers(1),
			core.BitsPerSubframeToBps(mon.CapacityBits())/1e6,
			core.BitsPerSubframeToBps(mon.FairShareBits())/1e6)
	})
	eng.RunUntil(4 * time.Second)
	fmt.Println("\nnote the competitor entering at 1s (N: 1->2, capacity drops)")
	fmt.Println("and leaving at 3s (idle PRBs reappear, capacity recovers).")
}
