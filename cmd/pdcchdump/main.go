// Command pdcchdump exercises the blind control-channel decoder the way
// OWL does on live cells: it synthesizes subframes with scheduled users,
// encodes their DCI messages onto a PDCCH control region, corrupts the
// region with channel noise, blind-decodes every candidate location, and
// prints the recovered allocation map next to the ground truth.
package main

import (
	"flag"
	"fmt"
	"math/rand"

	"pbecc/internal/pdcch"
)

func main() {
	subframes := flag.Int("subframes", 10, "number of subframes to synthesize")
	nprb := flag.Int("nprb", 100, "cell bandwidth in PRBs")
	users := flag.Int("users", 4, "scheduled users per subframe")
	sigma := flag.Float64("noise", 0.2, "AWGN sigma per component (0 = clean)")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	bw := pdcch.Bandwidth{NPRB: *nprb}
	dec := pdcch.NewDecoder(*sigma)

	var placed, decoded, correct int
	for sf := 0; sf < *subframes; sf++ {
		region := pdcch.NewRegion(bw, 3, sf)
		truth := map[uint16]pdcch.DCI{}
		cursor := 0
		for u := 0; u < *users; u++ {
			rnti := uint16(61 + rng.Intn(200))
			if _, dup := truth[rnti]; dup {
				continue
			}
			n := 2 + rng.Intn(6)
			if cursor+n > bw.NumRBGs() {
				break
			}
			d := pdcch.DCI{
				RNTI:      rnti,
				Format:    pdcch.Format1,
				RBGBitmap: pdcch.ContiguousRBGBitmap(cursor, n),
				MCS:       uint8(1 + rng.Intn(15)),
				NDI:       rng.Intn(8) != 0,
			}
			cursor += n
			if region.Place(&d, 4) {
				truth[d.RNTI] = d
				placed++
			}
		}
		region.AddNoise(*sigma, rng)

		results := dec.Decode(region)
		fmt.Printf("subframe %d: %d messages placed, %d decoded\n", sf, len(truth), len(results))
		for _, r := range results {
			decoded++
			want, known := truth[r.DCI.RNTI]
			status := "UNEXPECTED"
			if known {
				if want == r.DCI {
					status = "ok"
					correct++
				} else {
					status = "FIELD-MISMATCH"
				}
			}
			fmt.Printf("  rnti=%5d fmt=%-2s prbs=%3d mcs=%2d ndi=%-5v al=%d cce=%-3d reenc-err=%-3d %s\n",
				r.DCI.RNTI, r.DCI.Format, r.DCI.AllocatedPRBs(bw), r.DCI.MCS, r.DCI.NDI,
				r.Candidate.Level, r.Candidate.FirstCCE, r.ReencodeErrors, status)
		}
	}
	fmt.Printf("\ntotal: placed=%d decoded=%d exact=%d (%.1f%% recovery)\n",
		placed, decoded, correct, 100*float64(correct)/float64(max(placed, 1)))
}
