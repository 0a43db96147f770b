package lte

import (
	"pbecc/internal/pdcch"
	"pbecc/internal/phy"
)

// EncodeReport renders a subframe report as an encoded PDCCH control
// region, so that monitors can consume control information recovered from
// coded bits rather than simulator structs. Control-plane grants become
// Format 1A, two-stream grants Format 2, and other data grants Format 1.
// The DCI MCS field carries the CQI index. It returns nil if any message
// fails to fit in the control region.
func EncodeReport(rep *SubframeReport, cfi int) *pdcch.Region {
	bw := pdcch.Bandwidth{NPRB: rep.NPRB}
	region := pdcch.NewRegion(bw, cfi, rep.Subframe)
	p := bw.RBGSize()
	for i := range rep.Allocs {
		a := &rep.Allocs[i]
		d := pdcch.DCI{RNTI: a.RNTI, MCS: uint8(a.MCS.CQI), NDI: a.NDI}
		level := 2
		switch {
		case a.Control:
			d.Format = pdcch.Format1A
			d.RIVStart = a.FirstRBG * p
			d.RIVLen = a.PRBs
		case a.MCS.Streams >= 2:
			d.Format = pdcch.Format2
			d.RBGBitmap = pdcch.ContiguousRBGBitmap(a.FirstRBG, a.NumRBGs)
			d.Precode = 1
			level = 4
		default:
			d.Format = pdcch.Format1
			d.RBGBitmap = pdcch.ContiguousRBGBitmap(a.FirstRBG, a.NumRBGs)
			level = 4
		}
		if !region.Place(&d, level) {
			return nil
		}
	}
	return region
}

// DecodeReport blind-decodes a control region back into a subframe report,
// reconstructing each user's PRB count, physical rate (from the CQI carried
// in the MCS field plus the format-implied stream count), and new-data
// indicator. The CQI table is cell configuration a real UE learns from
// system information. Grants decode in CCE order; the Control flag is not
// recoverable from the air interface and is always false.
func DecodeReport(region *pdcch.Region, cellID int, table phy.CQITable, dec *pdcch.Decoder) *SubframeReport {
	bw := region.Bandwidth
	rep := &SubframeReport{CellID: cellID, Subframe: region.Subframe, NPRB: bw.NPRB}
	for _, m := range dec.Decode(region) {
		d := m.DCI
		if d.Format == pdcch.Format0 {
			continue // uplink grant: no downlink PRBs
		}
		prbs := d.AllocatedPRBs(bw)
		firstRBG, numRBGs := rbgSpan(&d, bw)
		rep.Allocs = append(rep.Allocs, Alloc{
			RNTI:     d.RNTI,
			FirstRBG: firstRBG,
			NumRBGs:  numRBGs,
			PRBs:     prbs,
			MCS:      phy.MCS{CQI: int(d.MCS), Table: table, Streams: d.Streams()},
			TBBits:   int(float64(prbs) * phy.MCS{CQI: int(d.MCS), Table: table, Streams: d.Streams()}.BitsPerPRB()),
			NDI:      d.NDI,
		})
	}
	return rep
}

// rbgSpan recovers the covered RBG range of a decoded DCI.
func rbgSpan(d *pdcch.DCI, bw pdcch.Bandwidth) (first, num int) {
	switch d.Format {
	case pdcch.Format1, pdcch.Format2:
		first = -1
		for i := 0; i < bw.NumRBGs(); i++ {
			if d.RBGBitmap&(1<<uint(i)) != 0 {
				if first < 0 {
					first = i
				}
				num++
			}
		}
		if first < 0 {
			first = 0
		}
		return first, num
	case pdcch.Format1A:
		p := bw.RBGSize()
		first = d.RIVStart / p
		last := (d.RIVStart + d.RIVLen - 1) / p
		return first, last - first + 1
	}
	return 0, 0
}
