package experiments

import (
	"ftmm/internal/chaos"
	"ftmm/internal/report"
)

// BandwidthResult validates Table 2's "disk bandwidth overhead" row
// operationally: reads actually issued per track actually delivered, per
// scheme, in normal mode and under one failure.
type BandwidthResult struct {
	// ReadsPerTrack[scheme][mode] with modes "normal" and "degraded".
	ReadsPerTrack map[string]map[string]float64
	Text          string
}

// Bandwidth runs each engine to completion on identical workloads and
// divides total track reads (data + parity) by tracks delivered:
//
//	SR/SG: C/(C-1) = 1.25 at C=5 — the 20% overhead of Table 2, paid in
//	       normal mode;
//	NC/IB: 1.0 in normal mode (the schemes' whole point), rising only in
//	       degraded operation.
//
// The four titles are admitted at cycle 0, so all are staged before the
// degraded leg fails drive 1 (a title cannot be staged onto a failed
// drive).
func Bandwidth() (*BandwidthResult, error) {
	res := &BandwidthResult{ReadsPerTrack: map[string]map[string]float64{}}
	cases := []struct{ name, scheme, overhead string }{
		{"Streaming RAID", "sr", "20.0% (1/C)"},
		{"Staggered-group", "sg", "20.0% (1/C)"},
		{"Non-clustered", "nc", "20.0% (1/C)"},
		{"Improved-bandwidth", "ib", "3.0% (K/D)"},
	}
	tbl := report.NewTable(
		"Reads issued per track delivered (C=5, 4 streams, 12 groups each)",
		"Scheme", "Normal mode", "One failed drive", "Table 2 overhead")
	for _, tc := range cases {
		perMode := map[string]float64{}
		for _, mode := range []string{"normal", "degraded"} {
			sch := figFarm(tc.scheme, 2, 4, 12)
			admit(&sch, 0, "title0", "title1", "title2", "title3")
			if mode == "degraded" {
				sch.Events = append(sch.Events, chaos.Event{Cycle: 0, Kind: chaos.EventFail, Drive: 1})
			}
			srv, err := play(sch)
			if err != nil {
				return nil, err
			}
			st := srv.Stats()
			perMode[mode] = float64(st.DataReads+st.ParityReads) / float64(st.Delivered)
		}
		res.ReadsPerTrack[tc.name] = perMode
		tbl.AddRow(tc.name,
			report.Float(perMode["normal"], 3),
			report.Float(perMode["degraded"], 3),
			tc.overhead)
		// Note: under failure the *issued* reads drop (a dead drive
		// serves nothing) — the overhead is about bandwidth that must be
		// provisioned, which normal mode already consumes for SR/SG.
	}
	res.Text = tbl.String()
	return res, nil
}

// Render returns the rendered table.
func (r *BandwidthResult) Render() string { return r.Text }
