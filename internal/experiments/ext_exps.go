package experiments

import (
	"fmt"
	"time"

	"ftmm/internal/analytic"
	"ftmm/internal/chaos"
	"ftmm/internal/diskmodel"
	"ftmm/internal/failure"
	"ftmm/internal/report"
	"ftmm/internal/sched"
	"ftmm/internal/schemes"
	"ftmm/internal/server"
	"ftmm/internal/tertiary"
	"ftmm/internal/units"
	"ftmm/internal/workload"
)

// These experiments go beyond the paper's published artifacts: the
// rebuild mode it defers, the introduction's capacity arithmetic, the
// exact Markov treatment of its reliability algebra, and ablations over
// the design knobs it only discusses qualitatively.

// IntroResult is the §1 capacity arithmetic.
type IntroResult struct {
	MPEG2Movies, MPEG1Movies   int
	MPEG2Streams, MPEG1Streams int
	Text                       string
}

// Intro reproduces the introduction's example: 1000 one-gigabyte disks
// store ~300 MPEG-2 or ~900 MPEG-1 ninety-minute movies and, at 4 MB/s
// per disk, feed ~6500 MPEG-2 or ~20,000 MPEG-1 concurrent streams.
func Intro() (*IntroResult, error) {
	p := diskmodel.Table1()
	res := &IntroResult{}
	est2, err := analytic.EstimateCapacity(1000, p, analytic.MovieSize(units.MPEG2, 90), units.MPEG2)
	if err != nil {
		return nil, err
	}
	est1, err := analytic.EstimateCapacity(1000, p, analytic.MovieSize(units.MPEG1, 90), units.MPEG1)
	if err != nil {
		return nil, err
	}
	res.MPEG2Movies, res.MPEG2Streams = est2.Objects, est2.Streams
	res.MPEG1Movies, res.MPEG1Streams = est1.Objects, est1.Streams
	tbl := report.NewTable("Introduction's capacity arithmetic (1000 x 1 GB disks at 4 MB/s)",
		"Quantity", "Computed", "Paper")
	tbl.AddRow("90-min MPEG-2 movies stored", report.Int(res.MPEG2Movies), "~300")
	tbl.AddRow("90-min MPEG-1 movies stored", report.Int(res.MPEG1Movies), "~900")
	tbl.AddRow("Concurrent MPEG-2 streams", report.Int(res.MPEG2Streams), "~6500")
	tbl.AddRow("Concurrent MPEG-1 streams", report.Int(res.MPEG1Streams), "~20,000")
	res.Text = tbl.String()
	return res, nil
}

// Render returns the rendered table.
func (r *IntroResult) Render() string { return r.Text }

// RebuildResult compares rebuild-mode costs.
type RebuildResult struct {
	// ParityCycles[budget] is the online-rebuild duration in cycles for
	// each spare-read budget.
	ParityCycles map[int]int
	// ParityTime is the wall-clock rebuild time at the largest budget,
	// using the Non-clustered cycle time.
	ParityTime time.Duration
	// TertiaryTime is the simulated time to re-fetch the affected
	// objects from tape instead.
	TertiaryTime time.Duration
	Text         string
}

// Rebuild measures the paper's deferred rebuild mode: restoring a
// replaced drive from parity online, a few tracks per cycle out of spare
// bandwidth, versus reloading the affected objects from the tape library
// ("many tapes may need to be referenced and that is very time
// consuming").
func Rebuild() (*RebuildResult, error) {
	res := &RebuildResult{ParityCycles: map[int]int{}}
	budgets := []int{4, 8, 16, 32}
	cycleTime := diskmodel.Table1().CycleTime(1, units.MPEG1)
	titles := []string{"title0", "title1", "title2", "title3"}

	// The four titles are admitted to stage them onto the farm; then
	// drive 0 fails and is rebuilt online while they play.
	var tracks int
	for _, budget := range budgets {
		sch := figFarm("sr", 0, len(titles), 20)
		admit(&sch, 0, titles...)
		sch.Events = append(sch.Events,
			chaos.Event{Kind: chaos.EventFail, Drive: 0},
			chaos.Event{Kind: chaos.EventRebuild, Drive: 0, Budget: budget})
		start, done := -1, -1
		_, err := play(sch, &recorder{
			event: func(srv *server.Server, ev chaos.Event) {
				if ev.Kind == chaos.EventRebuild {
					start, tracks = ev.Cycle, srv.RebuildRemaining()
				}
			},
			step: func(srv *server.Server, rep *sched.CycleReport) {
				if done < 0 && start >= 0 && srv.RebuildRemaining() == 0 {
					done = rep.Cycle
				}
			},
		})
		if err != nil {
			return nil, err
		}
		res.ParityCycles[budget] = done - start + 1
	}
	res.ParityTime = time.Duration(res.ParityCycles[budgets[len(budgets)-1]]) * cycleTime

	// Tertiary alternative: re-fetch every object that touched the drive.
	lib, err := tertiary.NewLibrary(tertiary.DefaultConfig())
	if err != nil {
		return nil, err
	}
	var needs []tertiary.Need
	size := 20 * 4 * int(diskmodel.Table1().TrackSize)
	for i, id := range titles {
		if err := lib.Store(id, i/2, workload.SyntheticContent(id, size)); err != nil {
			return nil, err
		}
		// Every title stripes over both clusters, so all are affected by
		// the failed drive.
		needs = append(needs, tertiary.Need{ObjectID: id, Offset: 0, Length: size})
	}
	res.TertiaryTime, err = lib.PlanCost(needs)
	if err != nil {
		return nil, err
	}

	tbl := report.NewTable(
		fmt.Sprintf("Rebuild mode: restoring a failed drive (%d tracks) — parity vs tertiary", tracks),
		"Method", "Spare reads/cycle", "Cycles", "Wall clock")
	for _, b := range budgets {
		cyc := res.ParityCycles[b]
		tbl.AddRow("online parity rebuild", report.Int(b), report.Int(cyc),
			(time.Duration(cyc) * cycleTime).Truncate(time.Millisecond).String())
	}
	tbl.AddRow("reload from tape library", "-", "-", res.TertiaryTime.Truncate(time.Second).String())
	res.Text = tbl.String()
	return res, nil
}

// Render returns the rendered table.
func (r *RebuildResult) Render() string { return r.Text }

// ReliabilityResult is the three-way reliability comparison: the paper's
// closed forms vs the exact Markov chains vs Monte-Carlo.
type ReliabilityResult struct {
	Rows []ReliabilityRow
	Text string
}

// ReliabilityRow is one quantity compared three ways (MC omitted where
// impractical).
type ReliabilityRow struct {
	Name                          string
	ClosedHours, MarkovHours      float64
	MCHours, MCErrHours           float64
	MarkovOverClosed, MCOverExact float64
}

// Reliability compares equations (4) and (6) against exact birth-death
// chains and simulation at a scaled MTTF, quantifying the two
// approximations found: equation (6)'s missing (K-1)! factor and the
// higher-order terms both forms drop.
func Reliability(trials int) (*ReliabilityResult, error) {
	if trials <= 0 {
		trials = DefaultOptions().Trials
	}
	res := &ReliabilityResult{}
	for _, r := range []reliabilityRow{
		{"catastrophe, dedicated (eq 4)", analytic.StreamingRAID, 40, 0, 500, 41},
		{"catastrophe, declustered G=13 (eq 4)", analytic.DeclusteredParity, 39, 13, 500, 43},
		{"degradation, K=3 (eq 6; note the (K-1)! factor)", analytic.NonClustered, 40, 0, 3000, 42},
	} {
		closed, markov, estimate, err := r.estimators(3)
		if err != nil {
			return nil, err
		}
		exact, err := markov()
		if err != nil {
			return nil, err
		}
		mc, err := estimate(trials, r.seed)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, ReliabilityRow{
			Name: r.name, ClosedHours: closed, MarkovHours: exact,
			MCHours: mc.MeanHours, MCErrHours: mc.StdErrHours,
			MarkovOverClosed: exact / closed, MCOverExact: mc.MeanHours / exact,
		})
	}

	tbl := report.NewTable(
		fmt.Sprintf("Reliability three ways (scaled MTTF, %d MC trials)", trials),
		"Quantity", "Closed form (h)", "Markov exact (h)", "Monte-Carlo (h)", "Markov/closed", "MC/Markov")
	for _, r := range res.Rows {
		tbl.AddRow(r.Name,
			report.Float(r.ClosedHours, 1), report.Float(r.MarkovHours, 1),
			fmt.Sprintf("%.1f ± %.1f", r.MCHours, r.MCErrHours),
			report.Float(r.MarkovOverClosed, 3), report.Float(r.MCOverExact, 3))
	}
	res.Text = tbl.String()
	return res, nil
}

// Render returns the rendered table.
func (r *ReliabilityResult) Render() string { return r.Text }

// Values exports each comparison row three ways.
func (r *ReliabilityResult) Values() map[string]float64 {
	keys := []string{"mttf_dedicated", "mttf_declustered", "mttds_k3"}
	v := map[string]float64{}
	for i, row := range r.Rows {
		k := fmt.Sprintf("row%d", i)
		if i < len(keys) {
			k = keys[i]
		}
		v[k+"_closed_hours"] = row.ClosedHours
		v[k+"_markov_hours"] = row.MarkovHours
		v[k+"_mc_hours"] = row.MCHours
		v[k+"_mc_stderr_hours"] = row.MCErrHours
	}
	return v
}

// AblationResult holds the design-knob sweeps.
type AblationResult struct {
	// NCServerYears[k] is the Markov MTTDS (years) with k buffer servers.
	NCServerYears map[int]float64
	// IBReserve[res] records hiccup/termination counts in the saturated
	// Figure 8 scenario at each per-drive reserve.
	IBReserveTerminations map[int]int
	Text                  string
}

// Ablations sweeps the two reserve knobs the paper fixes by fiat: the
// Non-clustered buffer-server count K (which buys MTTDS multiplicatively)
// and the Improved-bandwidth per-drive slot reserve (which buys failure
// masking at full load).
func Ablations() (*AblationResult, error) {
	res := &AblationResult{NCServerYears: map[int]float64{}, IBReserveTerminations: map[int]int{}}

	// NC: MTTDS vs buffer-server count, paper-scale farm.
	tbl := report.NewTable("Ablation: reserve depth",
		"Knob", "Setting", "Outcome")
	lay, err := server.NewLayout(analytic.NonClustered, 100, 5, 0, 1)
	if err != nil {
		return nil, err
	}
	for k := 1; k <= 5; k++ {
		m := failure.Model{Layout: lay, MTTFHours: 300_000, MTTRHours: 1, K: k}
		h, err := m.MarkovMTTDSHours()
		if err != nil {
			return nil, err
		}
		years := float64(units.YearsFromHours(h))
		res.NCServerYears[k] = years
		tbl.AddRow("NC buffer servers", report.Int(k), fmt.Sprintf("MTTDS %.3g years", years))
	}

	// IB: terminations under a saturating failure vs per-drive reserve,
	// Figure 8's boundary rows.
	ib, err := IBShift()
	if err != nil {
		return nil, err
	}
	res.IBReserveTerminations[0] = ib.SaturatedTerminations
	res.IBReserveTerminations[1] = ib.MaskedTerminations
	for reserve := 0; reserve <= 1; reserve++ {
		tbl.AddRow("IB reserve slots/drive", report.Int(reserve),
			fmt.Sprintf("%d terminations on failure at full load", res.IBReserveTerminations[reserve]))
	}

	// NC switchover policy is covered by NCFailure(); summarize it here.
	nc, err := NCFailure()
	if err != nil {
		return nil, err
	}
	tbl.AddRow("NC switchover policy", "simple",
		fmt.Sprintf("%d tracks lost (disk-2 failure)", nc.Lost[schemes.SimpleSwitchover][2]))
	tbl.AddRow("NC switchover policy", "alternate",
		fmt.Sprintf("%d tracks lost (disk-2 failure)", nc.Lost[schemes.AlternateSwitchover][2]))

	res.Text = tbl.String()
	return res, nil
}

// Render returns the rendered table.
func (r *AblationResult) Render() string { return r.Text }
