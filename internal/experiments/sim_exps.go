package experiments

import (
	"fmt"

	"ftmm/internal/analytic"
	"ftmm/internal/chaos"
	"ftmm/internal/diskmodel"
	"ftmm/internal/failure"
	"ftmm/internal/report"
	"ftmm/internal/sched"
	"ftmm/internal/schemes"
	"ftmm/internal/server"
)

// The operational experiments are chaos schedules: each one's farm,
// admissions and failures go through chaos.Run, the repo's one schedule
// interpreter, under the default invariant checkers, so every number
// below comes from a run the checkers passed.

// figFarm is the experiments' farm: ten drives in clusters of five.
func figFarm(scheme string, k, titles, groups int) chaos.Schedule {
	return chaos.Schedule{Scheme: scheme, Disks: 10, ClusterSize: 5, K: k,
		Titles: titles, TitleGroups: groups, MaxCycles: 10_000}
}

// admit appends an admission of each title, the i-th at cycle i·every.
func admit(sch *chaos.Schedule, every int, titles ...string) {
	for i, t := range titles {
		sch.Events = append(sch.Events, chaos.Event{Cycle: i * every, Kind: chaos.EventAdmit, Title: t})
	}
}

// play runs sch through the chaos runner under the default checkers
// plus extra, read-only cluster ones, and returns the server. A
// violation, a refused admission or a run that does not drain is an
// error.
func play(sch chaos.Schedule, extra ...chaos.ClusterChecker) (*server.Server, error) {
	res, err := chaos.Run(chaos.RunConfig{Schedule: sch, NewClusterCheckers: func() []chaos.ClusterChecker {
		return append(chaos.DefaultClusterCheckers(), extra...)
	}})
	if err != nil {
		return nil, err
	}
	if v := res.Violation; v != nil {
		return nil, fmt.Errorf("experiments: %s: %s violation at cycle %d: %s", sch.Scheme, v.Checker, v.Cycle, v.Detail)
	}
	admits := 0
	for _, ev := range sch.Events {
		if ev.Kind == chaos.EventAdmit {
			admits++
		}
	}
	if len(res.Sessions) != admits {
		return nil, fmt.Errorf("experiments: %s: %d of %d admissions refused", sch.Scheme, admits-len(res.Sessions), admits)
	}
	if !res.Drained {
		return nil, fmt.Errorf("experiments: %s run did not drain in %d cycles", sch.Scheme, sch.MaxCycles)
	}
	return res.Nodes[0].Srv, nil
}

// recorder is a read-only cluster checker of a one-node run: it hands
// the server with every applied event to event and with every cycle's
// report to step, either may be nil, and it never objects.
type recorder struct {
	event func(srv *server.Server, ev chaos.Event)
	step  func(srv *server.Server, rep *sched.CycleReport)
}

func (*recorder) Name() string                         { return "recorder" }
func (*recorder) Begin(*chaos.ClusterRunContext) error { return nil }
func (*recorder) End(*chaos.ClusterRunContext) error   { return nil }

func (r *recorder) OnEvent(crc *chaos.ClusterRunContext, ev chaos.Event) error {
	if r.event != nil {
		r.event(crc.Nodes[0].Srv, ev)
	}
	return nil
}

func (r *recorder) AfterStep(crc *chaos.ClusterRunContext, reps []*sched.CycleReport) error {
	if r.step != nil {
		r.step(crc.Nodes[0].Srv, reps[0])
	}
	return nil
}

// Fig4Result is the staggered-group memory experiment: per-cycle buffer
// occupancy for SG vs SR with the same four streams.
type Fig4Result struct {
	// Occupancy per cycle (tracks), end of cycle, per scheme — the
	// figure's panel (a): staggered streams interleave into a flat
	// aggregate.
	SG, SR []int
	// SGOne is a single stream's occupancy — panel (b)'s sawtooth.
	SGOne []int
	// Peaks are the within-cycle maxima.
	SGPeak, SRPeak int
	Text           string
}

// occupancy plays n titles of 12 groups under the scheme, the i-th
// admitted at cycle i·every, and returns the buffer occupancy at the end
// of each cycle from the one after the stagger to cycle 40, and the
// run's within-cycle peak.
func occupancy(scheme string, n, every int) ([]int, int, error) {
	titles := []string{"title0", "title1", "title2", "title3"}[:n]
	sch := figFarm(scheme, 0, n, 12)
	admit(&sch, every, titles...)
	var series []int
	srv, err := play(sch, &recorder{step: func(_ *server.Server, rep *sched.CycleReport) {
		if rep.Cycle >= n*every && rep.Cycle < 40 {
			series = append(series, rep.BufferInUse)
		}
	}})
	if err != nil {
		return nil, 0, err
	}
	return series, srv.Stats().BufferPeak, nil
}

// Fig4 reproduces Figure 4's claim: C-1 staggered streams under the
// Staggered-group scheme peak at C(C+1)/2 buffers while Streaming RAID
// needs 2C per stream — the "approximately 1/2 the memory" saving.
func Fig4() (*Fig4Result, error) {
	res := &Fig4Result{}
	var err error
	if res.SG, res.SGPeak, err = occupancy("sg", 4, 1); err != nil {
		return nil, err
	}
	if res.SR, res.SRPeak, err = occupancy("sr", 4, 0); err != nil {
		return nil, err
	}
	// Panel (b): one lone SG stream's occupancy sawtooth.
	if res.SGOne, _, err = occupancy("sg", 1, 0); err != nil {
		return nil, err
	}
	n := min(len(res.SG), len(res.SR), len(res.SGOne))
	xs := make([]float64, n)
	sgY := make([]float64, n)
	srY := make([]float64, n)
	oneY := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = float64(i)
		sgY[i] = float64(res.SG[i])
		srY[i] = float64(res.SR[i])
		oneY[i] = float64(res.SGOne[i])
	}
	res.Text = report.RenderSeries(
		fmt.Sprintf("Figure 4: buffer occupancy (tracks, end of cycle), C=5 — peaks: SG=%d (=C(C+1)/2), SR=%d (=2C x 4 streams)", res.SGPeak, res.SRPeak),
		"cycle", xs, []report.Series{
			{Name: "SG 4 streams (panel a)", Y: sgY},
			{Name: "SG 1 stream (panel b)", Y: oneY},
			{Name: "SR 4 streams", Y: srY},
		}, 0)
	return res, nil
}

// figureRun plays the Figures 5-8 schedule and returns the server's
// stats: one title of groups parity groups admitted once a cycle,
// streams times, so every stream starts on cluster 0 one track (one
// group, under IB) behind the last, and a failure of the given kind on
// drive as the last one arrives.
func figureRun(scheme string, k, slots, groups, streams int, kind chaos.EventKind, drive int) (server.Stats, error) {
	sch := figFarm(scheme, k, 1, groups)
	sch.SlotsPerDisk = slots
	titles := make([]string, streams)
	for i := range titles {
		titles[i] = "title0"
	}
	admit(&sch, 1, titles...)
	sch.Events = append(sch.Events, chaos.Event{Cycle: streams - 1, Kind: kind, Drive: drive})
	srv, err := play(sch)
	if err != nil {
		return server.Stats{}, err
	}
	return srv.Stats(), nil
}

// NCFailureResult records the Figures 5-7 experiment: tracks lost in the
// degraded-mode transition, per policy and failed-disk position.
type NCFailureResult struct {
	// Lost[policy][failedDisk] is the total tracks lost.
	Lost map[schemes.TransitionPolicy]map[int]int
	Text string
}

// NCFailure reproduces the Figures 6-7 scenario for every failed-disk
// position: four streams staggered at offsets 3,2,1,0 on cluster 0,
// failure just before the offset-0 stream's first read.
func NCFailure() (*NCFailureResult, error) {
	res := &NCFailureResult{Lost: map[schemes.TransitionPolicy]map[int]int{}}
	tbl := report.NewTable(
		"Non-clustered transition losses (C=5, 4 staggered streams, slot budget 1)",
		"Failed disk", "Simple switchover", "Alternate switchover")
	for failed := 0; failed < 4; failed++ {
		row := []string{report.Int(failed)}
		for _, scheme := range []string{"nc-simple", "nc"} {
			st, err := figureRun(scheme, 2, 1, 6, 4, chaos.EventFail, failed)
			if err != nil {
				return nil, err
			}
			_, policy, _ := server.ParseScheme(scheme)
			if res.Lost[policy] == nil {
				res.Lost[policy] = map[int]int{}
			}
			res.Lost[policy][failed] = st.Hiccups
			row = append(row, report.Int(st.Hiccups))
		}
		tbl.AddRow(row...)
	}
	res.Text = tbl.String()
	return res, nil
}

// IBShiftResult records the Figure 8 experiment.
type IBShiftResult struct {
	// MaskedHiccups/MaskedTerminations: boundary failure with reserve.
	MaskedHiccups, MaskedTerminations int
	// SaturatedHiccups/SaturatedTerminations: boundary failure with zero
	// reserve on a saturated farm.
	SaturatedHiccups, SaturatedTerminations int
	// MidCycleHiccups: hiccups from a mid-cycle failure with reserve.
	MidCycleHiccups int
	Text            string
}

// IBShift demonstrates §4's behaviours: with reserved capacity a boundary
// failure is fully masked by the rightward shift; with no reserve on a
// saturated farm the shift wraps and streams are terminated (degradation
// of service); a mid-cycle failure costs exactly the in-flight tracks as
// one-time hiccups.
func IBShift() (*IBShiftResult, error) {
	// Two streams of one title admitted a cycle apart, so their cluster
	// rotations are out of phase; drive 1 fails as the second arrives.
	// K=1 reserves one of two slots per drive; K=0 leaves one slot and
	// no reserve.
	run := func(k int, kind chaos.EventKind) (server.Stats, error) {
		return figureRun("ib", k, k+1, 8, 2, kind, 1)
	}
	masked, err := run(1, chaos.EventFail)
	if err != nil {
		return nil, err
	}
	saturated, err := run(0, chaos.EventFail)
	if err != nil {
		return nil, err
	}
	mid, err := run(1, chaos.EventFailMidCycle)
	if err != nil {
		return nil, err
	}
	res := &IBShiftResult{
		MaskedHiccups: masked.Hiccups, MaskedTerminations: masked.Terminated,
		SaturatedHiccups: saturated.Hiccups, SaturatedTerminations: saturated.Terminated,
		MidCycleHiccups: mid.Hiccups,
	}
	tbl := report.NewTable("Improved-bandwidth failure response (C=5)",
		"Scenario", "Hiccups", "Terminations")
	tbl.AddRow("boundary failure, 1 slot/drive reserved", report.Int(res.MaskedHiccups), report.Int(res.MaskedTerminations))
	tbl.AddRow("boundary failure, saturated (no reserve)", report.Int(res.SaturatedHiccups), report.Int(res.SaturatedTerminations))
	tbl.AddRow("mid-cycle failure, reserved", report.Int(res.MidCycleHiccups), report.Int(mid.Terminated))
	res.Text = tbl.String()
	return res, nil
}

// MonteCarloResult compares simulated reliability with the closed forms.
type MonteCarloResult struct {
	Rows []MonteCarloRow
	Text string
}

// MonteCarloRow is one validation row.
type MonteCarloRow struct {
	Name           string
	SimulatedHours float64
	StdErrHours    float64
	AnalyticHours  float64
}

// reliabilityRow is one design point of EXP-MC or EXP-REL: d drives in
// parity groups of C = 4 (declustered over groups of g under DC) at a
// scaled disk MTTF. A NonClustered row checks degradation of service
// (equation (6)); the others check catastrophe (equations (4)-(5)).
type reliabilityRow struct {
	name   string
	scheme analytic.Scheme
	d, g   int
	mttf   float64
	seed   int64
}

// estimators returns the row's closed form in hours and its Markov and
// Monte-Carlo estimators at reserve depth k, over the scheme's layout.
// The repair time is the rebuild window: one hour, times (C-1)/(G-1)
// for a declustered rebuild, which reads every survivor of the group.
func (r reliabilityRow) estimators(k int) (float64, func() (float64, error), func(int, int64) (failure.Estimate, error), error) {
	lay, err := server.NewLayout(r.scheme, r.d, 4, r.g, 1)
	if err != nil {
		return 0, nil, nil, err
	}
	cfg := analytic.Config{Disk: diskmodel.Params{MTTFHours: r.mttf, MTTRHours: 1}, D: r.d, C: 4, G: r.g, K: k}
	m := failure.Model{Layout: lay, MTTFHours: r.mttf, MTTRHours: cfg.RebuildWindowFrac(r.scheme), K: k}
	if r.scheme == analytic.NonClustered {
		return cfg.MTTDS(r.scheme).Hours(), m.MarkovMTTDSHours, m.EstimateMTTDS, nil
	}
	return cfg.MTTFCatastrophic(r.scheme).Hours(), m.MarkovMTTFHours, m.EstimateMTTF, nil
}

// MonteCarlo validates equations (4)-(6) with event-driven simulation at
// a scaled-down MTTF (500 h instead of 300,000 h) so rare events occur in
// reasonable time; the algebraic structure is unchanged.
func MonteCarlo(trials int) (*MonteCarloResult, error) {
	if trials <= 0 {
		trials = DefaultOptions().Trials
	}
	res := &MonteCarloResult{}
	for _, r := range []reliabilityRow{
		{"MTTF dedicated parity (eq 4)", analytic.StreamingRAID, 40, 0, 500, 11},
		{"MTTF intermixed parity (eq 5; true exposure is 3(C-1))", analytic.ImprovedBandwidth, 40, 0, 500, 12},
		{"MTTF declustered G=13 (eq 4; MTTR x (C-1)/(G-1))", analytic.DeclusteredParity, 39, 13, 500, 14},
		{"MTTDS, K=2 overlapping failures (eq 6)", analytic.NonClustered, 40, 0, 5000, 13},
	} {
		closed, _, estimate, err := r.estimators(2)
		if err != nil {
			return nil, err
		}
		est, err := estimate(trials, r.seed)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, MonteCarloRow{
			Name: r.name, SimulatedHours: est.MeanHours,
			StdErrHours: est.StdErrHours, AnalyticHours: closed,
		})
	}

	tbl := report.NewTable(
		fmt.Sprintf("Monte-Carlo reliability validation (%d trials, scaled MTTF)", trials),
		"Quantity", "Simulated (h)", "StdErr", "Analytic (h)", "Ratio")
	for _, r := range res.Rows {
		tbl.AddRow(r.Name,
			report.Float(r.SimulatedHours, 1),
			report.Float(r.StdErrHours, 1),
			report.Float(r.AnalyticHours, 1),
			report.Float(r.SimulatedHours/r.AnalyticHours, 3))
	}
	res.Text = tbl.String()
	return res, nil
}

// Render returns the rendered occupancy series.
func (r *Fig4Result) Render() string { return r.Text }

// Values exports the buffer peaks.
func (r *Fig4Result) Values() map[string]float64 {
	return map[string]float64{
		"sg_peak_tracks": float64(r.SGPeak),
		"sr_peak_tracks": float64(r.SRPeak),
	}
}

// Render returns the rendered loss table.
func (r *NCFailureResult) Render() string { return r.Text }

// Values exports the per-policy, per-failed-disk track losses.
func (r *NCFailureResult) Values() map[string]float64 {
	v := map[string]float64{}
	for policy, byDisk := range r.Lost {
		for disk, lost := range byDisk {
			v[fmt.Sprintf("lost_%s_disk%d", policy, disk)] = float64(lost)
		}
	}
	return v
}

// Render returns the rendered shift table.
func (r *IBShiftResult) Render() string { return r.Text }

// Values exports the scenario outcomes.
func (r *IBShiftResult) Values() map[string]float64 {
	return map[string]float64{
		"masked_hiccups":         float64(r.MaskedHiccups),
		"masked_terminations":    float64(r.MaskedTerminations),
		"saturated_hiccups":      float64(r.SaturatedHiccups),
		"saturated_terminations": float64(r.SaturatedTerminations),
		"midcycle_hiccups":       float64(r.MidCycleHiccups),
	}
}

// Render returns the rendered validation table.
func (r *MonteCarloResult) Render() string { return r.Text }

// Values exports each validation row's simulated/analytic hours.
func (r *MonteCarloResult) Values() map[string]float64 {
	keys := []string{"mttf_dedicated", "mttf_intermixed", "mttf_declustered", "mttds_k2"}
	v := map[string]float64{}
	for i, row := range r.Rows {
		k := fmt.Sprintf("row%d", i)
		if i < len(keys) {
			k = keys[i]
		}
		v[k+"_sim_hours"] = row.SimulatedHours
		v[k+"_stderr_hours"] = row.StdErrHours
		v[k+"_analytic_hours"] = row.AnalyticHours
	}
	return v
}
