package chaos

import (
	"strings"
	"testing"

	"ftmm/internal/scenario"
	"ftmm/internal/sched"
	"ftmm/internal/server"
)

// probe is a test checker for single-node runs: it counts the events
// that actually applied (so tests can tell an applied verb from one the
// best-effort contract skipped) and keeps the node's server for a look
// at its stats after the run.
type probe struct {
	applied map[EventKind]int
	srv     *server.Server
}

func newProbe() *probe { return &probe{applied: map[EventKind]int{}} }

func (p *probe) Name() string                                    { return "probe" }
func (p *probe) Begin(rc *RunContext) error                      { p.srv = rc.Srv; return nil }
func (p *probe) AfterStep(*RunContext, *sched.CycleReport) error { return nil }
func (p *probe) End(*RunContext) error                           { return nil }
func (p *probe) OnEvent(_ *RunContext, ev Event) error           { p.applied[ev.Kind]++; return nil }

const specJSON = `{
  "scheme": "nc",
  "disks": 10,
  "cluster_size": 5,
  "k": 2,
  "titles": 4,
  "title_groups": 8,
  "requests": [
    {"cycle": 0, "title": "title0"},
    {"cycle": 1, "title": "title1"},
    {"cycle": 2, "title": "title2"}
  ],
  "failures": [
    {"cycle": 6, "drive": 2, "repair_cycle": 20}
  ]
}`

// runSpec parses a scenario and replays it through the one runner under
// the default checkers plus a probe; the run must be clean.
func runSpec(t *testing.T, jsonSpec string, edit func(*scenario.Spec)) (*RunResult, *probe) {
	t.Helper()
	spec, err := scenario.Parse([]byte(jsonSpec))
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(spec)
	}
	p := newProbe()
	res, err := Run(RunConfig{
		Schedule:    *FromSpec(spec),
		NewCheckers: func() []Checker { return append(DefaultCheckers(), p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Violation; v != nil {
		t.Fatalf("%s violation at cycle %d: %s", v.Checker, v.Cycle, v.Detail)
	}
	return res, p
}

func finished(res *RunResult) int {
	n := 0
	for _, s := range res.Sessions {
		if s.Finished {
			n++
		}
	}
	return n
}

func TestSpecEndToEnd(t *testing.T) {
	res, p := runSpec(t, specJSON, nil)
	if len(res.Sessions) != 3 || finished(res) != 3 || !res.Drained {
		t.Fatalf("sessions/finished/drained = %d/%d/%v, want 3/3/true", len(res.Sessions), finished(res), res.Drained)
	}
	st := p.srv.Stats()
	if st.Finished != 3 {
		t.Fatalf("server finished = %d", st.Finished)
	}
	// NC failure at cycle 6: the transition may cost a couple of tracks.
	if st.Hiccups > 4 {
		t.Fatalf("hiccups = %d", st.Hiccups)
	}
	if st.Reconstructions == 0 {
		t.Fatal("no reconstructions despite failure")
	}
	if p.srv.CycleTime() <= 0 || p.srv.StagingTime() <= 0 {
		t.Fatal("missing timings")
	}
}

func TestSpecTertiaryRepair(t *testing.T) {
	tert := strings.Replace(specJSON, `"repair_cycle": 20}`, `"repair_cycle": 20, "tertiary": true}`, 1)
	res, p := runSpec(t, tert, nil)
	if p.applied[EventTertiary] != 1 {
		t.Fatalf("tape reload applied %d times, want 1", p.applied[EventTertiary])
	}
	if finished(res) != 3 {
		t.Fatalf("finished = %d", finished(res))
	}
}

func TestSpecMaxCyclesBound(t *testing.T) {
	res, _ := runSpec(t, specJSON, func(s *scenario.Spec) { s.MaxCycles = 3 }) // too few to finish
	if res.Cycles != 3 || res.Drained || finished(res) != 0 {
		t.Fatalf("cycles/drained/finished = %d/%v/%d under a 3-cycle bound", res.Cycles, res.Drained, finished(res))
	}
}

func TestSpecAllSchemes(t *testing.T) {
	for _, scheme := range []string{"sr", "sg", "nc", "nc-simple", "ib"} {
		res, _ := runSpec(t, strings.Replace(specJSON, `"scheme": "nc"`, `"scheme": "`+scheme+`"`, 1), nil)
		if finished(res) != 3 {
			t.Fatalf("%s: finished = %d", scheme, finished(res))
		}
	}
}

// The scenario format leaves the scheme name to the runner, which must
// refuse one it does not know.
func TestSpecUnknownSchemeRejected(t *testing.T) {
	spec, err := scenario.Parse([]byte(strings.Replace(specJSON, `"scheme": "nc"`, `"scheme": "zz"`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(RunConfig{Schedule: *FromSpec(spec)}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// TestTertiarySurvivesSpecRoundTrip: a tape reload exported to a
// scenario comes back as a tape reload, not as nothing (or a parity
// repair).
func TestTertiarySurvivesSpecRoundTrip(t *testing.T) {
	sch := Schedule{
		Scheme: "sr", Disks: 8, ClusterSize: 4, K: 1, Titles: 1, TitleGroups: 2, MaxCycles: 40,
		Events: []Event{
			{Cycle: 0, Kind: EventAdmit, Title: "title0"},
			{Cycle: 2, Kind: EventFail, Drive: 1},
			{Cycle: 5, Kind: EventTertiary, Drive: 1},
		},
	}
	spec := sch.ToSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if f := spec.Failures; len(f) != 1 || !f[0].Tertiary || f[0].RepairCycle != 5 {
		t.Fatalf("exported failures = %+v, want one tertiary repair at cycle 5", f)
	}
	var got []Event
	for _, ev := range FromSpec(spec).Events {
		if ev.Kind != EventAdmit && ev.Kind != EventFail {
			got = append(got, ev)
		}
	}
	if len(got) != 1 || got[0] != sch.Events[2] {
		t.Fatalf("round-tripped repair events = %+v, want %+v", got, sch.Events[2])
	}
}

// hiccupInjector feeds the continuity checker a report with one extra
// hiccup at a chosen cycle, standing in for an engine that dropped a
// track it had no excuse to drop.
type hiccupInjector struct {
	*ContinuityChecker
	at int
}

func (h hiccupInjector) AfterStep(rc *RunContext, rep *sched.CycleReport) error {
	if rc.Cycle == h.at && len(rep.Delivered) > 0 {
		d := rep.Delivered[0]
		rep = rep.Clone()
		rep.Hiccups = append(rep.Hiccups, sched.Hiccup{StreamID: d.StreamID, ObjectID: d.ObjectID, Track: d.Track, Reason: "injected"})
	}
	return h.ContinuityChecker.AfterStep(rc, rep)
}

// TestContinuityCatastropheBoundary pins where the zero-hiccup promise
// ends: with two drives of one cluster down the lost tracks are the
// paper's catastrophic failure and are accepted; with one drive down
// any hiccup is still a violation.
func TestContinuityCatastropheBoundary(t *testing.T) {
	sch := Schedule{
		Scheme: "sr", Disks: 10, ClusterSize: 5, K: 2, Titles: 2, TitleGroups: 12, MaxCycles: 100,
		Events: []Event{
			{Cycle: 0, Kind: EventAdmit, Title: "title0"},
			{Cycle: 0, Kind: EventAdmit, Title: "title1"},
			{Cycle: 4, Kind: EventFail, Drive: 0},
			{Cycle: 5, Kind: EventFail, Drive: 1},
		},
	}
	p := newProbe()
	res, err := Run(RunConfig{Schedule: sch, NewCheckers: func() []Checker { return append(DefaultCheckers(), p) }})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Violation; v != nil {
		t.Fatalf("two drives down in one cluster: %s violation at cycle %d: %s", v.Checker, v.Cycle, v.Detail)
	}
	if p.srv.Stats().Hiccups == 0 {
		t.Fatal("two drives down in one cluster produced no hiccups; the schedule does not reach the boundary")
	}

	sch.Events = sch.Events[:3] // drive 0 only
	res, err = Run(RunConfig{Schedule: sch, NewCheckers: func() []Checker {
		return []Checker{hiccupInjector{NewContinuityChecker(), 8}}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Violation; v == nil || v.Checker != "continuity" || v.Cycle != 8 {
		t.Fatalf("a hiccup with one drive down was accepted; violation = %+v", v)
	}
}
