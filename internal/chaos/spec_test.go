package chaos

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ftmm/internal/disk"
	"ftmm/internal/layout"
	"ftmm/internal/sched"
)

// probe is a test checker for single-node runs: it counts the events
// that actually applied, so tests can tell an applied verb from one the
// best-effort contract skipped.
type probe struct {
	applied map[EventKind]int
}

func newProbe() *probe { return &probe{applied: map[EventKind]int{}} }

func (p *probe) Name() string                                    { return "probe" }
func (p *probe) Begin(*RunContext) error                         { return nil }
func (p *probe) AfterStep(*RunContext, *sched.CycleReport) error { return nil }
func (p *probe) End(*RunContext) error                           { return nil }
func (p *probe) OnEvent(_ *RunContext, ev Event) error           { p.applied[ev.Kind]++; return nil }

// specJSON is a scenario file: a Schedule as JSON.
const specJSON = `{
  "scheme": "nc",
  "disks": 10,
  "cluster_size": 5,
  "k": 2,
  "titles": 4,
  "title_groups": 8,
  "events": [
    {"cycle": 0, "kind": "admit", "title": "title0"},
    {"cycle": 1, "kind": "admit", "title": "title1"},
    {"cycle": 2, "kind": "admit", "title": "title2"},
    {"cycle": 6, "kind": "fail", "drive": 2},
    {"cycle": 20, "kind": "repair", "drive": 2}
  ]
}`

// runSpec parses a scenario and replays it through the one runner under
// the default checkers plus a probe; the run must be clean.
func runSpec(t *testing.T, jsonSpec string, edit func(*Schedule)) (*RunResult, *probe) {
	t.Helper()
	sch, err := ParseSchedule([]byte(jsonSpec))
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(sch)
	}
	p := newProbe()
	res, err := Run(RunConfig{
		Schedule:    *sch,
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

func TestParseValid(t *testing.T) {
	s, err := ParseSchedule([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	if s.Scheme != "nc" || s.Disks != 10 || len(s.Events) != 5 || s.MaxCycles != 10_000 {
		t.Fatalf("parsed = %+v", s)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	for _, bad := range []string{
		strings.Replace(specJSON, `"k": 2,`, `"k": 2, "tyop": 1,`, 1),
		strings.Replace(specJSON, `"drive": 2}`, `"drive": 2, "repair_cycle": 20}`, 1),
	} {
		if _, err := ParseSchedule([]byte(bad)); err == nil {
			t.Fatalf("unknown field accepted:\n%s", bad)
		}
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	cases := []struct{ name, from, to string }{
		{"bad farm", `"disks": 10`, `"disks": 3`},
		{"no titles", `"titles": 4`, `"titles": 0`},
		{"unknown scheme", `"scheme": "nc"`, `"scheme": "zz"`},
		{"bad drive", `"drive": 2}`, `"drive": 99}`},
		{"negative event cycle", `{"cycle": 0,`, `{"cycle": -1,`},
		{"empty title", `"title": "title1"`, `"title": ""`},
		{"unknown kind", `"kind": "repair"`, `"kind": "mend"`},
		{"rebuild budget below C-1", `"kind": "repair", "drive": 2}`, `"kind": "rebuild", "drive": 2, "budget": 1}`},
		{"node event on one node", `"kind": "repair", "drive": 2}`, `"kind": "node-kill"}`},
	}
	for _, c := range cases {
		bad := strings.Replace(specJSON, c.from, c.to, 1)
		if bad == specJSON {
			t.Fatalf("%s: replacement did not apply", c.name)
		}
		if _, err := ParseSchedule([]byte(bad)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := ParseSchedule([]byte(`{`)); err == nil {
		t.Error("truncated JSON accepted")
	}
	noAdmits := strings.Replace(specJSON, `{"cycle": 0, "kind": "admit", "title": "title0"},
    {"cycle": 1, "kind": "admit", "title": "title1"},
    {"cycle": 2, "kind": "admit", "title": "title2"},`, ``, 1)
	if noAdmits == specJSON {
		t.Fatal("no-admits replacement did not apply")
	}
	if _, err := ParseSchedule([]byte(noAdmits)); err == nil {
		t.Error("schedule without an admit accepted")
	}
}

// FuzzParse hardens the scenario file surface: arbitrary input must
// either error or parse into a schedule that passes Validate and comes
// back unchanged through JSON — never panic. Every committed scenario
// seeds the corpus.
func FuzzParse(f *testing.F) {
	f.Add([]byte(specJSON))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"scheme":"sr","disks":10,"cluster_size":5,"titles":1,"title_groups":1,"events":[{"cycle":0,"kind":"admit","title":"title0"}]}`))
	f.Add([]byte(`{"scheme":"sr","disks":8,"cluster_size":4,"titles":1,"title_groups":2,"events":[{"cycle":0,"kind":"admit","title":"title0"},{"cycle":1,"kind":"pause"},{"cycle":2,"kind":"ff","rate":2},{"cycle":3,"kind":"rewind","track":1},{"cycle":4,"kind":"vcr-resume"}]}`))
	f.Add([]byte(`{"events":[{"cycle":-1,"kind":"warp","stream":-3,"rate":-9,"track":-1}]}`))
	f.Add([]byte(`not json at all`))
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSchedule(data)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseSchedule accepted a schedule Validate rejects: %v", err)
		}
		back, err := ParseSchedule(marshal(t, s))
		if err != nil || !reflect.DeepEqual(back, s) {
			t.Fatalf("schedule did not survive JSON: %v\n%+v\n%+v", err, s, back)
		}
	})
}

func TestSpecEndToEnd(t *testing.T) {
	res, _ := runSpec(t, specJSON, nil)
	if len(res.Sessions) != 3 || finished(res) != 3 || !res.Drained {
		t.Fatalf("sessions/finished/drained = %d/%d/%v, want 3/3/true", len(res.Sessions), finished(res), res.Drained)
	}
	srv := res.Nodes[0].Srv
	st := srv.Stats()
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
	if srv.CycleTime() <= 0 || srv.StagingTime() <= 0 {
		t.Fatal("missing timings")
	}
}

func TestSpecTertiaryRepair(t *testing.T) {
	tert := strings.Replace(specJSON, `"kind": "repair"`, `"kind": "tertiary"`, 1)
	res, p := runSpec(t, tert, nil)
	if p.applied[EventTertiary] != 1 {
		t.Fatalf("tape reload applied %d times, want 1", p.applied[EventTertiary])
	}
	if finished(res) != 3 {
		t.Fatalf("finished = %d", finished(res))
	}
}

func TestSpecMaxCyclesBound(t *testing.T) {
	res, _ := runSpec(t, specJSON, func(s *Schedule) { s.MaxCycles = 3 }) // too few to finish
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

// A scheme name nobody knows is refused when a scenario file is parsed,
// and by the runner when a schedule built in code names it.
func TestSpecUnknownSchemeRejected(t *testing.T) {
	zz := strings.Replace(specJSON, `"scheme": "nc"`, `"scheme": "zz"`, 1)
	if _, err := ParseSchedule([]byte(zz)); err == nil {
		t.Fatal("unknown scheme parsed")
	}
	sch, err := ParseSchedule([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	sch.Scheme = "zz"
	if _, err := Run(RunConfig{Schedule: *sch}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// TestTertiarySurvivesSpecRoundTrip: a tape reload exported to a
// scenario file comes back as a tape reload, not as nothing (or a
// parity repair), and replays to the same result.
func TestTertiarySurvivesSpecRoundTrip(t *testing.T) {
	assertExportExact(t, Schedule{
		Scheme: "sr", Disks: 8, ClusterSize: 4, K: 1, Titles: 1, TitleGroups: 2, MaxCycles: 40,
		Events: []Event{
			{Cycle: 0, Kind: EventAdmit, Title: "title0"},
			{Cycle: 2, Kind: EventFail, Drive: 1},
			{Cycle: 5, Kind: EventTertiary, Drive: 1},
		},
	})
}

// erasedIn is how many distinct members the checker has confirmed that
// a delivered track's stream found erased when it read the track's group.
func erasedIn(c *ContinuityChecker, rc *RunContext, d sched.Delivery) int {
	group := d.Track / rc.Srv.Catalog().Layout().GroupWidth()
	return len(c.erased[readKey{stream: d.StreamID, group: group}])
}

// withHiccup returns a copy of rep with one extra hiccup on delivered
// track d, standing in for an engine that dropped a track.
func withHiccup(rep *sched.CycleReport, d sched.Delivery) *sched.CycleReport {
	rep = rep.Clone()
	rep.Hiccups = append(rep.Hiccups, sched.Hiccup{StreamID: d.StreamID, ObjectID: d.ObjectID, Track: d.Track, Reason: "injected"})
	return rep
}

// hiccupInjector feeds the continuity checker a report with one extra
// hiccup at a chosen cycle, standing in for an engine that dropped a
// track it had no excuse to drop. It lands on a delivered track whose
// group's read found exactly one member erased, and says so in hit.
type hiccupInjector struct {
	*ContinuityChecker
	at  int
	hit *bool
}

func (h hiccupInjector) AfterStep(rc *RunContext, rep *sched.CycleReport) error {
	if rc.Cycle == h.at {
		for _, d := range rep.Delivered {
			if erasedIn(h.ContinuityChecker, rc, d) == 1 {
				*h.hit = true
				rep = withHiccup(rep, d)
				break
			}
		}
	}
	return h.ContinuityChecker.AfterStep(rc, rep)
}

// TestContinuityCatastropheBoundary pins where the zero-hiccup promise
// ends: with two drives of one cluster down the lost tracks are the
// paper's catastrophic failure and are accepted; a hiccup on a group
// whose read found one member erased is still a violation — with one
// drive down, and with a second drive of the cluster failing just after
// the first came back, so the two were never down at one read.
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
	res, err := Run(RunConfig{Schedule: sch})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Violation; v != nil {
		t.Fatalf("two drives down in one cluster: %s violation at cycle %d: %s", v.Checker, v.Cycle, v.Detail)
	}
	if res.Nodes[0].Srv.Stats().Hiccups == 0 {
		t.Fatal("two drives down in one cluster produced no hiccups; the schedule does not reach the boundary")
	}

	oneDown := sch
	oneDown.Events = sch.Events[:3] // drive 0 only
	back := Schedule{
		Scheme: "sr", Disks: 8, ClusterSize: 4, K: 1, Titles: 2, TitleGroups: 40, MaxCycles: 400,
		Events: []Event{
			{Cycle: 0, Kind: EventAdmit, Title: "title0"},
			{Cycle: 1, Kind: EventAdmit, Title: "title1"},
			{Cycle: 10, Kind: EventFail, Drive: 0},
			{Cycle: 11, Kind: EventRepair, Drive: 0},
			{Cycle: 12, Kind: EventFail, Drive: 1},
		},
	}
	for _, tc := range []struct {
		name string
		sch  Schedule
		at   int
	}{{"one drive down", oneDown, 8}, {"second failure after a repair", back, 13}} {
		hit := false
		res, err = Run(RunConfig{Schedule: tc.sch, NewCheckers: func() []Checker {
			return []Checker{hiccupInjector{NewContinuityChecker(), tc.at, &hit}}
		}})
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			t.Fatalf("%s: no track delivered at cycle %d was read with exactly one member erased", tc.name, tc.at)
		}
		if v := res.Violation; v == nil || v.Checker != "continuity" || v.Cycle != tc.at {
			t.Fatalf("%s: a hiccup on a group read with one member erased was accepted; violation = %+v", tc.name, v)
		}
	}
}

// TestContinuityChecksReportedErasures: an engine that reports an
// erasure its drive did not record — here a member read whole — is a
// violation naming the stream, group, drive and track.
func TestContinuityChecksReportedErasures(t *testing.T) {
	sch := Schedule{
		Scheme: "sr", Disks: 10, ClusterSize: 5, K: 2, Titles: 2, TitleGroups: 12, MaxCycles: 100,
		Events: []Event{{Cycle: 0, Kind: EventAdmit, Title: "title0"}},
	}
	res, err := Run(RunConfig{Schedule: sch, NewCheckers: func() []Checker {
		return []Checker{erasureInjector{NewContinuityChecker(), 5}}
	}})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Violation
	if v == nil || v.Checker != "continuity" || v.Cycle != 5 {
		t.Fatalf("an erasure the drive did not record was accepted; violation = %+v", v)
	}
	if !strings.Contains(v.Detail, "did not record") {
		t.Fatalf("violation does not name the missing record: %s", v.Detail)
	}
}

// erasureInjector adds to the report at a chosen cycle an erasure of the
// first delivered track's member, which the drive read whole.
type erasureInjector struct {
	*ContinuityChecker
	at int
}

func (e erasureInjector) AfterStep(rc *RunContext, rep *sched.CycleReport) error {
	if rc.Cycle == e.at && len(rep.Delivered) > 0 {
		d := rep.Delivered[0]
		lay := rc.Srv.Catalog().Layout()
		obj, _ := lay.Object(d.ObjectID)
		g := &obj.Groups[d.Track/lay.GroupWidth()]
		rep = rep.Clone()
		rep.Erasures = append(rep.Erasures, sched.Erasure{
			StreamID: d.StreamID, Group: g.Index, Loc: g.Data[d.Track%lay.GroupWidth()], Err: disk.ErrFailed,
		})
	}
	return e.ContinuityChecker.AfterStep(rc, rep)
}

// restoredHiccup feeds the continuity checker one extra hiccup at a
// chosen cycle, on a delivered track of the chosen title whose parity
// group has a member on a Restoring drive that its restore has already
// written. It lands on a read whose recorded erasures are exactly the
// group's members on a Failed drive, and one at most: the restored
// member counts none, and the two-erasure rule does not excuse it.
type restoredHiccup struct {
	*ContinuityChecker
	at    int
	title string
	hit   *bool
}

func (h restoredHiccup) AfterStep(rc *RunContext, rep *sched.CycleReport) error {
	if rc.Cycle != h.at {
		return h.ContinuityChecker.AfterStep(rc, rep)
	}
	lay := rc.Srv.Catalog().Layout()
	for _, d := range rep.Delivered {
		obj, ok := lay.Object(d.ObjectID)
		if !ok || d.ObjectID != h.title {
			continue
		}
		g := &obj.Groups[d.Track/lay.GroupWidth()]
		restored, failed := false, 0
		for _, loc := range append([]layout.Location{g.Parity}, g.Data...) {
			drv, _ := rc.Srv.Farm().Drive(loc.Disk)
			switch _, err := drv.View(loc.Track); {
			case drv.State() == disk.Restoring && err == nil:
				restored = true
			case drv.State() == disk.Failed:
				failed++
			}
		}
		if restored && failed <= 1 && erasedIn(h.ContinuityChecker, rc, d) == failed {
			*h.hit = true
			return h.ContinuityChecker.AfterStep(rc, withHiccup(rep, d))
		}
	}
	return h.ContinuityChecker.AfterStep(rc, rep)
}

// TestContinuityCountsRestoringTrack pins the rebuild-mode side of the
// catastrophe boundary. A replaced drive's track that its online rebuild
// has not yet restored is down: a second failure in that track's group
// is two erasures, and the hiccups it causes are accepted. A track the
// rebuild has already restored is whole: a hiccup on its group is still
// a violation, with no other member down and with one other Failed.
func TestContinuityCountsRestoringTrack(t *testing.T) {
	sch := Schedule{
		Scheme: "sr", Disks: 8, ClusterSize: 4, K: 1, Titles: 2, TitleGroups: 40, MaxCycles: 400,
		Events: []Event{
			{Cycle: 0, Kind: EventAdmit, Title: "title0"},
			{Cycle: 1, Kind: EventAdmit, Title: "title1"},
			{Cycle: 2, Kind: EventFail, Drive: 0},
			{Cycle: 3, Kind: EventRebuild, Drive: 0, Budget: 3},
			{Cycle: 30, Kind: EventFail, Drive: 1},
		},
	}
	res, err := Run(RunConfig{Schedule: sch})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Violation; v != nil {
		t.Fatalf("failure of a group mate of an unrestored track: %s violation at cycle %d: %s", v.Checker, v.Cycle, v.Detail)
	}
	if res.Nodes[0].Srv.Stats().Hiccups == 0 {
		t.Fatal("the second failure produced no hiccups; the schedule does not reach the boundary")
	}

	// Drive 0 failed at cycle 2, outside the window by cycle 35, and its
	// rebuild restored title0's tracks first while it still runs on
	// title1's: at cycle 35 title0's cluster-0 groups have drive 0 whole
	// and at most drive 1 down.
	for _, events := range [][]Event{sch.Events[:4], sch.Events} {
		sch.Events = events
		hit := false
		res, err = Run(RunConfig{Schedule: sch, NewCheckers: func() []Checker {
			return []Checker{restoredHiccup{NewContinuityChecker(), 35, "title0", &hit}}
		}})
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			t.Fatalf("%d events: no delivered title0 track at cycle 35 has a restored member on a Restoring drive", len(events))
		}
		if v := res.Violation; v == nil || v.Checker != "continuity" || v.Cycle != 35 {
			t.Fatalf("%d events: a hiccup on a group whose Restoring member is already restored was accepted; violation = %+v", len(events), v)
		}
	}
}
