package chaos

import "testing"

// vcrSchedule builds a deterministic single-node schedule that walks a
// stream through pause → resume → rewind while a second stream
// fast-forwards.
func vcrSchedule(scheme string) Schedule {
	s := Schedule{
		Scheme: scheme, ClusterSize: 4, Disks: 8, K: 1,
		Titles: 2, TitleGroups: 4, MaxCycles: 120,
		Events: []Event{
			{Cycle: 0, Kind: EventAdmit, Title: "title0"},
			{Cycle: 0, Kind: EventAdmit, Title: "title1"},
			{Cycle: 2, Kind: EventPause, Stream: 0},
			{Cycle: 3, Kind: EventFF, Stream: 1, Rate: 2},
			{Cycle: 5, Kind: EventVcrResume, Stream: 0},
			{Cycle: 8, Kind: EventRewind, Stream: 0, Track: 1},
		},
	}
	if scheme == "dc" {
		s.DeclusterGroup = 13
		s.Disks = 13
	}
	return s
}

// TestVcrScheduleAllSchemes runs the pause/ff/rewind drill under every
// scheme through the full checker set — including the k′-weighted
// admission checker and the per-stream retention (position) checker —
// and asserts the verbs applied. FF applies only on engines with rate
// support (sr, dc); elsewhere the refusal is the legitimate outcome.
func TestVcrScheduleAllSchemes(t *testing.T) {
	for _, scheme := range SchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			counter := newProbe()
			res, err := Run(RunConfig{
				Schedule:    vcrSchedule(scheme),
				NewCheckers: func() []Checker { return append(DefaultCheckers(), counter) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				t.Fatalf("%s violation at cycle %d: %s",
					res.Violation.Checker, res.Violation.Cycle, res.Violation.Detail)
			}
			if n := counter.applied; n[EventPause] != 1 || n[EventVcrResume] != 1 || n[EventRewind] != 1 {
				t.Errorf("applied pauses/resumes/rewinds = %d/%d/%d, want 1/1/1",
					n[EventPause], n[EventVcrResume], n[EventRewind])
			}
			wantFF := 0
			if scheme == "sr" || scheme == "dc" {
				wantFF = 1
			}
			if got := counter.applied[EventFF]; got != wantFF {
				t.Errorf("applied ffs = %d, want %d", got, wantFF)
			}
		})
	}
}

// TestVcrPauseDrainNoLeak parks a stream and never resumes it: the run
// must still drain (a parked viewer draws no bandwidth and holds no
// buffers), and the leak checker audits the empty arena and pool.
func TestVcrPauseDrainNoLeak(t *testing.T) {
	s := Schedule{
		Scheme: "sr", ClusterSize: 4, Disks: 8, K: 1,
		Titles: 2, TitleGroups: 4, MaxCycles: 120,
		Events: []Event{
			{Cycle: 0, Kind: EventAdmit, Title: "title0"},
			{Cycle: 1, Kind: EventAdmit, Title: "title1"},
			{Cycle: 3, Kind: EventPause, Stream: 0},
		},
	}
	res, err := Run(RunConfig{Schedule: s})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("%s violation at cycle %d: %s",
			res.Violation.Checker, res.Violation.Cycle, res.Violation.Detail)
	}
	if res.Cycles >= s.MaxCycles {
		t.Errorf("run did not drain with a parked stream outstanding (%d cycles)", res.Cycles)
	}
}

// clusterVcrSchedule is a deterministic 3-node schedule exercising the
// session ledger across pause/resume, a rewind, and a node kill.
func clusterVcrSchedule() Schedule {
	return Schedule{
		Scheme: "sr", ClusterSize: 4, Disks: 8, K: 1,
		Titles: 3, TitleGroups: 4, MaxCycles: 160,
		Nodes: 3, Replicas: 2, PlacementSeed: 7,
		Events: []Event{
			{Cycle: 0, Kind: EventAdmit, Title: "title0"},
			{Cycle: 0, Kind: EventAdmit, Title: "title1"},
			{Cycle: 1, Kind: EventAdmit, Title: "title2"},
			{Cycle: 2, Kind: EventPause, Stream: 0},
			{Cycle: 4, Kind: EventRewind, Stream: 1, Track: 1},
			{Cycle: 5, Kind: EventVcrResume, Stream: 0},
			{Cycle: 6, Kind: EventNodeKill, Node: 0},
		},
	}
}

// TestVcrClusterLedger runs the cluster VCR drill and audits the final
// ledger: the paused session resumed (Resumes counts both its VCR
// resume and any failover), the rewound session replayed, and every
// session ended finished or lost-with-justification.
func TestVcrClusterLedger(t *testing.T) {
	res, err := Run(RunConfig{Schedule: clusterVcrSchedule()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("%s violation at cycle %d: %s",
			res.Violation.Checker, res.Violation.Cycle, res.Violation.Detail)
	}
	if !res.Drained {
		t.Fatal("cluster did not drain")
	}
	if len(res.Sessions) != 3 {
		t.Fatalf("ledger has %d sessions, want 3", len(res.Sessions))
	}
	if got := res.Sessions[0].Resumes; got < 1 {
		t.Errorf("paused session resumed %d times, want >= 1", got)
	}
	if got := res.Sessions[1].Resumes; got < 1 {
		t.Errorf("rewound session re-admitted %d times, want >= 1", got)
	}
	for i, ses := range res.Sessions {
		if !ses.Finished && !ses.Lost {
			t.Errorf("session %d neither finished nor lost: %+v", i, ses)
		}
	}
}

// TestVcrCheckerCatchesBrokenResume proves the cross-node continuity
// checker audits VCR re-admissions with its own ledger, on one node as
// on three: a handoff deliberately shifted one group forward must be
// flagged as a position jump and shrunk to admit, pause, resume.
func TestVcrCheckerCatchesBrokenResume(t *testing.T) {
	for _, nodes := range []int{1, 3} {
		mustCatchAndShrink(t, RunConfig{
			Schedule: Schedule{
				Scheme: "sr", ClusterSize: 4, Disks: 8, K: 1,
				Titles: 2, TitleGroups: 6, MaxCycles: 160,
				Nodes: nodes, Replicas: 2, PlacementSeed: 7,
				Events: []Event{
					{Cycle: 0, Kind: EventAdmit, Title: "title0"},
					{Cycle: 1, Kind: EventAdmit, Title: "title1"},
					{Cycle: 3, Kind: EventPause, Stream: 0},
					{Cycle: 4, Kind: EventFF, Stream: 1, Rate: 2},
					{Cycle: 5, Kind: EventVcrResume, Stream: 0},
				},
			},
			Hooks: Hooks{ResumeGroupOffset: 1},
		}, "cluster-continuity", 3)
	}
}
