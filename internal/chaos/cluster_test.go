package chaos

import (
	"math/rand"
	"testing"

	"ftmm/internal/failure"
)

// killSchedule is the canonical cluster drill: streams on three nodes,
// one node killed mid-stream, one drained later.
func killSchedule(scheme string) Schedule {
	// For dc the whole 8-drive farm is one declustering group (the
	// complete (8,4) design); the other schemes split it into clusters.
	decluster := 0
	if scheme == "dc" {
		decluster = 8
	}
	return Schedule{
		Scheme: scheme, Disks: 8, ClusterSize: 4, K: 1,
		DeclusterGroup: decluster,
		Titles:         4, TitleGroups: 6, MaxCycles: 200,
		Nodes: 3, Replicas: 2, PlacementSeed: 7,
		Events: []Event{
			{Cycle: 0, Kind: EventAdmit, Title: "title0"},
			{Cycle: 0, Kind: EventAdmit, Title: "title1"},
			{Cycle: 1, Kind: EventAdmit, Title: "title2"},
			{Cycle: 1, Kind: EventAdmit, Title: "title3"},
			{Cycle: 2, Kind: EventAdmit, Title: "title0"},
			{Cycle: 3, Kind: EventNodeKill, Node: 0},
			{Cycle: 5, Kind: EventNodeDrain, Node: 1},
		},
	}
}

// TestClusterRunFailover: killing a node mid-stream moves its sessions
// to replica holders and every surviving session still gets the whole
// title, bit-exact, with zero checker violations.
func TestClusterRunFailover(t *testing.T) {
	for _, scheme := range SchemeNames() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			res, err := Run(RunConfig{Schedule: killSchedule(scheme)})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Violation != nil {
				t.Fatalf("%s violation at cycle %d: %s", res.Violation.Checker, res.Violation.Cycle, res.Violation.Detail)
			}
			if !res.Drained {
				t.Fatal("cluster never drained inside MaxCycles")
			}
			admitted, resumed := len(res.Sessions), 0
			if admitted == 0 {
				t.Fatal("no sessions admitted")
			}
			for _, s := range res.Sessions {
				if s.Resumes > 0 {
					resumed++
					if len(s.Chain) < 2 {
						t.Errorf("session %d resumed %d times but its chain is %v", s.Ordinal, s.Resumes, s.Chain)
					}
				}
				if !s.Finished && !s.Lost && !s.Terminated && !s.Cancelled {
					t.Errorf("session %d (title %s) ended in limbo: %+v", s.Ordinal, s.Title, s)
				}
			}
			if resumed == 0 {
				t.Error("node kill produced no failovers — the kill hit an idle node; schedule is not exercising the path")
			}
		})
	}
}

// TestClusterRunDrain: a drained node plays out its streams (no
// failover, no losses) and ends empty — the per-node leak checker
// audits it because draining nodes do not skip End.
func TestClusterRunDrain(t *testing.T) {
	sch := killSchedule("sr")
	sch.Events = []Event{
		{Cycle: 0, Kind: EventAdmit, Title: "title0"},
		{Cycle: 0, Kind: EventAdmit, Title: "title1"},
		{Cycle: 1, Kind: EventAdmit, Title: "title2"},
		{Cycle: 2, Kind: EventNodeDrain, Node: 1},
	}
	res, err := Run(RunConfig{Schedule: sch})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("%s violation at cycle %d: %s", res.Violation.Checker, res.Violation.Cycle, res.Violation.Detail)
	}
	for _, s := range res.Sessions {
		if s.Resumes != 0 || s.Lost {
			t.Errorf("drain must not disturb sessions, but session %d has resumes=%d lost=%v", s.Ordinal, s.Resumes, s.Lost)
		}
		if !s.Finished {
			t.Errorf("session %d did not finish under a drain", s.Ordinal)
		}
	}
}

// TestClusterCatchesBrokenFailover is the cluster harness's own
// acceptance test: a failover that restarts one group too far forward
// must be flagged by the cross-node continuity checker as a gap.
func TestClusterCatchesBrokenFailover(t *testing.T) {
	// Minimal reproduction: one admission on the victim, and the kill.
	mustCatchAndShrink(t, RunConfig{
		Schedule: killSchedule("sr"),
		Hooks:    Hooks{ResumeGroupOffset: 1},
	}, "cluster-continuity", 2)
}

// TestClusterCatchesInjectedRepairBug: the per-node checker set keeps
// its teeth inside a cluster run — a corrupted repair on one shard is
// caught by that node's parity checker.
func TestClusterCatchesInjectedRepairBug(t *testing.T) {
	sch := killSchedule("sr")
	sch.Events = []Event{
		{Cycle: 0, Kind: EventAdmit, Title: "title0"},
		{Cycle: 0, Kind: EventAdmit, Title: "title1"},
		{Cycle: 2, Kind: EventFail, Drive: 1, Node: 2},
		{Cycle: 4, Kind: EventRepair, Drive: 1, Node: 2},
	}
	// As on one node, the minimum is an admission that stages a title
	// on the shard, the failure, and its corrupted repair.
	mustCatchAndShrink(t, RunConfig{
		Schedule: sch,
		Hooks:    Hooks{AfterRepair: corruptTrackOnDrive},
	}, "parity", 3)
}

// TestClusterCampaignClean: every scheme survives randomized cluster
// schedules — node kills and drains on top of drive faults — with all
// per-node invariants and cross-node continuity intact.
func TestClusterCampaignClean(t *testing.T) {
	res, err := Campaign(CampaignConfig{Seed: *seedFlag, Runs: 10, Nodes: 3})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("run %d (%s, seed %d): %s violation at cycle %d: %s\nshrunk trace (%d events): %s",
			v.Run, v.Scheme, v.Seed, v.Violation.Checker, v.Violation.Cycle, v.Violation.Detail,
			len(v.Shrunk.Events), marshal(t, v.Shrunk))
	}
}

// TestClusterCampaignReproducible pins cluster-campaign determinism:
// same seed, byte-identical result, violations included (the sabotaged
// failover guarantees there are some to compare).
func TestClusterCampaignReproducible(t *testing.T) {
	cfg := CampaignConfig{
		Seed: *seedFlag, Runs: 6, Nodes: 3,
		Hooks: Hooks{ResumeGroupOffset: 1},
	}
	a, err := Campaign(cfg)
	if err != nil {
		t.Fatalf("first campaign: %v", err)
	}
	b, err := Campaign(cfg)
	if err != nil {
		t.Fatalf("second campaign: %v", err)
	}
	if len(a.Violations) == 0 {
		t.Fatalf("sabotaged cluster campaign found no violations; seed %d generated no kills with live sessions — pick another seed", *seedFlag)
	}
	if ja, jb := marshal(t, a), marshal(t, b); string(ja) != string(jb) {
		t.Errorf("same seed, different results:\n%s\n%s", ja, jb)
	}
}

// TestClusterScheduleSpecRoundTrip: generated cluster schedules survive
// Schedule -> scenario.Spec -> Schedule with topology and node events
// intact (the cluster corpus is written through this path).
func TestClusterScheduleSpecRoundTrip(t *testing.T) {
	schemes := SchemeNames()
	for i := 0; i < 30; i++ {
		rng := rand.New(rand.NewSource(failure.TrialSeed(*seedFlag, i)))
		sch := Generate(rng, schemes[i%len(schemes)], 3)
		spec := sch.ToSpec()
		if err := spec.Validate(); err != nil {
			t.Fatalf("schedule %d: exported spec invalid: %v\n%s", i, err, marshal(t, sch))
		}
		back := FromSpec(spec)
		if err := back.Validate(); err != nil {
			t.Fatalf("schedule %d: round-tripped schedule invalid: %v", i, err)
		}
		if back.Nodes != sch.Nodes || back.Replicas != sch.Replicas || back.PlacementSeed != sch.PlacementSeed {
			t.Fatalf("schedule %d: topology lost in round-trip: %+v vs %+v", i, back, sch)
		}
		kills := func(s *Schedule) (n, d int) {
			for _, ev := range s.Events {
				switch ev.Kind {
				case EventNodeKill:
					n++
				case EventNodeDrain:
					d++
				}
			}
			return
		}
		k1, d1 := kills(&sch)
		k2, d2 := kills(back)
		if k1 != k2 || d1 != d2 {
			t.Fatalf("schedule %d: node events lost in round-trip (%d/%d kills, %d/%d drains)", i, k1, k2, d1, d2)
		}
	}
}
