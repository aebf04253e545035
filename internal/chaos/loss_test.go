package chaos

import (
	"strings"
	"testing"

	"ftmm/internal/disk"
	"ftmm/internal/sched"
	"ftmm/internal/schemes"
)

// lossSchedule admits four titles on two clusters of five drives, fails
// drive 2 at cycle 6 (mid-cycle under ib) and repairs it at cycle 20.
func lossSchedule(scheme string) Schedule {
	fail := EventFail
	if scheme == "ib" {
		fail = EventFailMidCycle
	}
	return Schedule{
		Scheme: scheme, Disks: 10, ClusterSize: 5, K: 2, Titles: 4, TitleGroups: 8, MaxCycles: 400,
		Events: []Event{
			{Cycle: 0, Kind: EventAdmit, Title: "title0"},
			{Cycle: 1, Kind: EventAdmit, Title: "title1"},
			{Cycle: 2, Kind: EventAdmit, Title: "title2"},
			{Cycle: 3, Kind: EventAdmit, Title: "title3"},
			{Cycle: 6, Kind: fail, Drive: 2},
			{Cycle: 20, Kind: EventRepair, Drive: 2},
		},
	}
}

// lossInjector adds, to the first report whose first hiccup names a
// failure, the hiccups more makes of that one, standing in for an engine
// that lost those too.
type lossInjector struct {
	*ContinuityChecker
	more func(rc *RunContext, h sched.Hiccup) []sched.Hiccup
	hit  *sched.Hiccup
}

func (l lossInjector) AfterStep(rc *RunContext, rep *sched.CycleReport) error {
	if !l.hit.Failure.Named && len(rep.Hiccups) > 0 && rep.Hiccups[0].Failure.Named {
		*l.hit = rep.Hiccups[0]
		rep = rep.Clone()
		rep.Hiccups = append(rep.Hiccups, l.more(rc, *l.hit)...)
	}
	return l.ContinuityChecker.AfterStep(rc, rep)
}

// TestContinuityPerFailureRules: each Non-clustered loss names the drive
// failure behind it, and what one stream loses to one failure is bounded
// by count and shape. Beside a real transition loss, a loss naming a
// failure the drive log never had, one in a second parity group, losses
// over the switchover's cap, and an unprotected pass's loss of another
// member are each a violation.
func TestContinuityPerFailureRules(t *testing.T) {
	for _, tc := range []struct {
		name, scheme, detail string
		more                 func(rc *RunContext, h sched.Hiccup) []sched.Hiccup
	}{
		{"unlogged failure", "nc-simple", "which the drive log does not have", func(_ *RunContext, h sched.Hiccup) []sched.Hiccup {
			h.Failure.Cycle++
			return []sched.Hiccup{h}
		}},
		{"unlogged drive", "nc", "which the drive log does not have", func(_ *RunContext, h sched.Hiccup) []sched.Hiccup {
			h.Failure.Drive++
			return []sched.Hiccup{h}
		}},
		// Two groups on: the same cluster of two, on the same title.
		{"second parity group", "nc-simple", "lost tracks of groups", func(rc *RunContext, h sched.Hiccup) []sched.Hiccup {
			h.Track += 2 * rc.Srv.GroupWidth()
			return []sched.Hiccup{h}
		}},
		{"simple switchover over its cap", "nc-simple", "bound is 4", func(_ *RunContext, h sched.Hiccup) []sched.Hiccup {
			return []sched.Hiccup{h, h, h, h}
		}},
		{"alternate switchover over its cap", "nc", "bound is 1", func(_ *RunContext, h sched.Hiccup) []sched.Hiccup {
			return []sched.Hiccup{h}
		}},
		// The first transition loss is the stream's next track, not the
		// failed drive's.
		{"unprotected pass off the failed member", "nc-simple", "was not erased", func(_ *RunContext, h sched.Hiccup) []sched.Hiccup {
			h.Reason = schemes.LostUnprotected
			return []sched.Hiccup{h}
		}},
		{"second mid-cycle loss", "ib", "bound is 1", func(_ *RunContext, h sched.Hiccup) []sched.Hiccup {
			return []sched.Hiccup{h}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hit sched.Hiccup
			res, err := Run(RunConfig{Schedule: lossSchedule(tc.scheme), NewCheckers: func() []Checker {
				return []Checker{lossInjector{NewContinuityChecker(), tc.more, &hit}}
			}})
			if err != nil {
				t.Fatal(err)
			}
			if !hit.Failure.Named {
				t.Fatal("no hiccup named a failure; the schedule does not reach a transition")
			}
			if hit.Reason == schemes.LostNoSlot {
				t.Fatalf("the first named loss is a slot refusal, outside the cap: %+v", hit)
			}
			v := res.Violation
			if v == nil || v.Checker != "continuity" || !strings.Contains(v.Detail, tc.detail) {
				t.Fatalf("after %+v, want a continuity violation saying %q; violation = %+v", hit, tc.detail, v)
			}
		})
	}
}

// TestContinuityUnnamedLoss: a Non-clustered hiccup on a group whose
// read found one member erased, naming no failure, is a violation,
// under both switchover policies.
func TestContinuityUnnamedLoss(t *testing.T) {
	for _, scheme := range []string{"nc", "nc-simple"} {
		hit := false
		res, err := Run(RunConfig{Schedule: lossSchedule(scheme), NewCheckers: func() []Checker {
			return []Checker{hiccupInjector{NewContinuityChecker(), 12, &hit}}
		}})
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			t.Fatalf("%s: no track delivered at cycle 12 was read with exactly one member erased", scheme)
		}
		if v := res.Violation; v == nil || v.Checker != "continuity" || v.Cycle != 12 || !strings.Contains(v.Detail, "names no failure") {
			t.Fatalf("%s: a single-erasure hiccup naming no failure was accepted; violation = %+v", scheme, v)
		}
	}
}

// peakHeld runs the continuity checker and keeps the most entries it
// held after any cycle.
type peakHeld struct {
	*ContinuityChecker
	peak *int
}

func (p peakHeld) AfterStep(rc *RunContext, rep *sched.CycleReport) error {
	err := p.ContinuityChecker.AfterStep(rc, rep)
	*p.peak = max(*p.peak, len(p.erased)+len(p.losses))
	return err
}

// TestContinuityForgetsDrainedStreams: the checker's memory follows the
// streams being served. After a drained four-title run through a
// failure and its repair, having held reads and losses on the way, it
// holds no entry.
func TestContinuityForgetsDrainedStreams(t *testing.T) {
	for _, scheme := range []string{"sr", "sg", "nc", "nc-simple", "ib", "dc"} {
		sch := lossSchedule(scheme)
		if scheme == "dc" {
			sch.Disks = 18 // a whole number of declustering groups of 9
		}
		c, peak := NewContinuityChecker(), 0
		res, err := Run(RunConfig{Schedule: sch, NewCheckers: func() []Checker {
			return append(DefaultCheckers()[1:], peakHeld{c, &peak})
		}})
		if err != nil {
			t.Fatal(err)
		}
		if v := res.Violation; v != nil {
			t.Fatalf("%s: %s violation at cycle %d: %s", scheme, v.Checker, v.Cycle, v.Detail)
		}
		if !res.Drained || peak == 0 {
			t.Fatalf("%s: drained %v, peak entries %d; want a drained run that held some", scheme, res.Drained, peak)
		}
		if len(c.erased) != 0 || len(c.losses) != 0 {
			t.Fatalf("%s: drained run left %d reads and %d loss tallies held", scheme, len(c.erased), len(c.losses))
		}
	}
}

// restoredReads counts the tracks delivered as read, not rebuilt, off a
// drive still Restoring.
type restoredReads struct{ n *int }

func (restoredReads) Name() string            { return "restored-reads" }
func (restoredReads) Begin(*RunContext) error { return nil }
func (restoredReads) End(*RunContext) error   { return nil }
func (r restoredReads) AfterStep(rc *RunContext, rep *sched.CycleReport) error {
	lay := rc.Srv.Catalog().Layout()
	for _, d := range rep.Delivered {
		obj, _ := lay.Object(d.ObjectID)
		loc := obj.Groups[d.Track/lay.GroupWidth()].Data[d.Track%lay.GroupWidth()]
		if drv, _ := rc.Srv.Farm().Drive(loc.Disk); !d.Reconstructed && drv.State() == disk.Restoring {
			*r.n++
		}
	}
	return nil
}

// TestUnprotectedClusterReadsRestoredTracks: a Non-clustered cluster no
// buffer server carries loses its failed drive's track on every pass,
// naming that drive's failure, until the drive's online rebuild writes
// the track; from then on the track is read and delivered.
func TestUnprotectedClusterReadsRestoredTracks(t *testing.T) {
	sch := Schedule{
		Scheme: "nc", Disks: 8, ClusterSize: 4, K: 1, Titles: 1, TitleGroups: 30, MaxCycles: 400,
		Events: []Event{
			{Cycle: 0, Kind: EventAdmit, Title: "title0"},
			{Cycle: 2, Kind: EventFail, Drive: 4}, // cluster 1 takes the one buffer server
			{Cycle: 3, Kind: EventFail, Drive: 1}, // cluster 0 runs unprotected
			{Cycle: 20, Kind: EventRebuild, Drive: 1, Budget: 3},
		},
	}
	read := 0
	res, err := Run(RunConfig{Schedule: sch, NewCheckers: func() []Checker {
		return append(DefaultCheckers(), restoredReads{&read})
	}})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Violation; v != nil {
		t.Fatalf("%s violation at cycle %d: %s", v.Checker, v.Cycle, v.Detail)
	}
	if res.Nodes[0].Srv.Stats().Hiccups == 0 || read == 0 {
		t.Fatalf("%d hiccups, %d tracks read off the Restoring drive; want both", res.Nodes[0].Srv.Stats().Hiccups, read)
	}
}
