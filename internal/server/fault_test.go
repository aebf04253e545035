package server

import (
	"reflect"
	"testing"

	"ftmm/internal/analytic"
	"ftmm/internal/disk"
)

// faultServer returns an SR server playing one title, its drive 1 put
// in the named state: "operational", "failed", "rebuilding" (Restoring,
// its online rebuild running) or "abandoned" (Restoring, its rebuild
// given up and the second failure that stopped it reloaded from tape).
func faultServer(t *testing.T, state string) *Server {
	t.Helper()
	s, err := New(testOptions(analytic.StreamingRAID))
	if err != nil {
		t.Fatal(err)
	}
	loadTitles(t, s, 1, 32)
	if _, _, err := s.Request("movie0"); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.RunFor(2))
	if state != "operational" {
		must(s.FailDisk(1))
	}
	if state == "rebuilding" || state == "abandoned" {
		must(s.StartOnlineRebuild(1, 4))
		must(s.RunFor(1))
	}
	if state == "abandoned" {
		must(s.FailDisk(2)) // same cluster as drive 1
		must(s.RunFor(1))
		if len(logged(s, RebuildAbandoned)) != 1 {
			t.Fatalf("drive log %v, want the rebuild of drive 1 abandoned", s.DriveLog())
		}
		_, err := s.RebuildFromTertiary(2)
		must(err)
	}
	must(s.RunFor(1)) // the set-up's own faults leave the drive log
	drv, err := s.Farm().Drive(1)
	must(err)
	want := map[string]disk.State{
		"operational": disk.Operational, "failed": disk.Failed,
		"rebuilding": disk.Restoring, "abandoned": disk.Restoring,
	}[state]
	if drv.State() != want || (s.RebuildRemaining() > 0) != (state == "rebuilding") {
		t.Fatalf("%s set-up: drive 1 is %v with %d tracks left to rebuild", state, drv.State(), s.RebuildRemaining())
	}
	return s
}

// TestApplyOverKindsAndStates pins Apply's best-effort rules for every
// fault kind against every drive state: failing a failed drive and
// restoring an operational one are not applied, a Restoring drive takes
// a restore as a failed one does, and the rest is the named method's —
// a second online rebuild while one runs is an error, and so is a
// mid-cycle failure under an engine that does not model it. An applied
// fault is the first entry of the next Step's drive log.
func TestApplyOverKindsAndStates(t *testing.T) {
	const (
		applied    = "applied"
		notApplied = "not applied"
		fails      = "error"
	)
	want := map[string]map[FaultKind]string{
		"operational": {FaultFail: applied, FaultFailMidCycle: fails, FaultRepair: notApplied, FaultRebuild: notApplied, FaultTertiary: notApplied},
		"failed":      {FaultFail: notApplied, FaultFailMidCycle: notApplied, FaultRepair: applied, FaultRebuild: applied, FaultTertiary: applied},
		"rebuilding":  {FaultFail: applied, FaultFailMidCycle: fails, FaultRepair: applied, FaultRebuild: fails, FaultTertiary: applied},
		"abandoned":   {FaultFail: applied, FaultFailMidCycle: fails, FaultRepair: applied, FaultRebuild: applied, FaultTertiary: applied},
	}
	for _, state := range []string{"operational", "failed", "rebuilding", "abandoned"} {
		for _, kind := range []FaultKind{FaultFail, FaultFailMidCycle, FaultRepair, FaultRebuild, FaultTertiary} {
			s := faultServer(t, state)
			ok, err := s.Apply(Fault{Kind: kind, Drive: 1, Budget: 4})
			got := notApplied
			switch {
			case err != nil:
				got = fails
			case ok:
				got = applied
			}
			if got != want[state][kind] {
				t.Errorf("%s on a drive %s: %s (err %v), want %s", kind, state, got, err, want[state][kind])
				continue
			}
			cycle := s.Engine().Cycle()
			if _, err := s.Step(); err != nil {
				t.Fatalf("%s on a drive %s: step: %v", kind, state, err)
			}
			log := s.DriveLog()
			if hit := len(log) > 0 && log[0] == (DriveEvent{Cycle: cycle, Kind: kind, Drive: 1}); hit != (got == applied) ||
				got != applied && len(log) > 0 {
				t.Errorf("%s on a drive %s (%s): next drive log %v", kind, state, got, log)
			}
		}
	}

	ib := testOptions(analytic.ImprovedBandwidth)
	s, err := New(ib)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Apply(Fault{Kind: FaultFailMidCycle, Drive: 1}); !ok || err != nil {
		t.Errorf("mid-cycle failure under ib: applied %v, err %v", ok, err)
	}
	if ok, err := s.Apply(Fault{Kind: RestoreEnded, Drive: 1}); ok || err == nil {
		t.Errorf("Apply took a drive log outcome: applied %v, err %v", ok, err)
	}
	if ok, err := s.Apply(Fault{Kind: FaultFail, Drive: 99}); ok || err == nil {
		t.Errorf("Apply took drive 99 of 10: applied %v, err %v", ok, err)
	}
}

// TestDriveLogContract pins what DriveLog holds after Step returns cycle
// c's report: every fault applied since the Step before and every
// restore that ended in c, in order and stamped c, and nothing once the
// next Step has run.
func TestDriveLogContract(t *testing.T) {
	s, err := New(testOptions(analytic.StreamingRAID))
	if err != nil {
		t.Fatal(err)
	}
	loadTitles(t, s, 1, 32)
	if _, _, err := s.Request("movie0"); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(2); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	if log := s.DriveLog(); len(log) != 0 {
		t.Fatalf("a fault for the cycle to come is in the last cycle's log: %v", log)
	}
	rep, err := s.Step()
	if err != nil {
		t.Fatal(err)
	}
	if want := []DriveEvent{{Cycle: rep.Cycle, Kind: FaultFail, Drive: 1}}; !reflect.DeepEqual(s.DriveLog(), want) {
		t.Fatalf("cycle %d's drive log %v, want %v", rep.Cycle, s.DriveLog(), want)
	}
	if err := s.RepairDisk(1); err != nil {
		t.Fatal(err)
	}
	if rep, err = s.Step(); err != nil {
		t.Fatal(err)
	}
	want := []DriveEvent{{Cycle: rep.Cycle, Kind: FaultRepair, Drive: 1}, {Cycle: rep.Cycle, Kind: RestoreEnded, Drive: 1}}
	if !reflect.DeepEqual(s.DriveLog(), want) {
		t.Fatalf("cycle %d's drive log %v, want %v", rep.Cycle, s.DriveLog(), want)
	}
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if log := s.DriveLog(); len(log) != 0 {
		t.Fatalf("the repair's entries outlived the next Step: %v", log)
	}

	// An online rebuild's restore is in the log of the Step it ended in,
	// and in no other.
	if err := s.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	if err := s.StartOnlineRebuild(1, 4); err != nil {
		t.Fatal(err)
	}
	restored := 0
	for i := 0; s.RebuildRemaining() > 0 || i == 0; i++ {
		if i > 100 {
			t.Fatal("rebuild not converging")
		}
		rep, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range logged(s, RestoreEnded) {
			restored++
			if e.Cycle != rep.Cycle || e.Drive != 1 || s.RebuildRemaining() != 0 {
				t.Errorf("cycle %d: restore %+v with %d tracks left", rep.Cycle, e, s.RebuildRemaining())
			}
		}
	}
	if restored != 1 {
		t.Errorf("the rebuild's restore logged %d times, want 1", restored)
	}
}

// TestDriveLogOfEmptyRebuild: an online rebuild of a drive that held
// no tracks ends in the first Step, and that Step's log says so after
// the failure and the rebuild start, all three stamped with its cycle.
func TestDriveLogOfEmptyRebuild(t *testing.T) {
	s, err := New(testOptions(analytic.NonClustered))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	if err := s.StartOnlineRebuild(2, 8); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Step()
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Cycle
	want := []DriveEvent{{c, FaultFail, 2, nil}, {c, FaultRebuild, 2, nil}, {c, RestoreEnded, 2, nil}}
	if !reflect.DeepEqual(s.DriveLog(), want) {
		t.Fatalf("drive log %v, want %v", s.DriveLog(), want)
	}
}
