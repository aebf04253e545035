package server

import (
	"fmt"
	"strings"
	"testing"

	"ftmm/internal/analytic"
	"ftmm/internal/disk"
	"ftmm/internal/rebuild"
	"ftmm/internal/schemes"
)

// Online rebuild: the server keeps serving degraded while the drive is
// restored a few tracks per cycle; when the rebuild completes the NC
// engine's cluster returns to normal and the buffer server is freed.
func TestOnlineRebuildNonClustered(t *testing.T) {
	s, err := New(testOptions(analytic.NonClustered))
	if err != nil {
		t.Fatal(err)
	}
	loadTitles(t, s, 2, 32)
	if _, _, err := s.Request("movie0"); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(2); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(3); err != nil {
		t.Fatal(err)
	}
	nc := s.Engine().(*schemes.NonClustered)
	if !nc.ClusterDegraded(0) {
		t.Fatal("cluster 0 not degraded after failure")
	}
	if err := s.StartOnlineRebuild(2, 8); err != nil {
		t.Fatal(err)
	}
	remaining := s.RebuildRemaining()
	if remaining == 0 {
		t.Fatal("rebuild has no work")
	}
	// A second rebuild cannot start while one runs.
	if err := s.StartOnlineRebuild(3, 8); err == nil {
		t.Fatal("concurrent rebuild accepted")
	}
	// Service continues while rebuilding; the rebuild drains ~2
	// tracks/cycle.
	for i := 0; s.RebuildRemaining() > 0; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if i > remaining {
			t.Fatalf("rebuild not converging: %d left", s.RebuildRemaining())
		}
	}
	if nc.ClusterDegraded(0) {
		t.Fatal("cluster still degraded after online rebuild completed")
	}
	// Post-rebuild playback is clean.
	base := s.Stats().Hiccups
	if _, _, err := s.Request("movie1"); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(300); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Hiccups - base; got != 0 {
		t.Fatalf("%d hiccups after rebuild", got)
	}
}

func TestOnlineRebuildStreamingRAIDWhileServing(t *testing.T) {
	s, err := New(testOptions(analytic.StreamingRAID))
	if err != nil {
		t.Fatal(err)
	}
	loadTitles(t, s, 2, 32)
	for i := 0; i < 2; i++ {
		if _, _, err := s.Request(fmt.Sprintf("movie%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunFor(2); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	if err := s.StartOnlineRebuild(1, 12); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(400); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Hiccups != 0 {
		t.Fatalf("hiccups during online rebuild: %d", st.Hiccups)
	}
	if s.RebuildRemaining() != 0 {
		// The playback may end before the rebuild; drain it.
		for s.RebuildRemaining() > 0 {
			if _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The rebuilt drive serves reads again: play once more, counting
	// reconstructions — there must be none.
	before := s.Stats().Reconstructions
	if _, _, err := s.Request("movie0"); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(300); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Reconstructions - before; got != 0 {
		t.Fatalf("%d reconstructions after rebuild completed", got)
	}
}

// A second failure in the groups an online rebuild restores ends the
// rebuild, not the service: every later Step still returns its cycle's
// report, the abort is counted and reported once, the replacement's
// unwritten tracks are read around like any two-failure loss, and a tape
// reload still restores both drives.
func TestOnlineRebuildAbortsOnSecondFailure(t *testing.T) {
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
	if err := s.StartOnlineRebuild(1, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if s.RebuildRemaining() == 0 {
		t.Fatal("rebuild finished in one cycle; the test needs it still running")
	}
	if err := s.FailDisk(2); err != nil { // same cluster as drive 1
		t.Fatal(err)
	}
	var abandoned []DriveEvent
	for i := 0; i < 4; i++ {
		cycle := s.Engine().Cycle()
		rep, err := s.Step()
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if rep == nil || rep.Cycle != cycle {
			t.Fatalf("cycle %d: report %+v", cycle, rep)
		}
		for _, e := range logged(s, RebuildAbandoned) {
			if e.Cycle != cycle {
				t.Errorf("cycle %d logged an abandon stamped %d", cycle, e.Cycle)
			}
			abandoned = append(abandoned, e)
		}
	}
	if got := s.Metrics().Counter("rebuild_aborted").Value(); got != 1 {
		t.Errorf("rebuild_aborted = %d, want 1", got)
	}
	if got := s.RebuildRemaining(); got != 0 {
		t.Errorf("RebuildRemaining = %d after the abort, want 0", got)
	}
	if len(abandoned) != 1 || abandoned[0].Drive != 1 || abandoned[0].Err == nil ||
		!strings.Contains(abandoned[0].Err.Error(), "drive 2") {
		t.Errorf("drive logs hold abandons %v, want one of drive 1's rebuild, failing on drive 2", abandoned)
	}
	if err := s.RunUntilIdle(300); err != nil {
		t.Fatal(err)
	}
	crashed := s.Stats()
	if crashed.Hiccups == 0 {
		t.Fatal("two drives short in one cluster produced no hiccups")
	}

	for _, d := range []int{1, 2} {
		if _, err := s.RebuildFromTertiary(d); err != nil {
			t.Fatalf("tertiary rebuild of %d: %v", d, err)
		}
	}
	if _, _, err := s.Request("movie0"); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(300); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Hiccups - crashed.Hiccups; got != 0 {
		t.Fatalf("%d hiccups after the tape reload", got)
	}
}

func TestStartOnlineRebuildValidation(t *testing.T) {
	s, err := New(testOptions(analytic.StreamingRAID))
	if err != nil {
		t.Fatal(err)
	}
	loadTitles(t, s, 1, 16)
	if _, _, err := s.Request("movie0"); err != nil {
		t.Fatal(err)
	}
	if err := s.StartOnlineRebuild(99, 8); err == nil {
		t.Error("bad drive accepted")
	}
	if err := s.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	if err := s.StartOnlineRebuild(0, 1); err == nil {
		t.Error("starvation budget accepted")
	}
}

// Catastrophic failure end to end: two drives in one cluster fail, the
// affected tracks hiccup (parity cannot cover two holes), and service is
// fully restored by reloading from the tape library — the paper's last
// resort.
func TestCatastrophicFailureAndTertiaryRecovery(t *testing.T) {
	s, err := New(testOptions(analytic.StreamingRAID))
	if err != nil {
		t.Fatal(err)
	}
	loadTitles(t, s, 2, 16)
	if _, _, err := s.Request("movie0"); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(2); err != nil {
		t.Fatal(err)
	}
	// Two data drives of cluster 0: catastrophic.
	if err := s.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{0, 1} {
		if drv, _ := s.Farm().Drive(d); drv.State() != disk.Failed {
			t.Fatalf("drive %d is %v, want failed", d, drv.State())
		}
	}
	if err := s.RunUntilIdle(300); err != nil {
		t.Fatal(err)
	}
	afterCrash := s.Stats()
	if afterCrash.Hiccups == 0 {
		t.Fatal("catastrophic failure produced no hiccups")
	}
	// Recover both drives from tape.
	for _, d := range []int{0, 1} {
		cost, err := s.RebuildFromTertiary(d)
		if err != nil {
			t.Fatalf("tertiary rebuild of %d: %v", d, err)
		}
		if cost <= 0 {
			t.Fatal("free tertiary rebuild")
		}
	}
	// Clean playback afterwards.
	if _, _, err := s.Request("movie0"); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(300); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Hiccups - afterCrash.Hiccups; got != 0 {
		t.Fatalf("%d hiccups after tertiary recovery", got)
	}
}

// Tape reload is the paper's answer to two failures in one cluster, and
// it restores one drive at a time: the Non-clustered cluster must stay
// degraded on the drive still down, and return to normal — buffer server
// freed, no parity read, no hiccup — once the second reload lands.
func TestTertiaryReloadRestoresNonClustered(t *testing.T) {
	opts := testOptions(analytic.NonClustered)
	opts.K = 1
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	loadTitles(t, s, 1, 32)
	play := func() {
		t.Helper()
		if _, _, err := s.Request("movie0"); err != nil {
			t.Fatal(err)
		}
		if err := s.RunUntilIdle(300); err != nil {
			t.Fatal(err)
		}
	}
	play() // stages the title onto the farm
	nc := s.Engine().(*schemes.NonClustered)
	for _, id := range []int{1, 2} { // two data drives of cluster 0
		if err := s.FailDisk(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.RebuildFromTertiary(1); err != nil {
		t.Fatal(err)
	}
	if !nc.ClusterDegraded(0) {
		t.Fatal("cluster 0 left degraded mode with drive 2 still down")
	}
	if _, err := s.RebuildFromTertiary(2); err != nil {
		t.Fatal(err)
	}
	if nc.ClusterDegraded(0) {
		t.Fatal("cluster 0 still degraded after both drives were reloaded")
	}
	before := s.Stats()
	play()
	after := s.Stats()
	if after.Hiccups != before.Hiccups || after.ParityReads != before.ParityReads {
		t.Fatalf("playback after reload: %d hiccups, %d parity reads, want none",
			after.Hiccups-before.Hiccups, after.ParityReads-before.ParityReads)
	}
	// The one buffer server is free again: a failure elsewhere gets it.
	if err := s.FailDisk(6); err != nil {
		t.Fatal(err)
	}
	if nc.Degradations() != 0 {
		t.Fatal("tape reload never released cluster 0's buffer server")
	}
}

// A replaced drive is Restoring for as long as its restore runs; only
// the restore's end makes it Operational. An online rebuild abandoned to
// a second failure leaves it Restoring, and so does a repair that parity
// cannot finish while that second drive is down. Once the tape has
// reloaded the second drive, RepairDisk restores the first as it stands,
// and the farm audits clean and plays without a reconstruction.
func TestDriveRestoringUntilRestoreEnds(t *testing.T) {
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
	state := func(id int) disk.State {
		drv, err := s.Farm().Drive(id)
		if err != nil {
			t.Fatal(err)
		}
		return drv.State()
	}
	if err := s.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	if err := s.StartOnlineRebuild(1, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if s.RebuildRemaining() == 0 || state(1) != disk.Restoring {
		t.Fatalf("drive 1 is %v with %d tracks left to rebuild, want restoring mid-rebuild", state(1), s.RebuildRemaining())
	}
	if err := s.FailDisk(2); err != nil { // same cluster as drive 1
		t.Fatal(err)
	}
	var abandoned []DriveEvent
	for i := 0; i < 2; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		abandoned = append(abandoned, logged(s, RebuildAbandoned)...)
	}
	if len(abandoned) != 1 || state(1) != disk.Restoring {
		t.Fatalf("drive 1 is %v after its rebuild was abandoned, want restoring", state(1))
	}
	if err := s.RepairDisk(1); err == nil {
		t.Fatal("repair from parity succeeded with a second drive of the cluster down")
	}
	if state(1) != disk.Restoring {
		t.Fatalf("drive 1 is %v after a repair parity could not finish, want restoring", state(1))
	}
	if _, err := s.RebuildFromTertiary(2); err != nil {
		t.Fatal(err)
	}
	if err := s.RepairDisk(1); err != nil {
		t.Fatal(err)
	}
	if state(1) != disk.Operational || state(2) != disk.Operational {
		t.Fatalf("drives 1, 2 are %v, %v after their restores, want operational", state(1), state(2))
	}
	if err := rebuild.CheckAll(s.Farm(), s.Catalog().Layout()); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(300); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if _, _, err := s.Request("movie0"); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(300); err != nil {
		t.Fatal(err)
	}
	if after := s.Stats(); after.Hiccups != before.Hiccups || after.Reconstructions != before.Reconstructions {
		t.Fatalf("playback after the restores: %d hiccups, %d reconstructions, want none",
			after.Hiccups-before.Hiccups, after.Reconstructions-before.Reconstructions)
	}
}

// An online rebuild of a drive that held no tracks has nothing to
// restore, and still ends: at the next Step the drive is Operational and
// the Non-clustered engine has its buffer server back.
func TestOnlineRebuildOfEmptyDriveEnds(t *testing.T) {
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
	nc := s.Engine().(*schemes.NonClustered)
	if !nc.ClusterDegraded(0) {
		t.Fatal("cluster 0 not degraded after the failure")
	}
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	drv, _ := s.Farm().Drive(2)
	if drv.State() != disk.Operational || nc.ClusterDegraded(0) {
		t.Fatalf("after the empty rebuild: drive 2 %v, cluster 0 degraded = %v", drv.State(), nc.ClusterDegraded(0))
	}
}

// logged returns the entries of the given kind in the last Step's drive
// log.
func logged(s *Server, kind FaultKind) []DriveEvent {
	var out []DriveEvent
	for _, e := range s.DriveLog() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}
