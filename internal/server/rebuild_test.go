package server

import (
	"fmt"
	"testing"

	"ftmm/internal/analytic"
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
	if !s.Farm().Catastrophic() {
		t.Fatal("farm not catastrophic")
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
	if nc.Degradations() != 0 || nc.ClusterUnprotected(1) {
		t.Fatal("tape reload never released cluster 0's buffer server")
	}
}
