//go:build !race

package server

import (
	"testing"

	"ftmm/internal/analytic"
)

// TestDriveLogStepAllocs: the drive log is two reused slices, so once a
// fault's entries have come and gone, a Step with no fault logs nothing
// and allocates nothing while a stream plays (the race detector's
// shadow allocations would count too, hence the build tag).
func TestDriveLogStepAllocs(t *testing.T) {
	s, err := New(testOptions(analytic.StreamingRAID))
	if err != nil {
		t.Fatal(err)
	}
	loadTitles(t, s, 1, 160)
	if _, _, err := s.Request("movie0"); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	if err := s.RepairDisk(1); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(3); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if len(s.DriveLog()) != 0 {
			t.Fatal("a Step with no fault logged")
		}
	})
	if s.Engine().Active() == 0 {
		t.Fatal("the stream finished before the measurement ended")
	}
	if allocs != 0 {
		t.Errorf("a Step with no fault allocates %v times", allocs)
	}
}
