package server

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ftmm/internal/analytic"
	"ftmm/internal/rebuild"
)

// TestFaultsMeetRestoresInFlight applies each fault an online rebuild
// can meet — a failure of its drive or of a source, an instant repair,
// a tape reload, a second online rebuild — and the staging of a title,
// between two Steps while the last Step's restores are still in flight,
// and holds the server to a
// twin that lands its restores as each Step returns, as a rebuild
// inside the Step did. Every cycle's drive log must match, every drive
// a restore ended on must audit clean on both, and the farms must match
// where both have landed: once the fault is applied, and at the end.
// With no fault, the restore of R tracks at one a cycle ends in the R-th
// Step, as it did when the whole restore ran inside the Step.
func TestFaultsMeetRestoresInFlight(t *testing.T) {
	for _, f := range []Fault{
		{},
		{Kind: FaultFail, Drive: 1}, // the drive being rebuilt
		{Kind: FaultFail, Drive: 2}, // a source in its cluster
		{Kind: FaultRepair, Drive: 1},
		{Kind: FaultTertiary, Drive: 1},
		{Kind: FaultRebuild, Drive: 1, Budget: 4},
		{Kind: "stage"}, // a Request of a title not on disk
	} {
		name := fmt.Sprintf("%s-%d", f.Kind, f.Drive)
		switch f.Kind {
		case "":
			name = "none"
		case "stage":
			name = "stage"
		}
		apply := func(s *Server) (bool, error) {
			if f.Kind == "stage" {
				_, _, err := s.Request("movie2")
				return err == nil, err
			}
			return s.Apply(f)
		}
		t.Run(name, func(t *testing.T) {
			behind, inside := rebuildingServer(t), rebuildingServer(t)
			tracks, ended := behind.RebuildRemaining(), 0
			for cycle := 0; cycle < 40; cycle++ {
				if cycle == 2 && f.Kind != "" {
					if inside.RebuildRemaining() == 0 || behind.RebuildRemaining() <= inside.RebuildRemaining() {
						t.Fatalf("%d and %d tracks left: want restores in flight and more to come",
							behind.RebuildRemaining(), inside.RebuildRemaining())
					}
					bok, berr := apply(behind)
					iok, ierr := apply(inside)
					if bok != iok || fmt.Sprint(berr) != fmt.Sprint(ierr) {
						t.Fatalf("Apply = %v, %v; with restores landed %v, %v", bok, berr, iok, ierr)
					}
					sameFarm(t, behind, inside)
				}
				_, berr := behind.Step()
				_, ierr := inside.Step()
				inside.landRebuild()
				if berr != nil || ierr != nil {
					t.Fatalf("cycle %d: %v, %v", cycle, berr, ierr)
				}
				if b, i := fmt.Sprint(behind.DriveLog()), fmt.Sprint(inside.DriveLog()); b != i {
					t.Fatalf("cycle %d: drive log %s, with restores landed %s", cycle, b, i)
				}
				for _, e := range behind.DriveLog() {
					if e.Kind == RebuildAbandoned {
						ended++
					}
					if e.Kind != RestoreEnded {
						continue
					}
					if ended++; f.Kind == "" && cycle != tracks-1 {
						t.Fatalf("the restore of %d tracks, one a cycle, ended in Step %d", tracks, cycle+1)
					}
					for _, s := range []*Server{behind, inside} {
						if err := rebuild.CheckDrive(s.Farm(), s.Catalog().Layout(), e.Drive); err != nil {
							t.Fatalf("cycle %d: %v", cycle, err)
						}
					}
				}
			}
			if ended == 0 {
				t.Fatal("no restore ended and no rebuild was abandoned")
			}
			if behind.RebuildRemaining() != 0 || inside.RebuildRemaining() != 0 {
				t.Fatalf("%d and %d tracks left after the run", behind.RebuildRemaining(), inside.RebuildRemaining())
			}
			sameFarm(t, behind, inside)
		})
	}
}

// rebuildingServer returns an SR server playing two of its three titles,
// its drive 1 failed and under an online rebuild of one track a cycle.
func rebuildingServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(testOptions(analytic.StreamingRAID))
	if err != nil {
		t.Fatal(err)
	}
	loadTitles(t, s, 3, 32)
	for _, id := range []string{"movie0", "movie1"} {
		if _, _, err := s.Request(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	if err := s.StartOnlineRebuild(1, 4); err != nil {
		t.Fatal(err)
	}
	return s
}

// sameFarm fails unless every drive of the two servers is in the same
// state and holds the same tracks.
func sameFarm(t *testing.T, a, b *Server) {
	t.Helper()
	for id := 0; id < a.Farm().Size(); id++ {
		da, _ := a.Farm().Drive(id)
		db, _ := b.Farm().Drive(id)
		if da.State() != db.State() {
			t.Fatalf("drive %d is %v and %v", id, da.State(), db.State())
		}
		for track := 0; track < da.Tracks(); track++ {
			va, ea := da.View(track)
			vb, eb := db.View(track)
			if !bytes.Equal(va, vb) || !errors.Is(eb, ea) {
				t.Fatalf("drive %d track %d differs (%v, %v)", id, track, ea, eb)
			}
		}
	}
}
