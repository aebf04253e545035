package rebuild

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"ftmm/internal/disk"
	"ftmm/internal/layout"
)

// TestBeginFinishMatchesStep is the split restore's differential: on two
// identical farms, one rebuilt by Step and one by Begin and Finish, every
// budget from 0 to past a whole drive's worth, a data and a parity victim
// under both clustered placements must queue what Step restores, count
// the same reads and leave the same drive, cycle by cycle. Some runs meet
// a second failure after the first cycle, of a source drive or of the
// victim itself, where Begin must fail as Step does and what it queued
// before the failure still lands. No queued track is on the drive before
// Finish, and Remaining counts it until then. Every other cycle leaves
// Finish to the next Begin.
func TestBeginFinishMatchesStep(t *testing.T) {
	for _, placement := range []layout.Placement{layout.DedicatedParity, layout.IntermixedParity} {
		for _, victim := range []int{0, 4} {
			farm, lay, _ := placedRig(t, placement)
			failAndReplace(t, farm, victim)
			r, err := New(farm, lay, victim)
			if err != nil {
				t.Fatal(err)
			}
			maxBudget := (r.Remaining() + 1) * r.ReadsPerTrack()
			for _, second := range []int{-1, 1, victim} {
				for budget := 0; budget <= maxBudget; budget++ {
					name := fmt.Sprintf("%v/victim %d/second %d/budget %d", placement, victim, second, budget)
					compareSplit(t, name, placement, victim, second, budget)
				}
			}
		}
	}
}

// compareSplit runs one case of TestBeginFinishMatchesStep.
func compareSplit(t *testing.T, name string, placement layout.Placement, victim, second, budget int) {
	t.Helper()
	type side struct {
		farm *disk.Farm
		r    *Rebuilder
	}
	var step, split side
	for _, s := range []*side{&step, &split} {
		farm, lay, content := placedRig(t, placement)
		failAndReplace(t, farm, victim)
		r, err := New(farm, lay, victim)
		if err != nil {
			t.Fatal(err)
		}
		*s = side{farm, r}
		defer func() {
			if !t.Failed() && second < 0 && s.r.Done() {
				verifyWhole(t, farm, lay, content, victim)
			}
		}()
	}
	target := split.r.target
	for cycle := 0; cycle < 100; cycle++ {
		if cycle == 1 && second >= 0 {
			for _, s := range []side{step, split} {
				drv, _ := s.farm.Drive(second)
				if err := drv.Fail(); err != nil {
					t.Fatal(err)
				}
			}
		}
		want, werr := step.r.Step(budget)
		got, gerr := split.r.Begin(budget)
		if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s: cycle %d: Begin queued %d (%v), Step restored %d (%v)", name, cycle, got, gerr, want, werr)
		}
		if left := split.r.Remaining(); left != step.r.Remaining()+got {
			t.Fatalf("%s: cycle %d: %d tracks remain with %d in flight, Step leaves %d", name, cycle, left, got, step.r.Remaining())
		}
		for _, l := range split.r.landing {
			if _, err := target.View(l.track); !errors.Is(err, disk.ErrEmptyTrack) && !errors.Is(err, disk.ErrFailed) {
				t.Fatalf("%s: cycle %d: track %d is on the drive before Finish (%v)", name, cycle, l.track, err)
			}
		}
		if cycle%2 == 0 || werr != nil || want == 0 {
			if err := split.r.Finish(); err != nil && werr == nil {
				t.Fatalf("%s: cycle %d: Finish: %v", name, cycle, err)
			}
		} else if _, err := split.r.Begin(0); err != nil { // lands the cycle's tracks, queues none
			t.Fatalf("%s: cycle %d: Begin(0): %v", name, cycle, err)
		}
		if split.r.Restored() != step.r.Restored() || split.r.Reads() != step.r.Reads() ||
			!slices.Equal(split.r.ReadsByDrive(), step.r.ReadsByDrive()) || split.r.Remaining() != step.r.Remaining() {
			t.Fatalf("%s: cycle %d: restored %d, reads %d %v, %d left; Step: %d, %d %v, %d left", name, cycle,
				split.r.Restored(), split.r.Reads(), split.r.ReadsByDrive(), split.r.Remaining(),
				step.r.Restored(), step.r.Reads(), step.r.ReadsByDrive(), step.r.Remaining())
		}
		sameDrive(t, name, step.farm, split.farm, victim)
		if werr != nil || want == 0 {
			return
		}
	}
	t.Fatalf("%s: rebuild not converging", name)
}

// sameDrive fails unless the drive holds the same tracks on both farms.
func sameDrive(t *testing.T, name string, a, b *disk.Farm, id int) {
	t.Helper()
	da, _ := a.Drive(id)
	db, _ := b.Drive(id)
	if da.State() != db.State() {
		t.Fatalf("%s: drive %d is %v and %v", name, id, da.State(), db.State())
	}
	for track := 0; track < da.Tracks(); track++ {
		va, ea := da.View(track)
		vb, eb := db.View(track)
		if !bytes.Equal(va, vb) || !errors.Is(eb, ea) {
			t.Fatalf("%s: drive %d track %d differs (%v, %v)", name, id, track, ea, eb)
		}
	}
}
