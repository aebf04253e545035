package rebuild

import (
	"bytes"
	"math"
	"testing"

	"ftmm/internal/disk"
	"ftmm/internal/diskmodel"
	"ftmm/internal/layout"
	"ftmm/internal/units"
	"ftmm/internal/workload"
)

// rig: 10 drives x 60 tracks, C=5, two 12-track objects.
func testRig(t *testing.T) (*disk.Farm, *layout.Layout, map[string][]byte) {
	t.Helper()
	return placedRig(t, layout.DedicatedParity)
}

func placedRig(t *testing.T, placement layout.Placement) (*disk.Farm, *layout.Layout, map[string][]byte) {
	t.Helper()
	p := diskmodel.Table1()
	p.Capacity = 60 * p.TrackSize
	farm, err := disk.NewFarm(10, 5, p)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := layout.ForFarm(farm, placement)
	if err != nil {
		t.Fatal(err)
	}
	content := map[string][]byte{}
	trackSize := int(p.TrackSize)
	for i, id := range []string{"X", "Y"} {
		c := workload.SyntheticContent(id, 12*trackSize)
		content[id] = bytes.Clone(c) // the drives keep c itself
		obj, err := lay.AddObject(id, 12, i, units.MPEG1)
		if err != nil {
			t.Fatal(err)
		}
		if err := layout.WriteObject(farm, obj, c); err != nil {
			t.Fatal(err)
		}
	}
	return farm, lay, content
}

func failAndReplace(t *testing.T, farm *disk.Farm, id int) {
	t.Helper()
	drv, err := farm.Drive(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := drv.Fail(); err != nil {
		t.Fatal(err)
	}
	if err := drv.Replace(); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	farm, lay, _ := testRig(t)
	if _, err := New(nil, lay, 0); err == nil {
		t.Error("nil farm accepted")
	}
	if _, err := New(farm, nil, 0); err == nil {
		t.Error("nil layout accepted")
	}
	if _, err := New(farm, lay, 99); err == nil {
		t.Error("bad drive accepted")
	}
	drv, _ := farm.Drive(0)
	if err := drv.Fail(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(farm, lay, 0); err == nil {
		t.Error("failed (unreplaced) drive accepted")
	}
}

func TestPlanSize(t *testing.T) {
	farm, lay, _ := testRig(t)
	// Drive 0 holds the first data track of each cluster-0 group:
	// X groups 0 and 2 (start cluster 0), Y groups 1 (start cluster 1 →
	// group 1 wraps to cluster 0) ... count explicitly instead.
	failAndReplace(t, farm, 0)
	r, err := New(farm, lay, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, obj := range lay.AllObjects() {
		for gi := range obj.Groups {
			g := &obj.Groups[gi]
			for _, loc := range g.Data {
				if loc.Disk == 0 {
					want++
				}
			}
			if g.Parity.Disk == 0 {
				want++
			}
		}
	}
	if r.Remaining() != want || want == 0 {
		t.Fatalf("plan = %d items, want %d (nonzero)", r.Remaining(), want)
	}
	if r.ReadsPerTrack() != 4 {
		t.Fatalf("reads per track = %d", r.ReadsPerTrack())
	}
}

func TestIncrementalRebuildRestoresExactBytes(t *testing.T) {
	for _, victim := range []int{0, 4} { // a data drive and a parity drive
		farm, lay, content := testRig(t)
		failAndReplace(t, farm, victim)
		r, err := New(farm, lay, victim)
		if err != nil {
			t.Fatal(err)
		}
		total := r.Remaining()
		// Budget of 8 reads per cycle restores 2 tracks per cycle.
		cycles := 0
		for !r.Done() {
			n, err := r.Step(8)
			if err != nil {
				t.Fatal(err)
			}
			if n != 2 && !r.Done() {
				t.Fatalf("restored %d per cycle, want 2", n)
			}
			cycles++
			if cycles > 100 {
				t.Fatal("rebuild not converging")
			}
		}
		if r.Restored() != total {
			t.Fatalf("restored %d of %d", r.Restored(), total)
		}
		if r.Reads() != total*4 {
			t.Fatalf("reads = %d, want %d", r.Reads(), total*4)
		}
		wantCycles := (total + 1) / 2
		if cycles != wantCycles {
			t.Fatalf("cycles = %d, want %d", cycles, wantCycles)
		}
		verifyWhole(t, farm, lay, content, victim)
	}
}

// verifyWhole checks that after the victim's rebuild every track reads
// back bit-exact and parity verifies (every track reconstructs to what
// it reads).
func verifyWhole(t *testing.T, farm *disk.Farm, lay *layout.Layout, content map[string][]byte, victim int) {
	t.Helper()
	trackSize := int(farm.Params().TrackSize)
	for id, c := range content {
		obj, _ := lay.Object(id)
		for i := 0; i < obj.Tracks; i++ {
			blk, err := layout.ReadDataTrack(farm, obj, i)
			if err != nil {
				t.Fatalf("%v victim %d: %s/%d: %v", lay.Placement(), victim, id, i, err)
			}
			if !bytes.Equal(blk, c[i*trackSize:(i+1)*trackSize]) {
				t.Fatalf("%v victim %d: %s/%d content differs", lay.Placement(), victim, id, i)
			}
			rec, err := layout.ReconstructDataTrack(farm, obj, i)
			if err != nil || !bytes.Equal(rec, blk) {
				t.Fatalf("%v victim %d: parity inconsistent at %s/%d: %v", lay.Placement(), victim, id, i, err)
			}
		}
	}
}

// An unbounded budget is the instant repair (what Server.RepairDisk
// runs): one Step restores the whole drive — data and parity tracks —
// under both clustered placements, one victim after another on the same
// farm.
func TestInstantRebuildRestoresExactBytes(t *testing.T) {
	for _, placement := range []layout.Placement{layout.DedicatedParity, layout.IntermixedParity} {
		farm, lay, content := placedRig(t, placement)
		for _, victim := range []int{0, 4, 7} { // data, parity, other-cluster
			failAndReplace(t, farm, victim)
			r, err := New(farm, lay, victim)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Step(math.MaxInt); err != nil {
				t.Fatalf("%v: rebuild drive %d: %v", placement, victim, err)
			}
			if !r.Done() {
				t.Fatalf("%v: drive %d: %d tracks left after an unbounded Step", placement, victim, r.Remaining())
			}
			verifyWhole(t, farm, lay, content, victim)
		}
	}
}

func TestStepBudgetTooSmall(t *testing.T) {
	farm, lay, _ := testRig(t)
	failAndReplace(t, farm, 0)
	r, _ := New(farm, lay, 0)
	n, err := r.Step(3) // < C-1
	if err != nil || n != 0 {
		t.Fatalf("Step(3) = %d, %v; want 0 progress", n, err)
	}
	if _, err := r.Run(3, 10); err == nil {
		t.Error("Run with starvation budget should error")
	}
}

func TestCyclesNeeded(t *testing.T) {
	farm, lay, _ := testRig(t)
	failAndReplace(t, farm, 0)
	r, _ := New(farm, lay, 0)
	total := r.Remaining()
	if got := r.CyclesNeeded(4); got != total {
		t.Errorf("budget 4: %d cycles, want %d", got, total)
	}
	if got := r.CyclesNeeded(12); got != (total+2)/3 {
		t.Errorf("budget 12: %d cycles, want %d", got, (total+2)/3)
	}
	if got := r.CyclesNeeded(3); got != -1 {
		t.Errorf("starvation budget: %d, want -1", got)
	}
}

func TestRun(t *testing.T) {
	farm, lay, _ := testRig(t)
	failAndReplace(t, farm, 2)
	r, _ := New(farm, lay, 2)
	want := r.CyclesNeeded(8)
	cycles, err := r.Run(8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if cycles != want {
		t.Fatalf("Run took %d cycles, estimate said %d", cycles, want)
	}
	if !r.Done() {
		t.Fatal("not done after Run")
	}
	// Running again is a no-op.
	if cycles, err := r.Run(8, 10); err != nil || cycles != 0 {
		t.Fatalf("re-Run = %d, %v", cycles, err)
	}
}

func TestRunBoundsExceeded(t *testing.T) {
	farm, lay, _ := testRig(t)
	failAndReplace(t, farm, 0)
	r, _ := New(farm, lay, 0)
	if _, err := r.Run(4, 1); err == nil {
		t.Error("maxCycles bound not enforced")
	}
}

func TestRebuildFailsWithSecondFailure(t *testing.T) {
	farm, lay, _ := testRig(t)
	failAndReplace(t, farm, 0)
	drv, _ := farm.Drive(1)
	if err := drv.Fail(); err != nil {
		t.Fatal(err)
	}
	r, _ := New(farm, lay, 0)
	if _, err := r.Step(100); err == nil {
		t.Fatal("rebuild with a concurrent failure in the group should error")
	}
}
