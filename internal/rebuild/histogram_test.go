package rebuild

import (
	"fmt"
	"testing"

	"ftmm/internal/disk"
	"ftmm/internal/diskmodel"
	"ftmm/internal/layout"
	"ftmm/internal/units"
	"ftmm/internal/workload"
)

// buildFarm places nObjects objects of groupsEach parity groups on a
// fresh farm with the given layout constructor.
func buildFarm(t *testing.T, d, clusterSize int, mkLayout func(*disk.Farm) (*layout.Layout, error),
	nObjects, groupsEach int) (*disk.Farm, *layout.Layout) {
	t.Helper()
	p := diskmodel.Table1()
	p.Capacity = units.ByteSize(nObjects*groupsEach*8) * p.TrackSize
	farm, err := disk.NewFarm(d, clusterSize, p)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := mkLayout(farm)
	if err != nil {
		t.Fatal(err)
	}
	trackSize := int(p.TrackSize)
	for i := 0; i < nObjects; i++ {
		id := fmt.Sprintf("obj%d", i)
		tracks := groupsEach * lay.GroupWidth()
		obj, err := lay.AddObject(id, tracks, i%lay.Clusters(), units.MPEG1)
		if err != nil {
			t.Fatal(err)
		}
		if err := layout.WriteObject(farm, obj, workload.SyntheticContent(id, tracks*trackSize)); err != nil {
			t.Fatal(err)
		}
	}
	return farm, lay
}

// rebuildHistogram fails, replaces and fully rebuilds the drive,
// returning the per-drive read histogram.
func rebuildHistogram(t *testing.T, farm *disk.Farm, lay *layout.Layout, drive int) []int {
	t.Helper()
	failAndReplace(t, farm, drive)
	r, err := New(farm, lay, drive)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(64, 10_000); err != nil {
		t.Fatal(err)
	}
	if err := CheckDrive(farm, lay, drive); err != nil {
		t.Fatalf("parity inconsistent after rebuild: %v", err)
	}
	return r.ReadsByDrive()
}

// Satellite: the clustered placements concentrate the whole rebuild on
// exactly C-1 drives, while declustered parity spreads it uniformly
// (within 10%) over every survivor of the declustering group.
//
// SR, SG and NC all share the DedicatedParity placement, so one
// histogram covers all three: rebuilding a drive reads only its C-1
// cluster mates, each equally. IB's rotation spreads sources over the
// failed drive's cluster and its two parity neighbours — still a
// cluster-confined hotspot, asserted separately below.
func TestRebuildLoadConcentratedVsUniform(t *testing.T) {
	t.Run("dedicated-parity-exactly-C-1", func(t *testing.T) {
		// 20 drives, C=5: SR/SG/NC placement.
		farm, lay := buildFarm(t, 20, 5,
			func(f *disk.Farm) (*layout.Layout, error) { return layout.ForFarm(f, layout.DedicatedParity) },
			4, 10)
		hist := rebuildHistogram(t, farm, lay, 0)
		var loaded []int
		for d, n := range hist {
			if n > 0 {
				loaded = append(loaded, d)
			}
		}
		if len(loaded) != lay.ClusterSize()-1 {
			t.Fatalf("rebuild load on %d drives %v, want exactly C-1 = %d", len(loaded), loaded, lay.ClusterSize()-1)
		}
		for _, d := range loaded {
			if d/lay.ClusterSize() != 0 {
				t.Errorf("drive %d outside the failed drive's cluster carried rebuild load", d)
			}
			if hist[d] != hist[loaded[0]] {
				t.Errorf("unequal load within the cluster: %v", hist)
			}
		}
	})

	t.Run("intermixed-parity-cluster-confined", func(t *testing.T) {
		// 20 drives, C=5, 4 clusters: IB placement. Rotation pulls in the
		// two neighbouring clusters (data mates + parity homes), but the
		// far cluster must stay idle.
		farm, lay := buildFarm(t, 20, 5,
			func(f *disk.Farm) (*layout.Layout, error) { return layout.ForFarm(f, layout.IntermixedParity) },
			4, 12)
		hist := rebuildHistogram(t, farm, lay, 0)
		c := lay.ClusterSize()
		for d, n := range hist {
			if n > 0 && d/c == 2 {
				t.Errorf("drive %d in a non-adjacent cluster served %d rebuild reads", d, n)
			}
		}
	})

	t.Run("declustered-uniform-within-10pct", func(t *testing.T) {
		// One declustering group of G=9, C=3 on the (9,3) Steiner design;
		// 24 groups per object cycle the 12 blocks evenly, so every
		// survivor pair shares the failed drive's load λ-equally.
		farm, lay := buildFarm(t, 9, 9,
			func(f *disk.Farm) (*layout.Layout, error) {
				return layout.NewDeclustered(f.Size(), f.ClusterSize(), 3, f.Params().TracksPerDisk())
			},
			2, 24)
		hist := rebuildHistogram(t, farm, lay, 0)
		if hist[0] != 0 {
			t.Errorf("rebuilt drive served %d of its own rebuild reads", hist[0])
		}
		total, nonzero := 0, 0
		for d := 1; d < len(hist); d++ {
			if hist[d] == 0 {
				t.Fatalf("survivor %d served no rebuild reads; histogram %v", d, hist)
			}
			total += hist[d]
			nonzero++
		}
		mean := float64(total) / float64(nonzero)
		for d := 1; d < len(hist); d++ {
			if dev := float64(hist[d]) - mean; dev > 0.1*mean || dev < -0.1*mean {
				t.Errorf("survivor %d load %d deviates >10%% from mean %.1f; histogram %v", d, hist[d], mean, hist)
			}
		}
	})
}

// Acceptance: under a per-drive spare-read budget, the declustered
// rebuild window is at most half Streaming RAID's at equal farm size —
// the analytic (C-1)/(G-1) factor made operational. Both farms hold 18
// drives and the same object set; only the placement differs.
func TestDeclusteredRebuildWindowHalvesSR(t *testing.T) {
	const budget = 2
	window := func(mk func(*disk.Farm) (*layout.Layout, error), clusterSize int) int {
		farm, lay := buildFarm(t, 18, clusterSize, mk, 6, 12)
		failAndReplace(t, farm, 0)
		r, err := New(farm, lay, 0)
		if err != nil {
			t.Fatal(err)
		}
		cycles, err := r.RunPerDrive(budget, 10_000)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckAll(farm, lay); err != nil {
			t.Fatalf("parity inconsistent after rebuild: %v", err)
		}
		return cycles
	}
	sr := window(func(f *disk.Farm) (*layout.Layout, error) { return layout.ForFarm(f, layout.DedicatedParity) }, 3)
	dc := window(func(f *disk.Farm) (*layout.Layout, error) {
		return layout.NewDeclustered(f.Size(), f.ClusterSize(), 3, f.Params().TracksPerDisk())
	}, 9)
	if sr == 0 || dc == 0 {
		t.Fatalf("degenerate windows: sr=%d dc=%d", sr, dc)
	}
	if 2*dc > sr {
		t.Errorf("declustered window %d cycles > 0.5 x SR window %d cycles", dc, sr)
	}
}

// The per-drive histogram also covers the aggregate-budget path used by
// the four existing schemes: Reads() must equal the histogram total.
func TestReadsByDriveMatchesAggregate(t *testing.T) {
	farm, lay, _ := testRig(t)
	failAndReplace(t, farm, 0)
	r, err := New(farm, lay, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(8, 1000); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range r.ReadsByDrive() {
		total += n
	}
	if total != r.Reads() {
		t.Errorf("histogram total %d != aggregate reads %d", total, r.Reads())
	}
	if r.Reads() != r.Restored()*r.ReadsPerTrack() {
		t.Errorf("reads %d != restored %d x C-1 %d", r.Reads(), r.Restored(), r.ReadsPerTrack())
	}
}
