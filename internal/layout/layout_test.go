package layout

import (
	"bytes"
	"math/rand"
	"testing"

	"ftmm/internal/disk"
	"ftmm/internal/diskmodel"
	"ftmm/internal/units"
)

func smallParams(tracks int) diskmodel.Params {
	p := diskmodel.Table1()
	p.Capacity = units.ByteSize(tracks) * p.TrackSize
	return p
}

func newTestFarm(t *testing.T, d, c, tracks int) *disk.Farm {
	t.Helper()
	f, err := disk.NewFarm(d, c, smallParams(tracks))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidation(t *testing.T) {
	if _, err := New(10, 5, 100, DedicatedParity); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
	cases := []struct {
		d, c, tracks int
		p            Placement
	}{
		{11, 5, 100, DedicatedParity}, // ragged clusters
		{10, 1, 100, DedicatedParity}, // C too small
		{3, 5, 100, DedicatedParity},  // fewer than one cluster
		{10, 5, 0, DedicatedParity},   // no tracks
		{5, 5, 100, IntermixedParity}, // IB needs 2+ clusters
	}
	for i, c := range cases {
		if _, err := New(c.d, c.c, c.tracks, c.p); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDedicatedPlacementShape(t *testing.T) {
	l, err := New(10, 5, 100, DedicatedParity)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := l.AddObject("X", 8, 0, units.MPEG1)
	if err != nil {
		t.Fatal(err)
	}
	if len(obj.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(obj.Groups))
	}
	// Group 0 on cluster 0: data on drives 0..3, parity on 4 (Figure 3).
	g0 := obj.Groups[0]
	if g0.Cluster != 0 {
		t.Errorf("group 0 cluster = %d", g0.Cluster)
	}
	for i, loc := range g0.Data {
		if loc.Disk != i {
			t.Errorf("group 0 data %d on drive %d, want %d", i, loc.Disk, i)
		}
	}
	if g0.Parity.Disk != 4 {
		t.Errorf("group 0 parity on drive %d, want 4", g0.Parity.Disk)
	}
	// Group 1 round-robins to cluster 1 (drives 5..9).
	g1 := obj.Groups[1]
	if g1.Cluster != 1 {
		t.Errorf("group 1 cluster = %d", g1.Cluster)
	}
	if g1.Data[0].Disk != 5 || g1.Parity.Disk != 9 {
		t.Errorf("group 1 drives: data0=%d parity=%d", g1.Data[0].Disk, g1.Parity.Disk)
	}
	if g0.ValidTracks != 4 || g1.ValidTracks != 4 {
		t.Errorf("valid tracks = %d,%d", g0.ValidTracks, g1.ValidTracks)
	}
}

func TestPartialFinalGroup(t *testing.T) {
	l, _ := New(10, 5, 100, DedicatedParity)
	obj, err := l.AddObject("X", 6, 0, units.MPEG1)
	if err != nil {
		t.Fatal(err)
	}
	if len(obj.Groups) != 2 {
		t.Fatalf("groups = %d", len(obj.Groups))
	}
	if obj.Groups[1].ValidTracks != 2 {
		t.Fatalf("final group valid = %d, want 2", obj.Groups[1].ValidTracks)
	}
	// Padding tracks are still allocated on disk.
	if len(obj.Groups[1].Data) != 4 {
		t.Fatalf("final group width = %d, want 4", len(obj.Groups[1].Data))
	}
}

func TestIntermixedPlacementShape(t *testing.T) {
	l, err := New(10, 5, 100, IntermixedParity)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := l.AddObject("X", 12, 0, units.MPEG1)
	if err != nil {
		t.Fatal(err)
	}
	// Group 0 on cluster 0 skips drive 0: data on 1..4, parity on the
	// next cluster (drive 5).
	g0 := obj.Groups[0]
	if g0.Data[0].Disk != 1 || g0.Data[3].Disk != 4 {
		t.Errorf("group 0 data drives = %v", g0.Data)
	}
	if g0.Parity.Disk != 5 {
		t.Errorf("group 0 parity drive = %d, want 5 (next cluster)", g0.Parity.Disk)
	}
	// Group 1 on cluster 1 skips its second drive (index 1 => drive 6),
	// parity back on cluster 0 drive 1.
	g1 := obj.Groups[1]
	if g1.Cluster != 1 {
		t.Errorf("group 1 cluster = %d", g1.Cluster)
	}
	for _, loc := range g1.Data {
		if loc.Disk == 6 {
			t.Errorf("group 1 should skip drive 6, data = %v", g1.Data)
		}
	}
	if g1.Parity.Disk != 0*5+1 {
		t.Errorf("group 1 parity drive = %d, want 1", g1.Parity.Disk)
	}
	// Every drive in the farm ends up holding data for some group of a
	// long enough object (10 groups cover both clusters' rotations).
	long, err := l.AddObject("long", 40, 0, units.MPEG1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, g := range long.Groups {
		for _, loc := range g.Data {
			seen[loc.Disk] = true
		}
	}
	if len(seen) != 10 {
		t.Errorf("data touches %d drives, want all 10", len(seen))
	}
}

func TestParityHomeCluster(t *testing.T) {
	ded, _ := New(10, 5, 100, DedicatedParity)
	if ded.ParityHomeCluster(1) != 1 {
		t.Error("dedicated parity home should be same cluster")
	}
	ib, _ := New(10, 5, 100, IntermixedParity)
	if ib.ParityHomeCluster(0) != 1 || ib.ParityHomeCluster(1) != 0 {
		t.Error("intermixed parity home should be next cluster (mod Nc)")
	}
}

func TestAddObjectErrors(t *testing.T) {
	l, _ := New(10, 5, 10, DedicatedParity)
	if _, err := l.AddObject("X", 0, 0, units.MPEG1); err == nil {
		t.Error("zero-track object accepted")
	}
	if _, err := l.AddObject("X", 4, 5, units.MPEG1); err == nil {
		t.Error("bad start cluster accepted")
	}
	if _, err := l.AddObject("X", 4, 0, units.MPEG1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AddObject("X", 4, 0, units.MPEG1); err == nil {
		t.Error("duplicate ID accepted")
	}
}

func TestCapacityExhaustionAndRollback(t *testing.T) {
	// 10 drives x 10 tracks = 100 tracks total; each 4-data-track group
	// consumes 5.
	l, _ := New(10, 5, 10, DedicatedParity)
	if _, err := l.AddObject("big", 72, 0, units.MPEG1); err != nil {
		t.Fatalf("18 groups should fit: %v", err)
	}
	free := l.FreeTracks()
	if free != 10 {
		t.Fatalf("free = %d, want 10", free)
	}
	// 3 more groups (15 tracks) cannot fit; allocation must roll back.
	if _, err := l.AddObject("over", 12, 0, units.MPEG1); err == nil {
		t.Fatal("overflow accepted")
	}
	if l.FreeTracks() != free {
		t.Fatalf("failed AddObject leaked tracks: free = %d, want %d", l.FreeTracks(), free)
	}
	if _, ok := l.Object("over"); ok {
		t.Fatal("failed object registered")
	}
}

func TestRemoveObjectReusesTracks(t *testing.T) {
	l, _ := New(10, 5, 10, DedicatedParity)
	if _, err := l.AddObject("a", 40, 0, units.MPEG1); err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveObject("a"); err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveObject("a"); err == nil {
		t.Error("double remove accepted")
	}
	if l.FreeTracks() != 100 {
		t.Fatalf("free after remove = %d, want 100", l.FreeTracks())
	}
	if _, err := l.AddObject("b", 72, 0, units.MPEG1); err != nil {
		t.Fatalf("reuse failed: %v", err)
	}
	if l.Objects() != 1 {
		t.Fatalf("objects = %d", l.Objects())
	}
}

func TestDataLocationAndGroupOf(t *testing.T) {
	l, _ := New(10, 5, 100, DedicatedParity)
	obj, _ := l.AddObject("X", 10, 1, units.MPEG1)
	// Track 0 is group 0 (cluster 1), offset 0.
	g, off, err := obj.GroupOf(0)
	if err != nil || g.Index != 0 || off != 0 || g.Cluster != 1 {
		t.Fatalf("GroupOf(0) = %v,%d,%v", g, off, err)
	}
	// Track 5 is group 1 (cluster 0, wrapped), offset 1.
	g, off, err = obj.GroupOf(5)
	if err != nil || g.Index != 1 || off != 1 || g.Cluster != 0 {
		t.Fatalf("GroupOf(5) = %+v,%d,%v", g, off, err)
	}
	if _, _, err := obj.GroupOf(10); err == nil {
		t.Error("out-of-range GroupOf accepted")
	}
	loc, err := obj.DataLocation(5)
	if err != nil || loc != g.Data[1] {
		t.Fatalf("DataLocation(5) = %v,%v", loc, err)
	}
	if _, err := obj.DataLocation(-1); err == nil {
		t.Error("negative DataLocation accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, placement := range []Placement{DedicatedParity, IntermixedParity} {
		f := newTestFarm(t, 10, 5, 50)
		l, err := ForFarm(f, placement)
		if err != nil {
			t.Fatal(err)
		}
		trackSize := int(f.Params().TrackSize)
		content := make([]byte, 9*trackSize+123) // 10 tracks, last partial
		rand.New(rand.NewSource(42)).Read(content)
		obj, err := l.AddObject("movie", 10, 0, units.MPEG1)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteObject(f, obj, content); err != nil {
			t.Fatal(err)
		}
		var got []byte
		for i := 0; i < obj.Tracks; i++ {
			blk, err := ReadDataTrack(f, obj, i)
			if err != nil {
				t.Fatalf("%v: read track %d: %v", placement, i, err)
			}
			got = append(got, blk...)
		}
		if !bytes.Equal(got[:len(content)], content) {
			t.Fatalf("%v: round trip differs", placement)
		}
		for _, b := range got[len(content):] {
			if b != 0 {
				t.Fatalf("%v: padding not zeroed", placement)
			}
		}
	}
}

// The one writer behind WriteObject and WriteObjectTolerant: a strict
// write aborts on a failed drive, a tolerant one skips and counts its
// tracks, and a write filtered to one drive restores exactly that
// drive's tracks — data, zero padding and parity, bit for bit what the
// full write put there — and touches no other platter. content is never
// written into.
func TestWriteObjectTolerantAndFiltered(t *testing.T) {
	for _, placement := range []Placement{DedicatedParity, IntermixedParity} {
		f := newTestFarm(t, 10, 5, 50)
		l, err := ForFarm(f, placement)
		if err != nil {
			t.Fatal(err)
		}
		trackSize := int(f.Params().TrackSize)
		content := make([]byte, 9*trackSize+123) // 3 groups: partial tail track, then 2 of padding
		rand.New(rand.NewSource(7)).Read(content)
		pristine := bytes.Clone(content)
		obj, err := l.AddObject("movie", 10, 0, units.MPEG1)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteObject(f, obj, content); err != nil {
			t.Fatal(err)
		}
		// What the full write stored, per location.
		var locs []Location
		for _, g := range obj.Groups {
			locs = append(append(locs, g.Data...), g.Parity)
		}
		stored := map[Location][]byte{}
		on := map[int]int{}
		for _, loc := range locs {
			drv, _ := f.Drive(loc.Disk)
			if stored[loc], err = drv.ReadTrack(loc.Track); err != nil {
				t.Fatal(err)
			}
			on[loc.Disk]++
		}
		writes := func() []int64 {
			out := make([]int64, f.Size())
			for i := range out {
				drv, _ := f.Drive(i)
				_, out[i] = drv.Counters()
			}
			return out
		}

		down := []int{1, 4}
		for _, id := range down {
			drv, _ := f.Drive(id)
			if err := drv.Fail(); err != nil {
				t.Fatal(err)
			}
		}
		if err := WriteObject(f, obj, content); err == nil {
			t.Fatalf("%v: strict write onto failed drives succeeded", placement)
		}
		skipped, err := WriteObjectTolerant(f, obj, content, AllDrives)
		if err != nil || skipped != on[1]+on[4] {
			t.Fatalf("%v: tolerant write skipped %d (%v), want %d", placement, skipped, err, on[1]+on[4])
		}
		for _, id := range down {
			drv, _ := f.Drive(id)
			if err := drv.Replace(); err != nil {
				t.Fatal(err)
			}
			before := writes()
			if skipped, err := WriteObjectTolerant(f, obj, content, id); err != nil || skipped != 0 {
				t.Fatalf("%v: write filtered to drive %d skipped %d: %v", placement, id, skipped, err)
			}
			for i, w := range writes() {
				if want := before[i] + int64(on[id]); (i == id && w != want) || (i != id && w != before[i]) {
					t.Fatalf("%v: write filtered to drive %d moved drive %d's writes %d -> %d", placement, id, i, before[i], w)
				}
			}
		}
		for _, loc := range locs {
			drv, _ := f.Drive(loc.Disk)
			got, err := drv.ReadTrack(loc.Track)
			if err != nil || !bytes.Equal(got, stored[loc]) {
				t.Fatalf("%v: drive %d track %d differs from the full write (%v)", placement, loc.Disk, loc.Track, err)
			}
		}
		if !bytes.Equal(content, pristine) {
			t.Fatalf("%v: the writer wrote into content", placement)
		}
	}
}

func TestWriteObjectTooLong(t *testing.T) {
	f := newTestFarm(t, 10, 5, 50)
	l, _ := ForFarm(f, DedicatedParity)
	obj, _ := l.AddObject("movie", 4, 0, units.MPEG1)
	tooLong := make([]byte, 5*int(f.Params().TrackSize))
	if err := WriteObject(f, obj, tooLong); err == nil {
		t.Fatal("oversized content accepted")
	}
}

// The core fault-tolerance property, for both placements: fail any single
// drive, and every track of every object is still reconstructible
// bit-for-bit from the survivors.
func TestReconstructUnderAnySingleFailure(t *testing.T) {
	for _, placement := range []Placement{DedicatedParity, IntermixedParity} {
		f := newTestFarm(t, 10, 5, 60)
		l, _ := ForFarm(f, placement)
		trackSize := int(f.Params().TrackSize)
		rng := rand.New(rand.NewSource(7))

		contents := map[string][]byte{}
		for _, id := range []string{"X", "Y", "Z"} {
			content := make([]byte, 12*trackSize)
			rng.Read(content)
			contents[id] = content
			obj, err := l.AddObject(id, 12, rng.Intn(l.Clusters()), units.MPEG1)
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteObject(f, obj, content); err != nil {
				t.Fatal(err)
			}
		}

		for failed := 0; failed < f.Size(); failed++ {
			drv, _ := f.Drive(failed)
			if err := drv.Fail(); err != nil {
				t.Fatal(err)
			}
			for id, content := range contents {
				obj, _ := l.Object(id)
				for i := 0; i < obj.Tracks; i++ {
					loc, _ := obj.DataLocation(i)
					var blk []byte
					var err error
					if loc.Disk == failed {
						blk, err = ReconstructDataTrack(f, obj, i)
					} else {
						blk, err = ReadDataTrack(f, obj, i)
					}
					if err != nil {
						t.Fatalf("%v: drive %d failed, object %s track %d: %v", placement, failed, id, i, err)
					}
					want := content[i*trackSize : (i+1)*trackSize]
					if !bytes.Equal(blk, want) {
						t.Fatalf("%v: drive %d failed, object %s track %d content differs", placement, failed, id, i)
					}
				}
			}
			if err := drv.Replace(); err != nil {
				t.Fatal(err)
			}
			// Rewrite everything the blank replacement lost.
			for id, content := range contents {
				obj, _ := l.Object(id)
				if err := WriteObject(f, obj, content); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// With two failures in one parity group, reconstruction must fail
// (catastrophic failure), not return wrong data.
func TestReconstructDoubleFailureFails(t *testing.T) {
	f := newTestFarm(t, 10, 5, 60)
	l, _ := ForFarm(f, DedicatedParity)
	content := make([]byte, 8*int(f.Params().TrackSize))
	obj, _ := l.AddObject("X", 8, 0, units.MPEG1)
	if err := WriteObject(f, obj, content); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 1} { // two data drives of cluster 0
		drv, _ := f.Drive(id)
		if err := drv.Fail(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ReconstructDataTrack(f, obj, 0); err == nil {
		t.Fatal("double failure reconstruction succeeded")
	}
}

func TestPlacementString(t *testing.T) {
	if DedicatedParity.String() != "dedicated-parity" || IntermixedParity.String() != "intermixed-parity" {
		t.Error("placement names")
	}
	if Placement(9).String() != "Placement(9)" {
		t.Error("unknown placement name")
	}
}

// Intermixed placement must balance parity across the next cluster's
// drives rather than pile it on one.
func TestIntermixedParitySpread(t *testing.T) {
	l, _ := New(10, 5, 200, IntermixedParity)
	obj, err := l.AddObject("X", 4*20, 0, units.MPEG1) // 20 groups
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, g := range obj.Groups {
		counts[g.Parity.Disk]++
	}
	for d, n := range counts {
		if n > 3 {
			t.Errorf("drive %d holds %d parity tracks; expected spread", d, n)
		}
	}
	if len(counts) < 8 {
		t.Errorf("parity on only %d drives", len(counts))
	}
}
