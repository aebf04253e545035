package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ftmm/internal/disk"
	"ftmm/internal/diskmodel"
	"ftmm/internal/layout"
	"ftmm/internal/tertiary"
	"ftmm/internal/units"
)

// testRig: 10 drives x 20 tracks in clusters of 5 => 200 tracks total;
// each 16-track object consumes 4 groups x 5 tracks = 20 tracks.
func testRig(t *testing.T, objects int) (*tertiary.Library, *disk.Farm, *Catalog) {
	t.Helper()
	p := diskmodel.Table1()
	p.Capacity = 20 * p.TrackSize
	lib, err := tertiary.NewLibrary(tertiary.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	trackSize := int(p.TrackSize)
	for i := 0; i < objects; i++ {
		content := bytes.Repeat([]byte{byte(i + 1)}, 16*trackSize)
		if err := lib.Store(fmt.Sprintf("obj%d", i), i/3, content); err != nil {
			t.Fatal(err)
		}
	}
	farm, err := disk.NewFarm(10, 5, p)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := layout.ForFarm(farm, layout.DedicatedParity)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := New(lib, farm, lay)
	if err != nil {
		t.Fatal(err)
	}
	return lib, farm, cat
}

func TestEnsureStagesAndCaches(t *testing.T) {
	_, farm, cat := testRig(t, 3)
	obj, cost, err := cat.Ensure("obj0", units.MPEG1)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("first staging should cost tertiary time")
	}
	if !cat.Resident("obj0") {
		t.Fatal("not resident after Ensure")
	}
	// Content actually landed on disk.
	blk, err := layout.ReadDataTrack(farm, obj, 0)
	if err != nil {
		t.Fatal(err)
	}
	if blk[0] != 1 {
		t.Fatalf("staged content wrong: %x", blk[0])
	}
	// Second Ensure is free.
	obj2, cost2, err := cat.Ensure("obj0", units.MPEG1)
	if err != nil {
		t.Fatal(err)
	}
	if cost2 != 0 || obj2 != obj {
		t.Fatalf("re-ensure: cost=%v same=%v", cost2, obj2 == obj)
	}
	if s, e := cat.Stats(); s != 1 || e != 0 {
		t.Fatalf("stats = (%d,%d)", s, e)
	}
}

func TestEnsureMissingObject(t *testing.T) {
	_, _, cat := testRig(t, 1)
	if _, _, err := cat.Ensure("ghost", units.MPEG1); !errors.Is(err, tertiary.ErrNotFound) {
		t.Fatalf("missing object: %v", err)
	}
}

func TestLRUEviction(t *testing.T) {
	_, _, cat := testRig(t, 12)
	// Capacity is 200 tracks; each object takes 20. Stage 10 to fill.
	for i := 0; i < 10; i++ {
		if _, _, err := cat.Ensure(fmt.Sprintf("obj%d", i), units.MPEG1); err != nil {
			t.Fatalf("obj%d: %v", i, err)
		}
	}
	if cat.ResidentIDs() != 10 {
		t.Fatalf("resident = %d, want 10", cat.ResidentIDs())
	}
	// Touch obj0 so obj1 is the LRU.
	if _, _, err := cat.Ensure("obj0", units.MPEG1); err != nil {
		t.Fatal(err)
	}
	// Staging obj10 must evict obj1 (the LRU), not obj0.
	if _, _, err := cat.Ensure("obj10", units.MPEG1); err != nil {
		t.Fatal(err)
	}
	if !cat.Resident("obj0") {
		t.Fatal("recently used obj0 evicted")
	}
	if cat.Resident("obj1") {
		t.Fatal("LRU obj1 not evicted")
	}
	if _, e := cat.Stats(); e != 1 {
		t.Fatalf("evictions = %d, want 1", e)
	}
}

func TestPinPreventsEviction(t *testing.T) {
	_, _, cat := testRig(t, 12)
	for i := 0; i < 10; i++ {
		if _, _, err := cat.Ensure(fmt.Sprintf("obj%d", i), units.MPEG1); err != nil {
			t.Fatal(err)
		}
		if err := cat.Pin(fmt.Sprintf("obj%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Everything pinned: staging must fail with ErrNoSpace.
	if _, _, err := cat.Ensure("obj10", units.MPEG1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	// Unpin one; now it works and evicts exactly that object.
	if err := cat.Unpin("obj3"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cat.Ensure("obj10", units.MPEG1); err != nil {
		t.Fatal(err)
	}
	if cat.Resident("obj3") {
		t.Fatal("unpinned obj3 should have been the victim")
	}
}

func TestPinUnpinErrors(t *testing.T) {
	_, _, cat := testRig(t, 2)
	if err := cat.Pin("obj0"); !errors.Is(err, ErrNotResident) {
		t.Errorf("pin non-resident: %v", err)
	}
	if _, _, err := cat.Ensure("obj0", units.MPEG1); err != nil {
		t.Fatal(err)
	}
	if err := cat.Unpin("obj0"); err == nil {
		t.Error("unpin with zero pins accepted")
	}
	if err := cat.Pin("obj0"); err != nil {
		t.Fatal(err)
	}
	if n, _ := cat.Pins("obj0"); n != 1 {
		t.Fatalf("pins = %d", n)
	}
	if _, err := cat.Pins("ghost"); !errors.Is(err, ErrNotResident) {
		t.Errorf("pins of non-resident: %v", err)
	}
	if err := cat.Unpin("ghost"); !errors.Is(err, ErrNotResident) {
		t.Errorf("unpin non-resident: %v", err)
	}
}

func TestExplicitEvict(t *testing.T) {
	_, _, cat := testRig(t, 2)
	if _, _, err := cat.Ensure("obj0", units.MPEG1); err != nil {
		t.Fatal(err)
	}
	if err := cat.Pin("obj0"); err != nil {
		t.Fatal(err)
	}
	if err := cat.Evict("obj0"); err == nil {
		t.Error("evicting pinned object accepted")
	}
	if err := cat.Unpin("obj0"); err != nil {
		t.Fatal(err)
	}
	if err := cat.Evict("obj0"); err != nil {
		t.Fatal(err)
	}
	if cat.Resident("obj0") {
		t.Fatal("still resident after evict")
	}
	if err := cat.Evict("obj0"); !errors.Is(err, ErrNotResident) {
		t.Errorf("double evict: %v", err)
	}
}

func TestObjectAccessor(t *testing.T) {
	_, _, cat := testRig(t, 1)
	if _, err := cat.Object("obj0"); !errors.Is(err, ErrNotResident) {
		t.Errorf("Object on non-resident: %v", err)
	}
	want, _, err := cat.Ensure("obj0", units.MPEG1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cat.Object("obj0")
	if err != nil || got != want {
		t.Fatalf("Object = %v,%v", got, err)
	}
}

func TestStartClustersRotate(t *testing.T) {
	_, _, cat := testRig(t, 4)
	var clusters []int
	for i := 0; i < 4; i++ {
		obj, _, err := cat.Ensure(fmt.Sprintf("obj%d", i), units.MPEG1)
		if err != nil {
			t.Fatal(err)
		}
		clusters = append(clusters, obj.StartCluster)
	}
	// 2 clusters in the rig: starts must alternate 0,1,0,1.
	for i, c := range clusters {
		if c != i%2 {
			t.Fatalf("start clusters = %v, want alternating", clusters)
		}
	}
}

func TestNewValidation(t *testing.T) {
	lib, farm, cat := testRig(t, 0)
	lay := cat.Layout()
	if _, err := New(nil, farm, lay); err == nil {
		t.Error("nil library accepted")
	}
	if _, err := New(lib, nil, lay); err == nil {
		t.Error("nil farm accepted")
	}
	if _, err := New(lib, farm, nil); err == nil {
		t.Error("nil layout accepted")
	}
}
