package schemes

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ftmm/internal/disk"
	"ftmm/internal/diskmodel"
	"ftmm/internal/layout"
	"ftmm/internal/units"
	"ftmm/internal/workload"
)

// newDeclusteredRig builds d drives in declustering groups of g with
// parity groups of c, placing nObjects objects of groupsEach parity
// groups each.
func newDeclusteredRig(t *testing.T, d, g, c, nObjects, groupsEach int) *rig {
	t.Helper()
	p := diskmodel.Table1()
	tracksNeeded := (nObjects*groupsEach*c)/d + 10
	p.Capacity = units.ByteSize(tracksNeeded+groupsEach*c) * p.TrackSize
	farm, err := disk.NewFarm(d, g, p)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := layout.NewDeclustered(farm.Size(), farm.ClusterSize(), c, farm.Params().TracksPerDisk())
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{farm: farm, lay: lay, content: map[string][]byte{}}
	trackSize := int(p.TrackSize)
	for i := 0; i < nObjects; i++ {
		id := fmt.Sprintf("obj%d", i)
		tracks := groupsEach * (c - 1)
		content := workload.SyntheticContent(id, tracks*trackSize)
		obj, err := lay.AddObject(id, tracks, i%lay.Clusters(), units.MPEG1)
		if err != nil {
			t.Fatal(err)
		}
		if err := layout.WriteObject(farm, obj, content); err != nil {
			t.Fatal(err)
		}
		r.content[id] = bytes.Clone(content)
	}
	return r
}

func TestDeclusteredHappyPath(t *testing.T) {
	r := newDeclusteredRig(t, 9, 9, 3, 3, 6)
	e, err := NewDeclustered(r.config())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 3)
	objs := make([]*layout.Object, 3)
	for i := range ids {
		objs[i] = r.object(t, i)
		if ids[i], err = e.AddStreamAt(objs[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	deliveries, hiccups, _ := runToCompletion(t, e, 50)
	if len(hiccups) != 0 {
		t.Fatalf("healthy farm hiccuped: %v", hiccups)
	}
	for i, id := range ids {
		verifyStream(t, r, objs[i], deliveries[id], nil)
	}
	if got := e.BufferInUse(); got != 0 {
		t.Errorf("buffers leaked: %d tracks in use after drain", got)
	}
}

func TestDeclusteredRejectsClusteredLayout(t *testing.T) {
	r := newRig(t, 10, 5, 1, 4, layout.DedicatedParity)
	if _, err := NewDeclustered(r.config()); err == nil {
		t.Fatal("want placement error for dedicated-parity layout")
	}
}

// A single drive failure anywhere in the declustering group is masked
// with zero hiccups: every parity group losing a track recovers it from
// its block's parity, exactly as Streaming RAID does within a cluster.
func TestDeclusteredSingleFailureMasked(t *testing.T) {
	r := newDeclusteredRig(t, 9, 9, 3, 2, 8)
	e, err := NewDeclustered(r.config())
	if err != nil {
		t.Fatal(err)
	}
	obj := r.object(t, 0)
	id, err := e.AddStreamAt(obj, 0)
	if err != nil {
		t.Fatal(err)
	}
	deliveries, hiccups, _ := stepN(t, e, 3)
	if err := e.FailDisk(4); err != nil {
		t.Fatal(err)
	}
	d2, h2, _ := runToCompletion(t, e, 50)
	deliveries = merge(deliveries, d2)
	hiccups = append(hiccups, h2...)
	if len(hiccups) != 0 {
		t.Fatalf("single failure not masked: %v", hiccups)
	}
	verifyStream(t, r, obj, deliveries[id], nil)
}

// Satellite: a second failure in the SAME declustering group but a
// block the stream never reads keeps the stream alive with zero
// hiccups. Drives 3 and 7 co-occur only in block {2,3,7} of the (9,3)
// Steiner design — the 9th block — so an object of 4 parity groups
// (blocks 0..3) only ever sees each failure alone, masked by parity.
func TestDeclusteredSecondFailureDifferentBlockMasked(t *testing.T) {
	r := newDeclusteredRig(t, 9, 9, 3, 1, 4)
	e, err := NewDeclustered(r.config())
	if err != nil {
		t.Fatal(err)
	}
	obj := r.object(t, 0)
	id, err := e.AddStreamAt(obj, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.FailDisk(3); err != nil {
		t.Fatal(err)
	}
	if err := e.FailDisk(7); err != nil {
		t.Fatal(err)
	}
	deliveries, hiccups, _ := runToCompletion(t, e, 30)
	if len(hiccups) != 0 {
		t.Fatalf("different-block double failure not masked: %v", hiccups)
	}
	if e.Active() != 0 {
		t.Fatal("stream did not finish")
	}
	verifyStream(t, r, obj, deliveries[id], nil)
}

// Satellite: a double failure inside ONE block is catastrophic for the
// parity groups mapped to it — detected and reported as unrecoverable
// hiccups — while groups on other blocks keep delivering bit-exact.
// Drives 0 and 1 share block {0,1,2} (block 0 of the design), which is
// group 0 of the object; with parity rotated onto drive 0 there, the
// group loses parity and one data track at once.
func TestDeclusteredSameBlockDoubleFailureCatastrophic(t *testing.T) {
	r := newDeclusteredRig(t, 9, 9, 3, 1, 4)
	e, err := NewDeclustered(r.config())
	if err != nil {
		t.Fatal(err)
	}
	obj := r.object(t, 0)
	id, err := e.AddStreamAt(obj, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	if err := e.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	deliveries, hiccups, _ := runToCompletion(t, e, 30)
	if len(hiccups) == 0 {
		t.Fatal("same-block double failure must surface as hiccups")
	}
	lost := map[int]bool{}
	for _, h := range hiccups {
		if !strings.Contains(h.Reason, "unrecoverable") {
			t.Errorf("hiccup reason %q does not mark the loss catastrophic", h.Reason)
		}
		if h.Track/2 != 0 {
			t.Errorf("track %d lost, but only group 0 maps to the dead block", h.Track)
		}
		lost[h.Track] = true
	}
	if e.Active() != 0 {
		t.Fatal("stream must survive the catastrophic group and finish the rest")
	}
	verifyStream(t, r, obj, deliveries[id], lost)
}

// Admission caps streams per declustering group at the per-disk slot
// budget (the conservative worst case where every stream's block shares
// a drive).
func TestDeclusteredAdmissionCap(t *testing.T) {
	r := newDeclusteredRig(t, 9, 9, 3, 1, 4)
	cfg := r.config()
	cfg.SlotsPerDisk = 2
	e, err := NewDeclustered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obj := r.object(t, 0)
	for i := 0; i < 2; i++ {
		if _, err := e.AddStreamAt(obj, 0); err != nil {
			t.Fatalf("admission %d: %v", i, err)
		}
	}
	if _, err := e.AddStreamAt(obj, 0); err == nil {
		t.Fatal("third stream must be rejected at SlotsPerDisk=2")
	}
}
