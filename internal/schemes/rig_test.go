package schemes

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"ftmm/internal/disk"
	"ftmm/internal/diskmodel"
	"ftmm/internal/layout"
	"ftmm/internal/rebuild"
	"ftmm/internal/sched"
	"ftmm/internal/units"
	"ftmm/internal/workload"
)

// rig is a small farm with placed, materialized objects for engine tests.
type rig struct {
	farm *disk.Farm
	lay  *layout.Layout
	// content is each object's reference bytes: a clone of what was
	// written, since the drives keep the written slices themselves and a
	// reference sharing them would compare every delivery with itself.
	content map[string][]byte
}

// newRig builds d drives in clusters of c with enough tracks, placing
// nObjects objects of groupsEach parity groups at staggered start
// clusters.
func newRig(t *testing.T, d, c, nObjects, groupsEach int, placement layout.Placement) *rig {
	t.Helper()
	p := diskmodel.Table1()
	// Size drives generously for the objects we place.
	tracksNeeded := (nObjects*groupsEach*c)/d + 10
	p.Capacity = units.ByteSize(tracksNeeded+groupsEach*c) * p.TrackSize
	farm, err := disk.NewFarm(d, c, p)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := layout.ForFarm(farm, placement)
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

func (r *rig) object(t *testing.T, i int) *layout.Object {
	t.Helper()
	obj, ok := r.lay.Object(fmt.Sprintf("obj%d", i))
	if !ok {
		t.Fatalf("obj%d not placed", i)
	}
	return obj
}

func (r *rig) config() Config {
	return Config{Farm: r.farm, Layout: r.lay, Rate: units.MPEG1}
}

// stepN runs exactly n cycles, collecting deliveries and hiccups.
func stepN(t *testing.T, e Simulator, n int) (map[int][]sched.Delivery, []sched.Hiccup, []*sched.CycleReport) {
	t.Helper()
	deliveries := map[int][]sched.Delivery{}
	var hiccups []sched.Hiccup
	var reports []*sched.CycleReport
	for i := 0; i < n; i++ {
		rep, err := e.Step()
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		// Reports (and their delivered bytes) are valid only until the
		// next Step; clone to retain.
		rep = rep.Clone()
		reports = append(reports, rep)
		for _, d := range rep.Delivered {
			deliveries[d.StreamID] = append(deliveries[d.StreamID], d)
		}
		hiccups = append(hiccups, rep.Hiccups...)
	}
	return deliveries, hiccups, reports
}

// merge folds b's per-stream deliveries into a.
func merge(a, b map[int][]sched.Delivery) map[int][]sched.Delivery {
	for id, ds := range b {
		a[id] = append(a[id], ds...)
	}
	return a
}

// runToCompletion steps the engine until no stream is active (or the
// cycle bound is hit), collecting deliveries and hiccups.
func runToCompletion(t *testing.T, e Simulator, maxCycles int) (map[int][]sched.Delivery, []sched.Hiccup, []*sched.CycleReport) {
	t.Helper()
	deliveries := map[int][]sched.Delivery{}
	var hiccups []sched.Hiccup
	var reports []*sched.CycleReport
	for i := 0; i < maxCycles; i++ {
		rep, err := e.Step()
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		rep = rep.Clone()
		reports = append(reports, rep)
		for _, d := range rep.Delivered {
			deliveries[d.StreamID] = append(deliveries[d.StreamID], d)
		}
		hiccups = append(hiccups, rep.Hiccups...)
		if e.Active() == 0 {
			return deliveries, hiccups, reports
		}
	}
	t.Fatalf("%s: streams still active after %d cycles", e.Name(), maxCycles)
	return nil, nil, nil
}

// verifyStream checks a stream's deliveries reconstruct the object's
// content exactly, with lost tracks excused.
func verifyStream(t *testing.T, r *rig, obj *layout.Object, deliveries []sched.Delivery, lost map[int]bool) {
	t.Helper()
	got := map[int][]byte{}
	for _, d := range deliveries {
		if d.ObjectID != obj.ID {
			t.Fatalf("stream delivered wrong object %q", d.ObjectID)
		}
		if _, dup := got[d.Track]; dup {
			t.Fatalf("track %d delivered twice", d.Track)
		}
		got[d.Track] = d.Data
	}
	for i := 0; i < obj.Tracks; i++ {
		data, ok := got[i]
		if !ok {
			if lost[i] {
				continue
			}
			t.Fatalf("object %s track %d never delivered", obj.ID, i)
		}
		if lost != nil && lost[i] {
			t.Fatalf("object %s track %d delivered but expected lost", obj.ID, i)
		}
		if err := r.checkTrack(obj.ID, i, data); err != nil {
			t.Fatal(err)
		}
	}
}

// checkTrack is the rig's delivery check: it compares a delivered track
// with the object's reference bytes and names the first byte that
// differs.
func (r *rig) checkTrack(id string, track int, data []byte) error {
	trackSize := int(r.farm.Params().TrackSize)
	want := r.content[id][track*trackSize : (track+1)*trackSize]
	if bytes.Equal(data, want) {
		return nil
	}
	at := 0
	for at < len(data) && at < len(want) && data[at] == want[at] {
		at++
	}
	return fmt.Errorf("object %s track %d differs from its reference at byte %d", id, track, at)
}

// repairDrive is an instant repair the way the server does one: replace
// the drive, run the online rebuilder with an unbounded budget, mark the
// drive restored, tell the engine (NC must release its buffer server).
func repairDrive(e Simulator, r *rig, id int) error {
	drv, err := r.farm.Drive(id)
	if err != nil {
		return err
	}
	if err := drv.Replace(); err != nil {
		return err
	}
	rb, err := rebuild.New(r.farm, r.lay, id)
	if err != nil {
		return err
	}
	if _, err := rb.Step(math.MaxInt); err != nil {
		return err
	}
	if err := drv.Restored(); err != nil {
		return err
	}
	if n, ok := e.(interface{ OnDriveRebuilt(int) error }); ok {
		return n.OnDriveRebuilt(id)
	}
	return nil
}

// The rig's references are independent of the platters: a byte written
// into a drive's stored track, against WriteTrack's contract, reaches the
// delivery and the rig's check reports it. Were the reference the slice
// the drive keeps, the byte would land in both and the check would pass.
func TestRigCheckCatchesPlatterWrite(t *testing.T) {
	r := newRig(t, 10, 5, 1, 2, layout.DedicatedParity)
	obj := r.object(t, 0)
	loc, err := obj.DataLocation(0)
	if err != nil {
		t.Fatal(err)
	}
	drv, err := r.farm.Drive(loc.Disk)
	if err != nil {
		t.Fatal(err)
	}
	view, err := drv.View(loc.Track)
	if err != nil {
		t.Fatal(err)
	}
	const at = 1234
	view[at] ^= 0xFF
	e, err := NewStreamingRAID(r.config())
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.AddStreamAt(obj, 0)
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 4; cycle++ {
		deliveries, _, _ := stepN(t, e, 1)
		for _, d := range deliveries[id] {
			if d.Track != 0 {
				continue
			}
			err := r.checkTrack(obj.ID, 0, d.Data)
			if err == nil {
				t.Fatal("the rig's check passed a track written into on the platter")
			}
			if want := fmt.Sprintf("at byte %d", at); !strings.Contains(err.Error(), want) {
				t.Fatalf("check reported %q, want it %s", err, want)
			}
			return
		}
	}
	t.Fatal("track 0 never delivered")
}
