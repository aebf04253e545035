package schemes

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"

	"ftmm/internal/disk"
	"ftmm/internal/diskmodel"
	"ftmm/internal/layout"
	"ftmm/internal/sched"
	"ftmm/internal/units"
	"ftmm/internal/workload"
)

// figureRig builds the Figures 5-7 scenario: one farm of two clusters
// (C=5), four objects all starting on cluster 0, slot budget 1 per disk
// per cycle (each disk serves one track per cycle, as drawn).
func figureRig(t *testing.T, groups int) *rig {
	t.Helper()
	p := diskmodel.Table1()
	p.Capacity = units.ByteSize(groups*5+10) * p.TrackSize
	farm, err := disk.NewFarm(10, 5, p)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := layout.ForFarm(farm, layout.DedicatedParity)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{farm: farm, lay: lay, content: map[string][]byte{}}
	trackSize := int(p.TrackSize)
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("obj%d", i)
		tracks := groups * 4
		content := workload.SyntheticContent(id, tracks*trackSize)
		obj, err := lay.AddObject(id, tracks, 0, units.MPEG1)
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

func newNC(t *testing.T, r *rig, policy TransitionPolicy, k, slots int) *NonClustered {
	t.Helper()
	cfg := r.config()
	cfg.SlotsPerDisk = slots
	e, err := NewNonClustered(cfg, policy, k)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNCConstructorValidation(t *testing.T) {
	r := newRig(t, 10, 5, 1, 4, layout.DedicatedParity)
	if _, err := NewNonClustered(r.config(), SimpleSwitchover, 2); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	ib := newRig(t, 10, 5, 1, 4, layout.IntermixedParity)
	if _, err := NewNonClustered(ib.config(), SimpleSwitchover, 2); err == nil {
		t.Error("intermixed layout accepted")
	}
	if _, err := NewNonClustered(r.config(), TransitionPolicy(9), 2); err == nil {
		t.Error("bad policy accepted")
	}
	if _, err := NewNonClustered(r.config(), SimpleSwitchover, -1); err == nil {
		t.Error("negative K accepted")
	}
	if SimpleSwitchover.String() != "simple" || AlternateSwitchover.String() != "alternate" {
		t.Error("policy names")
	}
	if TransitionPolicy(9).String() != "TransitionPolicy(9)" {
		t.Error("unknown policy name")
	}
}

func TestNCNormalModeDelivery(t *testing.T) {
	r := newRig(t, 10, 5, 3, 6, layout.DedicatedParity)
	e, err := NewNonClustered(r.config(), SimpleSwitchover, 2)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 3)
	for i := 0; i < 3; i++ {
		id, err := e.AddStreamAt(r.object(t, i), 0)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	deliveries, hiccups, reports := runToCompletion(t, e, 100)
	if len(hiccups) != 0 {
		t.Fatalf("hiccups in normal mode: %v", hiccups)
	}
	for i, id := range ids {
		verifyStream(t, r, r.object(t, i), deliveries[id], nil)
	}
	// 24 tracks per stream, one per cycle, one lead-in cycle.
	if e.Cycle() != 25 {
		t.Errorf("completed at cycle %d, want 25", e.Cycle())
	}
	// Each stream delivers exactly one track per cycle from cycle 1.
	for i := 1; i < len(reports)-1; i++ {
		if got := len(reports[i].Delivered); got != 3 {
			t.Errorf("cycle %d delivered %d, want 3", i, got)
		}
	}
}

func TestNCNormalModeTwoBuffersPerStream(t *testing.T) {
	r := newRig(t, 10, 5, 2, 6, layout.DedicatedParity)
	e, _ := NewNonClustered(r.config(), SimpleSwitchover, 2)
	for i := 0; i < 2; i++ {
		if _, err := e.AddStreamAt(r.object(t, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	runToCompletion(t, e, 100)
	// Within-cycle peak: 2 tracks per stream (one delivering, one being
	// read) => 4 total.
	if e.BufferPeak() != 4 {
		t.Errorf("peak = %d, want 4 (2 per stream)", e.BufferPeak())
	}
	if e.BufferInUse() != 0 {
		t.Errorf("buffers leaked: %d", e.BufferInUse())
	}
}

func TestNCParityDiskFailureHarmless(t *testing.T) {
	r := newRig(t, 10, 5, 2, 6, layout.DedicatedParity)
	e, _ := NewNonClustered(r.config(), SimpleSwitchover, 2)
	ids := make([]int, 2)
	for i := 0; i < 2; i++ {
		ids[i], _ = e.AddStreamAt(r.object(t, i), 0)
	}
	early, _, _ := stepN(t, e, 3)
	if err := e.FailDisk(4); err != nil { // cluster 0's parity drive
		t.Fatal(err)
	}
	deliveries, hiccups, _ := runToCompletion(t, e, 100)
	if len(hiccups) != 0 {
		t.Fatalf("parity-drive failure caused hiccups: %v", hiccups)
	}
	if e.ClusterDegraded(0) {
		t.Error("parity loss should not degrade the cluster")
	}
	all := merge(early, deliveries)
	for i, id := range ids {
		verifyStream(t, r, r.object(t, i), all[id], nil)
	}
}

// figureFailure reproduces the Figures 6/7 scenario: streams staggered at
// offsets 3,2,1,0 on cluster 0 when disk 2 fails. Returns per-object lost
// track sets and total hiccups, after running to completion.
func figureFailure(t *testing.T, policy TransitionPolicy) (map[string]map[int]bool, []sched.Hiccup, *rig, map[string]int, *NonClustered) {
	t.Helper()
	r := figureRig(t, 6)
	e := newNC(t, r, policy, 2, 1)
	// Admission order: U (cycle 0), W (1), Y (2), A (3).
	names := []string{"U", "W", "Y", "A"}
	ids := map[string]int{}
	collected := map[int][]sched.Delivery{}
	var allHiccups []sched.Hiccup
	for i, name := range names {
		id, err := e.AddStreamAt(r.object(t, i), 0)
		if err != nil {
			t.Fatalf("admitting %s: %v", name, err)
		}
		ids[name] = id
		if name == "A" {
			break // A is admitted just before the failure cycle
		}
		d, h, _ := stepN(t, e, 1)
		collected = merge(collected, d)
		allHiccups = append(allHiccups, h...)
	}
	if err := e.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	deliveries, hiccups, _ := runToCompletion(t, e, 200)
	collected = merge(collected, deliveries)
	allHiccups = append(allHiccups, hiccups...)

	lost := map[string]map[int]bool{}
	objOf := map[int]string{}
	for name, id := range ids {
		lost[name] = map[int]bool{}
		objOf[id] = name
	}
	for _, h := range allHiccups {
		lost[objOf[h.StreamID]][h.Track] = true
	}
	// Verify all delivered bytes, with losses excused.
	for i, name := range names {
		verifyStream(t, r, r.object(t, i), collected[ids[name]], lost[name])
	}
	return lost, allHiccups, r, ids, e
}

// Figure 6: the simple switchover loses 6 tracks — Y1,Y2,Y3 (stream one
// cycle into its group), W2,W3, and U3.
func TestNCFigure6SimpleSwitchover(t *testing.T) {
	lost, hiccups, _, _, e := figureFailure(t, SimpleSwitchover)
	if len(hiccups) != 6 {
		t.Fatalf("simple switchover lost %d tracks, want 6 (paper Fig 6): %v", len(hiccups), lost)
	}
	want := map[string][]int{"A": {}, "Y": {1, 2, 3}, "W": {2, 3}, "U": {3}}
	for name, tracks := range want {
		if len(lost[name]) != len(tracks) {
			t.Errorf("%s lost %v, want %v", name, keys(lost[name]), tracks)
			continue
		}
		for _, tr := range tracks {
			if !lost[name][tr] {
				t.Errorf("%s: track %d not lost; lost = %v", name, tr, keys(lost[name]))
			}
		}
	}
	if e.clusters[0].mode == ncUnprotected {
		t.Error("unexpected degradation")
	}
}

// Figure 7: the alternate switchover loses only 3 tracks — Y2 and W2 to
// the failure itself, Y3 to the slot conflict with A's delayed
// reconstruction reads, which its hiccup names.
func TestNCFigure7AlternateSwitchover(t *testing.T) {
	lost, hiccups, _, ids, _ := figureFailure(t, AlternateSwitchover)
	if len(hiccups) != 3 {
		t.Fatalf("alternate switchover lost %d tracks, want 3 (paper Fig 7): %v", len(hiccups), lost)
	}
	for _, h := range hiccups {
		want := lostTransition
		if h.StreamID == ids["Y"] && h.Track == 3 {
			want = LostNoSlot
		}
		if h.Reason != want {
			t.Errorf("stream %d track %d lost for %q, want %q", h.StreamID, h.Track, h.Reason, want)
		}
	}
	want := map[string][]int{"A": {}, "Y": {2, 3}, "W": {2}, "U": {}}
	for name, tracks := range want {
		if len(lost[name]) != len(tracks) {
			t.Errorf("%s lost %v, want %v", name, keys(lost[name]), tracks)
			continue
		}
		for _, tr := range tracks {
			if !lost[name][tr] {
				t.Errorf("%s: track %d not lost; lost = %v", name, tr, keys(lost[name]))
			}
		}
	}
}

func keys(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// ncSweepLost runs the Figures 6-7 rig (four streams staggered one
// cycle apart on cluster 0, one slot per disk per cycle) with the data
// drive failedDisk failing delay cycles after the figures' moment, then
// 3C cycles of switchover and degraded mode, then the drive's repair,
// then to completion. It fails the test if a Step errs (the window's
// refusal included), if a hiccup comes more than C cycles after the
// failure, if a delivered byte is wrong, or if a buffer is left held,
// and returns the tracks lost.
func ncSweepLost(t *testing.T, policy TransitionPolicy, failedDisk, delay int) int {
	t.Helper()
	const c = 5
	r := figureRig(t, 10)
	e := newNC(t, r, policy, 2, 1)
	objs := map[int]*layout.Object{}
	delivered := map[int][]sched.Delivery{}
	lost := map[int]map[int]bool{}
	failCycle := -1
	step := func() {
		t.Helper()
		rep, err := e.Step()
		if errors.Is(err, errWindowFull) {
			t.Fatalf("%v disk %d delay %d: the window refused a store: %v", policy, failedDisk, delay, err)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range rep.Clone().Delivered {
			delivered[d.StreamID] = append(delivered[d.StreamID], d)
		}
		for _, h := range rep.Hiccups {
			if failCycle < 0 || rep.Cycle >= failCycle+c {
				t.Errorf("%v disk %d delay %d: hiccup at cycle %d, failure at %d", policy, failedDisk, delay, rep.Cycle, failCycle)
			}
			lost[h.StreamID][h.Track] = true
		}
	}
	for i := 0; i < 4; i++ {
		obj := r.object(t, i)
		id, err := e.AddStreamAt(obj, 0)
		if err != nil {
			t.Fatal(err)
		}
		objs[id] = obj
		lost[id] = map[int]bool{}
		if i < 3 {
			step()
		}
	}
	for range delay {
		step()
	}
	failCycle = e.Cycle()
	if err := e.FailDisk(failedDisk); err != nil {
		t.Fatal(err)
	}
	for range 3 * c {
		step()
	}
	if err := repairDrive(e, r, failedDisk); err != nil {
		t.Fatal(err)
	}
	for e.Active() > 0 {
		if e.Cycle() > 200 {
			t.Fatalf("%v disk %d delay %d: streams still active at cycle %d", policy, failedDisk, delay, e.Cycle())
		}
		step()
	}
	n := 0
	for id, obj := range objs {
		verifyStream(t, r, obj, delivered[id], lost[id])
		n += len(lost[id])
	}
	if e.BufferInUse() != 0 {
		t.Errorf("%v disk %d delay %d: %d buffers still held", policy, failedDisk, delay, e.BufferInUse())
	}
	return n
}

// The transition's losses are bounded, whatever the failure meets: every
// failed data offset, a failure arriving at each of the 2(C-1) cycles of
// a stream's pass over both clusters, and both policies, each run
// through switchover, degraded mode and repair. No Step errs — the
// streams' windows never refuse a store — all hiccups come within C
// cycles of the failure, and the losses are as tabled: at the figures'
// moment (delay 0) those of EXP-F5-7, 6 simple and 3 alternate for every
// failed disk, and the alternate never loses more than the simple.
func TestNCTransitionBounded(t *testing.T) {
	// want[disk][delay] is the tracks lost, {simple, alternate}; column 0
	// is EXP-F5-7's.
	want := [4][8][2]int{
		{{6, 3}, {6, 0}, {3, 0}, {1, 0}, {0, 0}, {0, 0}, {3, 3}, {5, 4}},
		{{6, 3}, {6, 1}, {3, 0}, {1, 0}, {0, 0}, {0, 0}, {3, 3}, {5, 4}},
		{{6, 3}, {6, 2}, {3, 1}, {1, 0}, {0, 0}, {0, 0}, {3, 2}, {5, 3}},
		{{6, 3}, {6, 3}, {3, 2}, {1, 1}, {0, 0}, {0, 0}, {3, 1}, {5, 2}},
	}
	for failedDisk, rows := range want {
		for delay, w := range rows {
			simple := ncSweepLost(t, SimpleSwitchover, failedDisk, delay)
			alternate := ncSweepLost(t, AlternateSwitchover, failedDisk, delay)
			if got := [2]int{simple, alternate}; got != w {
				t.Errorf("disk %d delay %d: lost {simple, alternate} = %v, want %v", failedDisk, delay, got, w)
			}
			if alternate > simple {
				t.Errorf("disk %d delay %d: alternate lost %d > simple %d", failedDisk, delay, alternate, simple)
			}
		}
	}
}

// The alternate switchover never loses more than the simple one, across
// every failed-disk position.
func TestNCAlternateNeverWorse(t *testing.T) {
	for failedDisk := 0; failedDisk < 4; failedDisk++ {
		losses := map[TransitionPolicy]int{}
		for _, policy := range []TransitionPolicy{SimpleSwitchover, AlternateSwitchover} {
			r := figureRig(t, 6)
			e := newNC(t, r, policy, 2, 1)
			for i := 0; i < 4; i++ {
				if _, err := e.AddStreamAt(r.object(t, i), 0); err != nil {
					t.Fatal(err)
				}
				if i < 3 {
					stepN(t, e, 1)
				}
			}
			if err := e.FailDisk(failedDisk); err != nil {
				t.Fatal(err)
			}
			_, hiccups, _ := runToCompletion(t, e, 200)
			losses[policy] = len(hiccups)
		}
		if losses[AlternateSwitchover] > losses[SimpleSwitchover] {
			t.Errorf("disk %d: alternate lost %d > simple %d", failedDisk,
				losses[AlternateSwitchover], losses[SimpleSwitchover])
		}
	}
}

// Reconstructed tracks must be flagged and the content must be bit-exact
// (already checked by verifyStream; here we check the flag shows up).
func TestNCDegradedModeReconstructs(t *testing.T) {
	for _, policy := range []TransitionPolicy{SimpleSwitchover, AlternateSwitchover} {
		r := figureRig(t, 6)
		e := newNC(t, r, policy, 2, 1)
		id, err := e.AddStreamAt(r.object(t, 0), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.FailDisk(2); err != nil {
			t.Fatal(err)
		}
		deliveries, hiccups, _ := runToCompletion(t, e, 200)
		if len(hiccups) != 0 {
			t.Fatalf("%v: lone o=0 stream should lose nothing, got %v", policy, hiccups)
		}
		recon := 0
		for _, d := range deliveries[id] {
			if d.Reconstructed {
				recon++
			}
		}
		// Groups 0, 2, 4 are on cluster 0; each has one track on disk 2.
		if recon != 3 {
			t.Errorf("%v: reconstructed %d tracks, want 3", policy, recon)
		}
	}
}

// When every buffer server is busy, a further data-disk failure is a
// degradation of service: the failed drive's track hiccups on every pass.
func TestNCBufferServerExhaustion(t *testing.T) {
	r := figureRig(t, 6)
	e := newNC(t, r, SimpleSwitchover, 1, 1) // only one server
	id, err := e.AddStreamAt(r.object(t, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.FailDisk(2); err != nil { // cluster 0: takes the server
		t.Fatal(err)
	}
	if err := e.FailDisk(6); err != nil { // cluster 1: no server left
		t.Fatal(err)
	}
	if e.clusters[0].mode != ncDegraded || e.clusters[1].mode != ncUnprotected {
		t.Fatalf("cluster modes %v, %v: want cluster 1 alone unprotected", e.clusters[0].mode, e.clusters[1].mode)
	}
	if !e.ClusterDegraded(1) {
		t.Fatal("cluster 1 not marked degraded")
	}
	deliveries, hiccups, _ := runToCompletion(t, e, 200)
	// Groups 1, 3, 5 are on cluster 1; disk 6 is its second data drive
	// (offset 1): one loss per pass, every pass.
	if len(hiccups) != 3 {
		t.Fatalf("unprotected cluster lost %d tracks, want 3 (one per pass)", len(hiccups))
	}
	lost := map[int]bool{}
	for _, h := range hiccups {
		lost[h.Track] = true
	}
	for _, tr := range []int{5, 13, 21} { // offset 1 of groups 1,3,5
		if !lost[tr] {
			t.Errorf("expected recurring loss of track %d; lost = %v", tr, keys(lost))
		}
	}
	verifyStream(t, r, r.object(t, 0), deliveries[id], lost)
}

// A repair (replace, rebuild from parity, Restored, OnDriveRebuilt) frees the
// buffer server and restores hiccup-free normal operation.
func TestNCRepairDisk(t *testing.T) {
	r := figureRig(t, 10)
	e := newNC(t, r, SimpleSwitchover, 1, 1)
	id, err := e.AddStreamAt(r.object(t, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	early, _, _ := stepN(t, e, 2)
	if err := e.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	mid, midHiccups, _ := stepN(t, e, 8)
	if err := repairDrive(e, r, 2); err != nil {
		t.Fatal(err)
	}
	if e.ClusterDegraded(0) {
		t.Fatal("cluster still degraded after repair")
	}
	// The freed server can protect another cluster.
	if err := e.FailDisk(6); err != nil {
		t.Fatal(err)
	}
	if e.clusters[1].mode == ncUnprotected {
		t.Fatal("repair did not free the buffer server")
	}
	deliveries, hiccups, _ := runToCompletion(t, e, 300)
	all := merge(merge(early, mid), deliveries)
	lost := map[int]bool{}
	for _, h := range append(midHiccups, hiccups...) {
		lost[h.Track] = true
	}
	verifyStream(t, r, r.object(t, 0), all[id], lost)
}

func TestNCAdmission(t *testing.T) {
	r := figureRig(t, 4)
	e := newNC(t, r, SimpleSwitchover, 2, 1)
	if _, err := e.AddStreamAt(r.object(t, 0), 0); err != nil {
		t.Fatal(err)
	}
	// Same cycle, same start position: rejected at slot budget 1.
	if _, err := e.AddStreamAt(r.object(t, 1), 0); err == nil {
		t.Fatal("second stream at same position admitted")
	}
	stepN(t, e, 1)
	if _, err := e.AddStreamAt(r.object(t, 1), 0); err != nil {
		t.Fatalf("staggered admission rejected: %v", err)
	}
}

var _ Simulator = (*NonClustered)(nil)
