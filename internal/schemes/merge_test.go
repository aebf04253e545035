package schemes

import (
	"testing"

	"ftmm/internal/layout"
	"ftmm/internal/sched"
)

// mergeScenarioResult is one full run of the hot-title scenario.
type mergeScenarioResult struct {
	reports    []*sched.CycleReport
	deliveries map[int][]sched.Delivery
	// arenaGets counts physical track-buffer fetches — the thing merging
	// is supposed to reduce without touching any report field.
	arenaGets int64
	peak      int
}

// runMergeScenario drives a Streaming RAID engine through a fixed
// hot-title scenario: a lockstep pack of four viewers on obj0, a fifth
// viewer of obj0 offset by three groups (same title, never mergeable), a
// viewer of obj1, a late joiner who lands exactly on the pack's group, a
// mid-run drive failure (shared reads must reconstruct), and a mid-run
// cancellation of one pack member (share-aware release).
func runMergeScenario(t *testing.T, r *rig, workers int, disableMerge bool) mergeScenarioResult {
	t.Helper()
	cfg := r.config()
	cfg.Workers = workers
	cfg.SlotsPerDisk = 8
	cfg.disableMergedReads = disableMerge
	e, err := NewStreamingRAID(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obj0, obj1 := r.object(t, 0), r.object(t, 1)
	for i := 0; i < 4; i++ {
		if _, err := e.AddStream(obj0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.AddStreamAt(obj0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddStream(obj1); err != nil {
		t.Fatal(err)
	}

	res := mergeScenarioResult{deliveries: map[int][]sched.Delivery{}}
	for cyc := 0; cyc < 60; cyc++ {
		switch cyc {
		case 2:
			// Joins the pack mid-flight: the pack's next read is group 2.
			if _, err := e.AddStreamAt(obj0, 2); err != nil {
				t.Fatal(err)
			}
		case 5:
			if err := e.FailDisk(1); err != nil {
				t.Fatal(err)
			}
		case 8:
			if err := e.CancelStream(1); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := e.Step()
		if err != nil {
			t.Fatalf("cycle %d: %v", cyc, err)
		}
		rep = rep.Clone()
		res.reports = append(res.reports, rep)
		for _, d := range rep.Delivered {
			res.deliveries[d.StreamID] = append(res.deliveries[d.StreamID], d)
		}
		if cyc > 2 && e.Active() == 0 {
			break
		}
	}
	if e.Active() != 0 {
		t.Fatal("streams still active after 60 cycles")
	}
	// One more Step releases the engine's refs on the last deliveries
	// (a report's buffers are held until the next Step); after that
	// every track buffer must be back home.
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	if n := e.BufferInUse(); n != 0 {
		t.Fatalf("buffer pool still holds %d tracks after drain", n)
	}
	if n := e.Arena().Outstanding(); n != 0 {
		t.Fatalf("%d shared track buffers never released", n)
	}
	res.arenaGets, _, _ = e.Arena().Stats()
	res.peak = e.BufferPeak()
	return res
}

// TestMergedReadsBitExactReports pins the core contract of same-title
// read merging: every CycleReport — deliveries (with content bytes),
// hiccups, read/reconstruction counters, buffer occupancy — is
// bit-identical to the unmerged engine's, across admission, a drive
// failure, and a sharer's cancellation; only the physical arena traffic
// shrinks. It also pins shard-count invariance of the merged path.
func TestMergedReadsBitExactReports(t *testing.T) {
	// Fresh rigs per run: FailDisk mutates the farm. newRig is
	// deterministic, so the runs see identical farms and content.
	rig := func() *rig { return newRig(t, 10, 5, 2, 12, layout.DedicatedParity) }
	merged := runMergeScenario(t, rig(), 1, false)
	unmerged := runMergeScenario(t, rig(), 1, true)

	if len(merged.reports) != len(unmerged.reports) {
		t.Fatalf("merged ran %d cycles, unmerged %d", len(merged.reports), len(unmerged.reports))
	}
	for i := range merged.reports {
		if !merged.reports[i].Equal(unmerged.reports[i]) {
			t.Fatalf("cycle %d: merged report differs from unmerged:\n got %s\nwant %s",
				i, stripData(merged.reports[i]), stripData(unmerged.reports[i]))
		}
	}
	if merged.peak != unmerged.peak {
		t.Fatalf("merged buffer peak %d, unmerged %d", merged.peak, unmerged.peak)
	}
	// Merging must have actually merged: the pack shares one physical
	// group read per cycle, so the merged run fetches far fewer buffers.
	if merged.arenaGets >= unmerged.arenaGets {
		t.Fatalf("merging saved no physical reads: %d gets merged vs %d unmerged",
			merged.arenaGets, unmerged.arenaGets)
	}

	// Shard-count invariance holds through the merged read path too.
	for _, workers := range []int{2, 8} {
		alt := runMergeScenario(t, rig(), workers, false)
		if len(alt.reports) != len(merged.reports) {
			t.Fatalf("workers=%d ran %d cycles, serial %d", workers, len(alt.reports), len(merged.reports))
		}
		for i := range alt.reports {
			if !alt.reports[i].Equal(merged.reports[i]) {
				t.Fatalf("workers=%d cycle %d: report differs from serial merged run", workers, i)
			}
		}
	}

	// Every surviving sharer got the full, byte-exact title. Stream 1
	// was cancelled mid-run; streams 4 (offset) and 6 (late joiner)
	// started mid-title, so only the lockstep survivors 0, 2, 3 and the
	// solo viewer 5 expect complete objects.
	r := rig()
	for _, id := range []int{0, 2, 3} {
		verifyStream(t, r, r.object(t, 0), merged.deliveries[id], nil)
	}
	verifyStream(t, r, r.object(t, 1), merged.deliveries[5], nil)
}
