package schemes

import (
	"testing"
	"time"

	"ftmm/internal/layout"
	"ftmm/internal/units"
)

func TestSRConstructorValidation(t *testing.T) {
	r := newRig(t, 10, 5, 1, 4, layout.DedicatedParity)
	cfg := r.config()
	if _, err := NewStreamingRAID(cfg); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := cfg
	bad.Rate = 0
	if _, err := NewStreamingRAID(bad); err == nil {
		t.Error("zero rate accepted")
	}
	bad = cfg
	bad.Farm = nil
	if _, err := NewStreamingRAID(bad); err == nil {
		t.Error("nil farm accepted")
	}
	// Wrong placement.
	ib := newRig(t, 10, 5, 1, 4, layout.IntermixedParity)
	if _, err := NewStreamingRAID(ib.config()); err == nil {
		t.Error("intermixed layout accepted")
	}
}

func TestSRCycleTimeAndSlots(t *testing.T) {
	r := newRig(t, 10, 5, 1, 4, layout.DedicatedParity)
	e, _ := NewStreamingRAID(r.config())
	// Tcyc = 4 * 50KB / 0.1875 MB/s = 1.0667 s.
	secs := 4 * 0.05 / 0.1875
	want := time.Duration(secs * float64(time.Second))
	if d := e.CycleTime() - want; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("CycleTime = %v, want ~%v", e.CycleTime(), want)
	}
	// Budget = (1066.7ms - 25ms) / 20ms = 52 tracks.
	if e.SlotsPerDisk() != 52 {
		t.Errorf("SlotsPerDisk = %d, want 52", e.SlotsPerDisk())
	}
	if e.Name() != "Streaming RAID" {
		t.Error("name")
	}
}

func TestSRNoFailureDeliversEverything(t *testing.T) {
	r := newRig(t, 10, 5, 3, 8, layout.DedicatedParity)
	e, err := NewStreamingRAID(r.config())
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for i := 0; i < 3; i++ {
		id, err := e.AddStreamAt(r.object(t, i), 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	deliveries, hiccups, _ := runToCompletion(t, e, 100)
	if len(hiccups) != 0 {
		t.Fatalf("hiccups in normal operation: %v", hiccups)
	}
	for i, id := range ids {
		verifyStream(t, r, r.object(t, i), deliveries[id], nil)
	}
	// 8 groups: read cycles 0..7, deliveries 1..8, done after cycle 8.
	if e.Cycle() != 9 {
		t.Errorf("completed at cycle %d, want 9", e.Cycle())
	}
}

func TestSRDeliveryRate(t *testing.T) {
	r := newRig(t, 10, 5, 1, 6, layout.DedicatedParity)
	e, _ := NewStreamingRAID(r.config())
	if _, err := e.AddStreamAt(r.object(t, 0), 0); err != nil {
		t.Fatal(err)
	}
	_, _, reports := runToCompletion(t, e, 100)
	if len(reports[0].Delivered) != 0 {
		t.Errorf("cycle 0 delivered %d tracks, want 0", len(reports[0].Delivered))
	}
	for i := 1; i < len(reports); i++ {
		if got := len(reports[i].Delivered); got != 4 {
			t.Errorf("cycle %d delivered %d tracks, want 4 (k'=C-1)", i, got)
		}
	}
}

func TestSRSingleFailureMaskedBitForBit(t *testing.T) {
	// Fail each drive of cluster 0 in turn (data drives and the parity
	// drive); single failures must always be fully masked.
	for failed := 0; failed < 5; failed++ {
		r := newRig(t, 10, 5, 2, 8, layout.DedicatedParity)
		e, _ := NewStreamingRAID(r.config())
		id0, err := e.AddStreamAt(r.object(t, 0), 0)
		if err != nil {
			t.Fatal(err)
		}
		id1, err := e.AddStreamAt(r.object(t, 1), 0)
		if err != nil {
			t.Fatal(err)
		}
		early, earlyHiccups, earlyReports := stepN(t, e, 3)
		if len(earlyHiccups) != 0 {
			t.Fatal("hiccups before failure")
		}
		if err := e.FailDisk(failed); err != nil {
			t.Fatal(err)
		}
		deliveries, hiccups, reports := runToCompletion(t, e, 100)
		if len(hiccups) != 0 {
			t.Fatalf("drive %d: hiccups despite single failure: %v", failed, hiccups)
		}
		all := merge(early, deliveries)
		verifyStream(t, r, r.object(t, 0), all[id0], nil)
		verifyStream(t, r, r.object(t, 1), all[id1], nil)
		recs := 0
		for _, rep := range append(earlyReports, reports...) {
			recs += rep.Reconstructions
		}
		if failed == 4 && recs != 0 {
			t.Errorf("parity-drive failure should need no reconstruction, got %d", recs)
		}
		if failed < 4 && recs == 0 {
			t.Errorf("data-drive %d failure produced no reconstructions", failed)
		}
	}
}

func TestSRReconstructedFlagSet(t *testing.T) {
	r := newRig(t, 10, 5, 1, 8, layout.DedicatedParity)
	e, _ := NewStreamingRAID(r.config())
	id, _ := e.AddStreamAt(r.object(t, 0), 0)
	if err := e.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	deliveries, _, _ := runToCompletion(t, e, 100)
	recon := 0
	for _, d := range deliveries[id] {
		if d.Reconstructed {
			recon++
		}
	}
	// Drive 0 holds the first track of every cluster-0 group of obj0:
	// groups 0, 2, 4, 6 (two clusters round-robin) => 4 reconstructions.
	if recon != 4 {
		t.Errorf("reconstructed deliveries = %d, want 4", recon)
	}
}

func TestSRDoubleFailureCatastrophic(t *testing.T) {
	r := newRig(t, 10, 5, 1, 8, layout.DedicatedParity)
	e, _ := NewStreamingRAID(r.config())
	id, _ := e.AddStreamAt(r.object(t, 0), 0)
	if err := e.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	if err := e.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	deliveries, hiccups, _ := runToCompletion(t, e, 100)
	if len(hiccups) == 0 {
		t.Fatal("two failures in one cluster must cause hiccups")
	}
	// Hiccups are exactly the cluster-0 groups' tracks; delivered tracks
	// (cluster-1 groups) are still bit-exact.
	lost := map[int]bool{}
	for _, h := range hiccups {
		lost[h.Track] = true
	}
	verifyStream(t, r, r.object(t, 0), deliveries[id], lost)
	// Cluster-0 groups (0,2,4,6) each lose exactly the two tracks that
	// lived on the failed drives: 8 tracks total; the healthy drives'
	// tracks still deliver.
	if len(lost) != 8 {
		t.Errorf("lost %d distinct tracks, want 8", len(lost))
	}
}

func TestSRAdmissionLimit(t *testing.T) {
	r := newRig(t, 10, 5, 3, 4, layout.DedicatedParity)
	cfg := r.config()
	cfg.SlotsPerDisk = 2
	e, err := NewStreamingRAID(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.SlotsPerDisk() != 2 || e.slots.Free(0) != 2 {
		t.Fatalf("per-disk budget %d (%d free on drive 0), want the override 2", e.SlotsPerDisk(), e.slots.Free(0))
	}
	// obj0 and obj2 both start on cluster 0 (i%2), obj1 on cluster 1.
	if _, err := e.AddStreamAt(r.object(t, 0), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddStreamAt(r.object(t, 2), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddStreamAt(r.object(t, 0), 0); err == nil {
		t.Fatal("third stream on cluster 0 admitted beyond budget")
	}
	// Cluster 1 still has room.
	if _, err := e.AddStreamAt(r.object(t, 1), 0); err != nil {
		t.Fatalf("cluster 1 admission failed: %v", err)
	}
}

func TestSRBufferAccounting(t *testing.T) {
	r := newRig(t, 10, 5, 1, 6, layout.DedicatedParity)
	e, _ := NewStreamingRAID(r.config())
	if _, err := e.AddStreamAt(r.object(t, 0), 0); err != nil {
		t.Fatal(err)
	}
	_, _, reports := runToCompletion(t, e, 100)
	// Steady state end-of-cycle: one group staged (C tracks incl parity).
	for i := 0; i < len(reports)-1; i++ {
		if reports[i].BufferInUse != 5 {
			t.Errorf("cycle %d buffer = %d, want 5", i, reports[i].BufferInUse)
		}
	}
	// Within-cycle peak: 2C = 10 (group being read + group delivering).
	if e.BufferPeak() != 10 {
		t.Errorf("peak = %d, want 10 (= 2C)", e.BufferPeak())
	}
	// All buffers returned at the end.
	if e.BufferInUse() != 0 {
		t.Errorf("buffers leaked: %d in use after completion", e.BufferInUse())
	}
}

func TestSRFailDiskErrors(t *testing.T) {
	r := newRig(t, 10, 5, 1, 4, layout.DedicatedParity)
	e, _ := NewStreamingRAID(r.config())
	if err := e.FailDisk(99); err == nil {
		t.Error("bad drive id accepted")
	}
	if err := e.FailDisk(3); err != nil {
		t.Fatal(err)
	}
	if err := e.FailDisk(3); err == nil {
		t.Error("double failure accepted")
	}
}

func TestSRMidStreamAdmission(t *testing.T) {
	// Admit a second stream some cycles into the first; both finish
	// cleanly with full content.
	r := newRig(t, 10, 5, 2, 8, layout.DedicatedParity)
	e, _ := NewStreamingRAID(r.config())
	id0, _ := e.AddStreamAt(r.object(t, 0), 0)
	early, _, _ := stepN(t, e, 5)
	id1, err := e.AddStreamAt(r.object(t, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	deliveries, hiccups, _ := runToCompletion(t, e, 100)
	if len(hiccups) != 0 {
		t.Fatal("hiccups")
	}
	all := merge(early, deliveries)
	verifyStream(t, r, r.object(t, 0), all[id0], nil)
	verifyStream(t, r, r.object(t, 1), all[id1], nil)
}

var _ Simulator = (*StreamingRAID)(nil)
var _ = units.MPEG1
