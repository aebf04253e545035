package schemes

import (
	"testing"
	"time"

	"ftmm/internal/layout"
)

func TestSGConstructorValidation(t *testing.T) {
	r := newRig(t, 10, 5, 1, 4, layout.DedicatedParity)
	if _, err := NewStaggeredGroup(r.config()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	ib := newRig(t, 10, 5, 1, 4, layout.IntermixedParity)
	if _, err := NewStaggeredGroup(ib.config()); err == nil {
		t.Error("intermixed layout accepted")
	}
	bad := r.config()
	bad.Rate = 0
	if _, err := NewStaggeredGroup(bad); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestSGCycleTime(t *testing.T) {
	r := newRig(t, 10, 5, 1, 4, layout.DedicatedParity)
	e, _ := NewStaggeredGroup(r.config())
	// Tcyc = B/b0 = 50KB / 0.1875 MB/s = 266.7 ms — a quarter of SR's.
	secs := 0.05 / 0.1875
	want := time.Duration(secs * float64(time.Second))
	if d := e.CycleTime() - want; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("CycleTime = %v, want ~%v", e.CycleTime(), want)
	}
	// Budget = (266.7 - 25) / 20 = 12 tracks: fewer streams per disk than
	// SR's 52/4 = 13, the paper's "slight cost in disk bandwidth".
	if e.SlotsPerDisk() != 12 {
		t.Errorf("SlotsPerDisk = %d, want 12", e.SlotsPerDisk())
	}
	if e.Name() != "Staggered-group" {
		t.Error("name")
	}
}

func TestSGNoFailureDeliversEverything(t *testing.T) {
	r := newRig(t, 10, 5, 3, 8, layout.DedicatedParity)
	e, err := NewStaggeredGroup(r.config())
	if err != nil {
		t.Fatal(err)
	}
	// Stagger admissions across cycles (that is the scheme's point).
	ids := map[int]int{}
	collected, _, _ := stepN(t, e, 0)
	for i := 0; i < 3; i++ {
		id, err := e.AddStreamAt(r.object(t, i), 0)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		d, h, _ := stepN(t, e, 1)
		collected = merge(collected, d)
		if len(h) != 0 {
			t.Fatal("hiccups in normal operation")
		}
	}
	deliveries, hiccups, _ := runToCompletion(t, e, 200)
	if len(hiccups) != 0 {
		t.Fatalf("hiccups in normal operation: %v", hiccups)
	}
	all := merge(collected, deliveries)
	for i := 0; i < 3; i++ {
		verifyStream(t, r, r.object(t, i), all[ids[i]], nil)
	}
}

func TestSGDeliveryRateOneTrackPerCycle(t *testing.T) {
	r := newRig(t, 10, 5, 1, 6, layout.DedicatedParity)
	e, _ := NewStaggeredGroup(r.config())
	if _, err := e.AddStreamAt(r.object(t, 0), 0); err != nil {
		t.Fatal(err)
	}
	_, _, reports := runToCompletion(t, e, 200)
	if len(reports[0].Delivered) != 0 {
		t.Errorf("cycle 0 delivered %d, want 0 (read only)", len(reports[0].Delivered))
	}
	for i := 1; i < len(reports); i++ {
		if got := len(reports[i].Delivered); got != 1 {
			t.Errorf("cycle %d delivered %d tracks, want 1 (k'=1)", i, got)
		}
	}
	// 6 groups x 4 tracks = 24 tracks over 24 cycles + 1 lead-in.
	if e.Cycle() != 25 {
		t.Errorf("completed at cycle %d, want 25", e.Cycle())
	}
}

func TestSGReadsEveryCMinusOneCycles(t *testing.T) {
	r := newRig(t, 10, 5, 1, 6, layout.DedicatedParity)
	e, _ := NewStaggeredGroup(r.config())
	if _, err := e.AddStreamAt(r.object(t, 0), 0); err != nil {
		t.Fatal(err)
	}
	_, _, reports := runToCompletion(t, e, 200)
	for i, rep := range reports {
		wantReads := 0
		if i%4 == 0 && i < 24 {
			wantReads = 4 // one whole group: 4 data tracks
		}
		if rep.DataReads != wantReads {
			t.Errorf("cycle %d data reads = %d, want %d", i, rep.DataReads, wantReads)
		}
		if wantReads > 0 && rep.ParityReads != 1 {
			t.Errorf("cycle %d parity reads = %d, want 1", i, rep.ParityReads)
		}
	}
}

func TestSGSingleFailureMaskedBitForBit(t *testing.T) {
	for failed := 0; failed < 5; failed++ {
		r := newRig(t, 10, 5, 1, 8, layout.DedicatedParity)
		e, _ := NewStaggeredGroup(r.config())
		id, err := e.AddStreamAt(r.object(t, 0), 0)
		if err != nil {
			t.Fatal(err)
		}
		early, _, _ := stepN(t, e, 6) // mid-delivery of a group
		if err := e.FailDisk(failed); err != nil {
			t.Fatal(err)
		}
		deliveries, hiccups, _ := runToCompletion(t, e, 200)
		if len(hiccups) != 0 {
			t.Fatalf("drive %d: hiccups despite single failure: %v", failed, hiccups)
		}
		all := merge(early, deliveries)
		verifyStream(t, r, r.object(t, 0), all[id], nil)
	}
}

func TestSGBufferSawtooth(t *testing.T) {
	r := newRig(t, 10, 5, 1, 6, layout.DedicatedParity)
	e, _ := NewStaggeredGroup(r.config())
	if _, err := e.AddStreamAt(r.object(t, 0), 0); err != nil {
		t.Fatal(err)
	}
	_, _, reports := runToCompletion(t, e, 200)
	// End-of-cycle occupancy pattern in steady state: 4,3,2,1 repeating
	// (C-1 data tracks after the read cycle, draining one per cycle).
	for i := 0; i+4 < len(reports)-1; i += 4 {
		wants := []int{4, 3, 2, 1}
		for j, w := range wants {
			if reports[i+j].BufferInUse != w {
				t.Errorf("cycle %d buffer = %d, want %d", i+j, reports[i+j].BufferInUse, w)
			}
		}
	}
	// Within-cycle peak: C+1 = 6 (paper's Figure 4 top of sawtooth).
	if e.BufferPeak() != 6 {
		t.Errorf("peak = %d, want 6 (= C+1)", e.BufferPeak())
	}
	if e.BufferInUse() != 0 {
		t.Errorf("buffers leaked: %d", e.BufferInUse())
	}
}

// Figure 4's aggregate claim: C-1 streams staggered one per phase peak at
// C(C+1)/2 tracks, roughly half of Streaming RAID's 2C(C-1) for the same
// four streams.
func TestSGAggregateBufferHalfOfSR(t *testing.T) {
	r := newRig(t, 10, 5, 4, 12, layout.DedicatedParity)
	sg, _ := NewStaggeredGroup(r.config())
	for i := 0; i < 4; i++ {
		if _, err := sg.AddStreamAt(r.object(t, i), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := sg.Step(); err != nil { // stagger phases
			t.Fatal(err)
		}
	}
	runToCompletion(t, sg, 300)
	if got, want := sg.BufferPeak(), 5*6/2; got != want {
		t.Errorf("SG aggregate peak = %d, want %d (= C(C+1)/2)", got, want)
	}

	r2 := newRig(t, 10, 5, 4, 12, layout.DedicatedParity)
	sr, _ := NewStreamingRAID(r2.config())
	for i := 0; i < 4; i++ {
		if _, err := sr.AddStreamAt(r2.object(t, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	runToCompletion(t, sr, 300)
	if got, want := sr.BufferPeak(), 2*5*4; got != want {
		t.Errorf("SR aggregate peak = %d, want %d (= 2C x 4 streams)", got, want)
	}
	ratio := float64(sg.BufferPeak()) / float64(sr.BufferPeak())
	if ratio > 0.5 {
		t.Errorf("SG/SR buffer ratio = %.2f, want <= 0.5", ratio)
	}
}

func TestSGAdmissionLimitPerPhase(t *testing.T) {
	r := newRig(t, 10, 5, 4, 4, layout.DedicatedParity)
	cfg := r.config()
	cfg.SlotsPerDisk = 1
	e, err := NewStaggeredGroup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// obj0 and obj2 start on cluster 0. Same cycle => same phase: only
	// one fits.
	if _, err := e.AddStreamAt(r.object(t, 0), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddStreamAt(r.object(t, 2), 0); err == nil {
		t.Fatal("second same-phase same-cluster stream admitted")
	}
	// Next cycle => next phase: now it fits.
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddStreamAt(r.object(t, 2), 0); err != nil {
		t.Fatalf("different phase rejected: %v", err)
	}
}

var _ Simulator = (*StaggeredGroup)(nil)
