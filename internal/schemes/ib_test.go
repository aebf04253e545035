package schemes

import (
	"testing"

	"ftmm/internal/layout"
	"ftmm/internal/sched"
)

// terminated counts the streams the reports list as terminated: the
// paper's degradation of service.
func terminated(reports []*sched.CycleReport) int {
	n := 0
	for _, rep := range reports {
		n += len(rep.Terminated)
	}
	return n
}

func TestIBConstructorValidation(t *testing.T) {
	r := newRig(t, 15, 5, 1, 6, layout.IntermixedParity)
	if _, err := NewImprovedBandwidth(r.config(), 1); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	ded := newRig(t, 15, 5, 1, 6, layout.DedicatedParity)
	if _, err := NewImprovedBandwidth(ded.config(), 1); err == nil {
		t.Error("dedicated layout accepted")
	}
	if _, err := NewImprovedBandwidth(r.config(), -1); err == nil {
		t.Error("negative reserve accepted")
	}
	if _, err := NewImprovedBandwidth(r.config(), 1000); err == nil {
		t.Error("reserve >= slots accepted")
	}
}

// In normal operation the Improved-bandwidth scheme spends zero
// bandwidth on parity — that is its entire point.
func TestIBNormalModeNoParityBandwidth(t *testing.T) {
	r := newRig(t, 15, 5, 3, 9, layout.IntermixedParity)
	e, err := NewImprovedBandwidth(r.config(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 3)
	for i := 0; i < 3; i++ {
		ids[i], err = e.AddStreamAt(r.object(t, i), 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	deliveries, hiccups, reports := runToCompletion(t, e, 100)
	if len(hiccups) != 0 {
		t.Fatalf("hiccups in normal mode: %v", hiccups)
	}
	for _, rep := range reports {
		if rep.ParityReads != 0 {
			t.Fatalf("cycle %d read %d parity blocks in normal mode", rep.Cycle, rep.ParityReads)
		}
	}
	for i, id := range ids {
		verifyStream(t, r, r.object(t, i), deliveries[id], nil)
	}
	if terminated(reports) != 0 {
		t.Error("terminations in normal mode")
	}
}

func TestIBBufferAccounting(t *testing.T) {
	r := newRig(t, 15, 5, 1, 6, layout.IntermixedParity)
	e, _ := NewImprovedBandwidth(r.config(), 0)
	if _, err := e.AddStreamAt(r.object(t, 0), 0); err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, e, 100)
	// 2(C-1) per stream: one group staged, one delivering, no parity.
	if e.BufferPeak() != 8 {
		t.Errorf("peak = %d, want 8 (= 2(C-1))", e.BufferPeak())
	}
	if e.BufferInUse() != 0 {
		t.Errorf("buffers leaked: %d", e.BufferInUse())
	}
}

// A cycle-boundary failure is fully masked when there is spare capacity:
// the shift reads parity from the next cluster.
func TestIBBoundaryFailureMasked(t *testing.T) {
	for failed := 0; failed < 5; failed++ {
		r := newRig(t, 15, 5, 2, 9, layout.IntermixedParity)
		e, _ := NewImprovedBandwidth(r.config(), 2)
		id0, err := e.AddStreamAt(r.object(t, 0), 0)
		if err != nil {
			t.Fatal(err)
		}
		id1, err := e.AddStreamAt(r.object(t, 1), 0)
		if err != nil {
			t.Fatal(err)
		}
		early, _, _ := stepN(t, e, 2)
		if err := e.FailDisk(failed); err != nil {
			t.Fatal(err)
		}
		deliveries, hiccups, reports := runToCompletion(t, e, 100)
		if len(hiccups) != 0 {
			t.Fatalf("drive %d: hiccups despite reserve: %v", failed, hiccups)
		}
		all := merge(early, deliveries)
		verifyStream(t, r, r.object(t, 0), all[id0], nil)
		verifyStream(t, r, r.object(t, 1), all[id1], nil)
		parity := 0
		for _, rep := range reports {
			parity += rep.ParityReads
		}
		if parity == 0 {
			t.Errorf("drive %d: failure masked without parity reads?", failed)
		}
		if terminated(reports) != 0 {
			t.Errorf("drive %d: terminations despite reserve", failed)
		}
	}
}

// A mid-cycle failure produces the paper's isolated hiccup: the track
// whose read was in flight is lost once, everything afterwards is masked.
func TestIBMidCycleFailureSingleHiccup(t *testing.T) {
	r := newRig(t, 15, 5, 1, 9, layout.IntermixedParity)
	e, _ := NewImprovedBandwidth(r.config(), 2)
	id, err := e.AddStreamAt(r.object(t, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	early, _, _ := stepN(t, e, 1)
	// The stream's next group (group 1, cluster 1) reads drives 5,7,8,9
	// (skip rotates to 6). Fail drive 7 mid-cycle: its single scheduled
	// read is lost.
	if err := e.FailDiskMidCycle(7); err != nil {
		t.Fatal(err)
	}
	deliveries, hiccups, reports := runToCompletion(t, e, 100)
	if len(hiccups) != 1 {
		t.Fatalf("hiccups = %v, want exactly 1", hiccups)
	}
	lost := map[int]bool{hiccups[0].Track: true}
	all := merge(early, deliveries)
	verifyStream(t, r, r.object(t, 0), all[id], lost)
	if terminated(reports) != 0 {
		t.Error("mid-cycle hiccup should not terminate the stream")
	}
}

func TestIBAdmissionReserve(t *testing.T) {
	r := newRig(t, 15, 5, 3, 6, layout.IntermixedParity)
	cfg := r.config()
	cfg.SlotsPerDisk = 2
	e, err := NewImprovedBandwidth(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity = 2 - 1 = 1 stream per cluster. obj0 and... objects start
	// at clusters 0,1,2 in the rig, so all three are admitted; a second
	// stream of obj0 is not.
	for i := 0; i < 3; i++ {
		if _, err := e.AddStreamAt(r.object(t, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.AddStreamAt(r.object(t, 0), 0); err == nil {
		t.Fatal("stream beyond reserve-adjusted capacity admitted")
	}
}

// At full load with no reserve, a failure forces the shift to drop local
// reads; when the chain wraps without finding capacity, streams are
// terminated — the paper's degradation of service. With one slot of
// reserve, the identical scenario is fully masked.
func TestIBReservePreventsDegradation(t *testing.T) {
	run := func(slots, reserve int) (hiccups int, terminations int) {
		r := newRig(t, 10, 5, 3, 8, layout.IntermixedParity)
		cfg := r.config()
		cfg.SlotsPerDisk = slots
		e, err := NewImprovedBandwidth(cfg, reserve)
		if err != nil {
			t.Fatal(err)
		}
		// Two streams of cluster-0-starting objects, admitted a cycle
		// apart: they alternate clusters in anti-phase with different
		// group rotations, so under failure the parity block lands on a
		// drive the other stream is using — otherwise the parity always
		// falls on the very drive the next cluster's group happens to
		// skip.
		if _, err := e.AddStreamAt(r.object(t, 0), 0); err != nil {
			t.Fatal(err)
		}
		stepN(t, e, 1)
		if _, err := e.AddStreamAt(r.object(t, 2), 0); err != nil {
			t.Fatal(err)
		}
		if err := e.FailDisk(0); err != nil {
			t.Fatal(err)
		}
		_, h, reports := runToCompletion(t, e, 100)
		return len(h), terminated(reports)
	}

	// No reserve, one slot per drive: the farm is saturated.
	h0, t0 := run(1, 0)
	if t0 == 0 {
		t.Errorf("saturated farm absorbed a failure without degradation (hiccups=%d)", h0)
	}
	// One spare slot per drive: fully masked.
	h1, t1 := run(2, 1)
	if h1 != 0 || t1 != 0 {
		t.Errorf("with reserve: hiccups=%d terminations=%d, want 0,0", h1, t1)
	}
}

// The victim chain itself: engineer a collision where the parity read
// must displace the next cluster's local read, which is then recovered
// from the cluster after that (Figure 8's cascading shift).
func TestIBShiftPropagatesRight(t *testing.T) {
	r := newRig(t, 15, 5, 3, 9, layout.IntermixedParity)
	cfg := r.config()
	cfg.SlotsPerDisk = 2
	e, err := NewImprovedBandwidth(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 3)
	for i := 0; i < 3; i++ {
		ids[i], err = e.AddStreamAt(r.object(t, i), 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := e.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	deliveries, hiccups, reports := runToCompletion(t, e, 100)
	if len(hiccups) != 0 || terminated(reports) != 0 {
		t.Fatalf("hiccups=%d terminations=%d, want 0,0", len(hiccups), terminated(reports))
	}
	for i, id := range ids {
		verifyStream(t, r, r.object(t, i), deliveries[id], nil)
	}
	// Reconstructions must cover every cluster-0 group the failed drive
	// participated in.
	recs := 0
	for _, rep := range reports {
		recs += rep.Reconstructions
	}
	if recs == 0 {
		t.Fatal("no reconstructions despite failure under load")
	}
}

var _ Simulator = (*ImprovedBandwidth)(nil)
