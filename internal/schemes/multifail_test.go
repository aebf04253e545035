package schemes

import (
	"testing"

	"ftmm/internal/layout"
)

// One failure in EACH cluster simultaneously: the dedicated-parity
// schemes mask all of them (the paper: "Multiple disks can fail (as long
// as they aren't in the same parity group)").
func TestMultiClusterFailuresMaskedSR(t *testing.T) {
	r := newRig(t, 15, 5, 3, 9, layout.DedicatedParity)
	e, err := NewStreamingRAID(r.config())
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
	// One drive per cluster: 1 (cluster 0), 7 (cluster 1), 12 (cluster 2).
	for _, d := range []int{1, 7, 12} {
		if err := e.FailDisk(d); err != nil {
			t.Fatal(err)
		}
	}
	deliveries, hiccups, _ := runToCompletion(t, e, 100)
	if len(hiccups) != 0 {
		t.Fatalf("three one-per-cluster failures caused hiccups: %v", hiccups)
	}
	for i, id := range ids {
		verifyStream(t, r, r.object(t, i), deliveries[id], nil)
	}
}

func TestMultiClusterFailuresMaskedSG(t *testing.T) {
	r := newRig(t, 15, 5, 3, 9, layout.DedicatedParity)
	e, err := NewStaggeredGroup(r.config())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 3)
	early, _, _ := stepN(t, e, 0)
	for i := 0; i < 3; i++ {
		ids[i], err = e.AddStreamAt(r.object(t, i), 0)
		if err != nil {
			t.Fatal(err)
		}
		d, h, _ := stepN(t, e, 1)
		early = merge(early, d)
		if len(h) != 0 {
			t.Fatal("early hiccups")
		}
	}
	for _, d := range []int{0, 8, 13} {
		if err := e.FailDisk(d); err != nil {
			t.Fatal(err)
		}
	}
	deliveries, hiccups, _ := runToCompletion(t, e, 300)
	if len(hiccups) != 0 {
		t.Fatalf("hiccups: %v", hiccups)
	}
	all := merge(early, deliveries)
	for i, id := range ids {
		verifyStream(t, r, r.object(t, i), all[id], nil)
	}
}

// NC with two failures in different clusters and two buffer servers:
// both clusters transition (bounded losses), then run hiccup-free.
func TestNCTwoClustersDegraded(t *testing.T) {
	r := newRig(t, 15, 5, 3, 9, layout.DedicatedParity)
	cfg := r.config()
	e, err := NewNonClustered(cfg, AlternateSwitchover, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.AddStreamAt(r.object(t, i), 0); err != nil {
			t.Fatal(err)
		}
		stepN(t, e, 1)
	}
	if err := e.FailDisk(2); err != nil { // cluster 0
		t.Fatal(err)
	}
	if err := e.FailDisk(6); err != nil { // cluster 1
		t.Fatal(err)
	}
	if !e.ClusterDegraded(0) || !e.ClusterDegraded(1) {
		t.Fatal("clusters not degraded")
	}
	if e.clusters[0].mode == ncUnprotected || e.clusters[1].mode == ncUnprotected {
		t.Fatal("two servers should cover two clusters")
	}
	_, hiccups, _ := runToCompletion(t, e, 400)
	// Each stream can lose at most one track per failed cluster in the
	// transition (alternate policy), plus slot-conflict victims.
	if len(hiccups) > 2*3*2 {
		t.Fatalf("transition losses %d exceed bound", len(hiccups))
	}
}

// IB's Achilles heel (§4): failures in ADJACENT clusters lose data — the
// groups whose data touches the first failed drive and whose parity sits
// on the second. Same-distance failures in NON-adjacent clusters are
// masked.
func TestIBAdjacentVsDistantClusterFailures(t *testing.T) {
	run := func(second int) (hiccups int) {
		r := newRig(t, 20, 5, 2, 12, layout.IntermixedParity)
		e, err := NewImprovedBandwidth(r.config(), 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := e.AddStreamAt(r.object(t, i), 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.FailDisk(1); err != nil { // cluster 0 data
			t.Fatal(err)
		}
		if err := e.FailDisk(second); err != nil {
			t.Fatal(err)
		}
		_, h, _ := runToCompletion(t, e, 200)
		return len(h)
	}

	// Second failure in cluster 1 (parity home of cluster 0): the groups
	// whose data hits drive 1 and whose parity landed on the failed
	// cluster-1 drive cannot be reconstructed -> hiccups. The in-cluster
	// positions must differ: a group's parity position in cluster 1
	// equals the position it skips in cluster 0, so position-1 data and
	// position-1 parity never co-occur; drive 7 (position 2) collides
	// with drive 1 data on every group with index ≡ 2 (mod 5).
	adjacent := run(7)
	if adjacent == 0 {
		t.Fatal("adjacent-cluster double failure lost no data; the (2C-1) exposure should bite")
	}
	// With four clusters, a second failure two clusters away shares no
	// parity relationship with the first (cluster 0's parity home is 1,
	// cluster 2's is 3): fully masked.
	distant := run(12)
	if distant != 0 {
		t.Fatalf("distant-cluster failures lost %d tracks, want 0", distant)
	}
}
