package schemes

import (
	"fmt"
	"testing"

	"ftmm/internal/disk"
	"ftmm/internal/diskmodel"
	"ftmm/internal/layout"
	"ftmm/internal/units"
	"ftmm/internal/workload"
)

// partialRig places objects whose track count is NOT a multiple of C-1,
// so every engine must handle a short (padded) final group, including
// through degraded-mode reconstruction.
func partialRig(t *testing.T, placement layout.Placement, tracks int) *rig {
	t.Helper()
	p := diskmodel.Table1()
	p.Capacity = units.ByteSize(tracks*2+40) * p.TrackSize
	farm, err := disk.NewFarm(10, 5, p)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := layout.ForFarm(farm, placement)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{farm: farm, lay: lay, content: map[string][]byte{}}
	trackSize := int(p.TrackSize)
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("obj%d", i)
		content := workload.SyntheticContent(id, tracks*trackSize-trackSize/3) // partial last track too
		obj, err := lay.AddObject(id, tracks, 0, units.MPEG1)
		if err != nil {
			t.Fatal(err)
		}
		if err := layout.WriteObject(farm, obj, content); err != nil {
			t.Fatal(err)
		}
		// Pad recorded content to whole tracks for verification.
		padded := make([]byte, tracks*trackSize)
		copy(padded, content)
		r.content[id] = padded
	}
	return r
}

// Every engine must deliver an object with a short final group
// bit-exactly, before and after a failure.
func TestPartialFinalGroupAllSchemes(t *testing.T) {
	const tracks = 10 // 2.5 groups at C=5
	cases := []struct {
		name  string
		build func(r *rig) (Simulator, error)
		place layout.Placement
	}{
		{"SR", func(r *rig) (Simulator, error) { return NewStreamingRAID(r.config()) }, layout.DedicatedParity},
		{"SG", func(r *rig) (Simulator, error) { return NewStaggeredGroup(r.config()) }, layout.DedicatedParity},
		{"NCsimple", func(r *rig) (Simulator, error) {
			cfg := r.config()
			cfg.SlotsPerDisk = 4
			return NewNonClustered(cfg, SimpleSwitchover, 2)
		}, layout.DedicatedParity},
		{"NCalternate", func(r *rig) (Simulator, error) {
			cfg := r.config()
			cfg.SlotsPerDisk = 4
			return NewNonClustered(cfg, AlternateSwitchover, 2)
		}, layout.DedicatedParity},
		{"IB", func(r *rig) (Simulator, error) { return NewImprovedBandwidth(r.config(), 2) }, layout.IntermixedParity},
	}
	for _, tc := range cases {
		for failDisk := -1; failDisk < 4; failDisk++ {
			t.Run(fmt.Sprintf("%s/fail%d", tc.name, failDisk), func(t *testing.T) {
				r := partialRig(t, tc.place, tracks)
				e, err := tc.build(r)
				if err != nil {
					t.Fatal(err)
				}
				id, err := e.AddStreamAt(r.object(t, 0), 0)
				if err != nil {
					t.Fatal(err)
				}
				if failDisk >= 0 {
					if err := e.FailDisk(failDisk); err != nil {
						t.Fatal(err)
					}
				}
				deliveries, hiccups, _ := runToCompletion(t, e, 300)
				lost := map[int]bool{}
				for _, h := range hiccups {
					lost[h.Track] = true
				}
				// The only scheme allowed to lose anything here is NC,
				// and only... with the stream at a group boundary at
				// failure time even NC loses nothing.
				if len(hiccups) != 0 {
					t.Fatalf("hiccups on o=0 failure: %v", hiccups)
				}
				verifyStream(t, r, r.object(t, 0), deliveries[id], lost)
			})
		}
	}
}

// A padded final group must also survive being the site of the NC
// degraded transition (the failed track inside the padding region must
// not surface as a stream hiccup).
func TestPartialFinalGroupNCTransition(t *testing.T) {
	for _, policy := range []TransitionPolicy{SimpleSwitchover, AlternateSwitchover} {
		r := partialRig(t, layout.DedicatedParity, 10)
		cfg := r.config()
		cfg.SlotsPerDisk = 4
		e, err := NewNonClustered(cfg, policy, 2)
		if err != nil {
			t.Fatal(err)
		}
		id, err := e.AddStreamAt(r.object(t, 0), 0)
		if err != nil {
			t.Fatal(err)
		}
		// Walk the stream into its final (short) group: groups 0 and 1
		// take 8 delivery cycles; position it mid-final-group.
		early, earlyHiccups, _ := stepN(t, e, 10)
		if len(earlyHiccups) != 0 {
			t.Fatal("hiccups before failure")
		}
		// The final group lives on cluster 0 (group 2): fail disk 3 —
		// its track is padding (group 2 holds tracks 8,9 + padding).
		if err := e.FailDisk(3); err != nil {
			t.Fatal(err)
		}
		deliveries, hiccups, _ := runToCompletion(t, e, 300)
		lost := map[int]bool{}
		for _, h := range hiccups {
			if h.Track >= 10 {
				t.Fatalf("%v: hiccup reported for padding track %d", policy, h.Track)
			}
			lost[h.Track] = true
		}
		all := merge(early, deliveries)
		verifyStream(t, r, r.object(t, 0), all[id], lost)
	}
}
