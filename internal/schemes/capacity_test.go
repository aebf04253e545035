package schemes

import (
	"fmt"
	"testing"

	"ftmm/internal/layout"
	"ftmm/internal/units"
)

// The engines' slot-based admission must agree with the paper's analytic
// stream bounds: a cluster of C-1 data disks admits floor(bound·(C-1))
// streams under SR, and the staggered schemes admit the same aggregate
// across their C-1 phases.
func TestAdmissionMatchesAnalyticBound(t *testing.T) {
	const c = 5

	// Per-disk bounds from the disk model (Table 1, MPEG-1):
	// SR: 13.0208..., SG/NC: 12.0833...
	r := newRig(t, 10, c, 1, 4, layout.DedicatedParity)
	srBound, err := r.farm.Params().StreamsPerDisk(c-1, c-1, units.MPEG1)
	if err != nil {
		t.Fatal(err)
	}
	sgBound, err := r.farm.Params().StreamsPerDisk(c-1, 1, units.MPEG1)
	if err != nil {
		t.Fatal(err)
	}
	wantSR := int(srBound * (c - 1)) // 52 streams per cluster
	wantSG := int(sgBound * (c - 1)) // 48 streams per cluster

	// Streaming RAID: admit streams on one cluster until rejection.
	{
		rig := manyObjectsRig(t, wantSR+2, layout.DedicatedParity)
		e, err := NewStreamingRAID(rig.config())
		if err != nil {
			t.Fatal(err)
		}
		admitted := 0
		for i := 0; ; i++ {
			if _, err := e.AddStream(rig.object(t, i)); err != nil {
				break
			}
			admitted++
		}
		if admitted != wantSR {
			t.Errorf("SR cluster capacity = %d streams, analytic bound says %d", admitted, wantSR)
		}
	}

	// Staggered-group: per phase the cluster admits slotsPerDisk streams;
	// across the C-1 phases the aggregate equals the analytic bound.
	{
		rig := manyObjectsRig(t, wantSG+6, layout.DedicatedParity)
		e, err := NewStaggeredGroup(rig.config())
		if err != nil {
			t.Fatal(err)
		}
		admitted := 0
		next := 0
		for phase := 0; phase < c-1; phase++ {
			for {
				if _, err := e.AddStream(rig.object(t, next)); err != nil {
					break
				}
				next++
				admitted++
			}
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if admitted != wantSG {
			t.Errorf("SG aggregate capacity = %d streams, analytic bound says %d", admitted, wantSG)
		}
	}

	// Non-clustered: same aggregate bound as SG (k'=1).
	{
		rig := manyObjectsRig(t, wantSG+6, layout.DedicatedParity)
		e, err := NewNonClustered(rig.config(), AlternateSwitchover, 2)
		if err != nil {
			t.Fatal(err)
		}
		admitted := 0
		next := 0
		for phase := 0; phase < c-1; phase++ {
			for {
				if _, err := e.AddStream(rig.object(t, next)); err != nil {
					break
				}
				next++
				admitted++
			}
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if admitted != wantSG {
			t.Errorf("NC aggregate capacity = %d streams, analytic bound says %d", admitted, wantSG)
		}
	}

	// Improved-bandwidth: SR's bound minus the reserve.
	{
		reserve := 3
		rig := manyObjectsRig(t, wantSR+2, layout.IntermixedParity)
		e, err := NewImprovedBandwidth(rig.config(), reserve)
		if err != nil {
			t.Fatal(err)
		}
		admitted := 0
		for i := 0; ; i++ {
			if _, err := e.AddStream(rig.object(t, i)); err != nil {
				break
			}
			admitted++
		}
		if want := wantSR - reserve; admitted != want {
			t.Errorf("IB cluster capacity = %d streams, want %d (bound minus reserve)", admitted, want)
		}
	}
}

// manyObjectsRig places many small same-start-cluster objects so streams
// can be admitted until a cluster saturates. Admission never runs these
// streams, so drive capacity just needs to hold the placements: each
// 8-track object consumes one track per drive.
func manyObjectsRig(t *testing.T, n int, placement layout.Placement) *rig {
	t.Helper()
	r := newRig(t, 10, 5, 1, n+4, placement) // capacity-sizing only
	if err := r.lay.RemoveObject("obj0"); err != nil {
		t.Fatal(err)
	}
	trackSize := int(r.farm.Params().TrackSize)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("obj%d", i)
		obj, err := r.lay.AddObject(id, 8, 0, units.MPEG1)
		if err != nil {
			t.Fatal(err)
		}
		if err := layout.WriteObject(r.farm, obj, make([]byte, 8*trackSize)); err != nil {
			t.Fatal(err)
		}
		r.content[id] = make([]byte, 8*trackSize)
	}
	return r
}

// TestDegradedCapacity pins how many streams each scheme admits with
// one drive down, on one farm so the rows compare: 18 drives, parity
// groups of C = 3, and for dc two G = 9 declustering groups. Drive 0 is
// failed and latched with one cycle, then streams are admitted
// round-robin over six titles until the engine refuses.
func TestDegradedCapacity(t *testing.T) {
	const d, c, g, titles, groupsEach = 18, 3, 9, 6, 12
	clustered := func(p layout.Placement) func(*testing.T) *rig {
		return func(t *testing.T) *rig { return newRig(t, d, c, titles, groupsEach, p) }
	}
	for _, tc := range []struct {
		name  string
		rig   func(*testing.T) *rig
		build func(Config) (Simulator, error)
		want  int
	}{
		{"sr", clustered(layout.DedicatedParity),
			func(cfg Config) (Simulator, error) { return NewStreamingRAID(cfg) }, 150},
		{"sg", clustered(layout.DedicatedParity),
			func(cfg Config) (Simulator, error) { return NewStaggeredGroup(cfg) }, 72},
		{"nc", clustered(layout.DedicatedParity),
			func(cfg Config) (Simulator, error) { return NewNonClustered(cfg, AlternateSwitchover, 1) }, 72},
		{"nc-simple", clustered(layout.DedicatedParity),
			func(cfg Config) (Simulator, error) { return NewNonClustered(cfg, SimpleSwitchover, 1) }, 72},
		{"ib", clustered(layout.IntermixedParity),
			func(cfg Config) (Simulator, error) { return NewImprovedBandwidth(cfg, 1) }, 144},
		// dc is the "conservative floor" of Declustered.AddStreamAt: each
		// G-drive group is capped at one disk's slot budget, so two
		// groups of 25 slots admit a third of what sr does on the same
		// drives. ROADMAP item 2 derives the cap from the design's
		// replication number instead; that change edits this one number.
		{"dc", func(t *testing.T) *rig { return newDeclusteredRig(t, d, g, c, titles, groupsEach) },
			func(cfg Config) (Simulator, error) { return NewDeclustered(cfg) }, 50},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.rig(t)
			e, err := tc.build(r.config())
			if err != nil {
				t.Fatal(err)
			}
			if err := e.FailDisk(0); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
			admitted := 0
			for ; admitted < 10_000; admitted++ {
				if _, err := e.AddStream(r.object(t, admitted%titles)); err != nil {
					break
				}
			}
			if admitted != tc.want {
				t.Errorf("%s admits %d streams with one drive down, want %d", tc.name, admitted, tc.want)
			}
		})
	}
}
