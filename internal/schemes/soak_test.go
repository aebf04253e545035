package schemes

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ftmm/internal/layout"
	"ftmm/internal/rebuild"
	"ftmm/internal/trace"
)

// The soak test drives every scheme through randomized failure/repair
// schedules and asserts the paper's hard guarantees hold throughout:
// every delivered byte is exactly the stored byte (reconstruction never
// fabricates data), streams never stall or reorder, nothing leaks, and
// the schemes that promise zero hiccups under single failures keep that
// promise.
func TestSoakRandomFailures(t *testing.T) {
	type build func(r *rig) (Simulator, error)
	cases := []struct {
		name        string
		placement   layout.Placement
		build       build
		allowHiccup bool // NC may lose tracks in transitions
	}{
		{"StreamingRAID", layout.DedicatedParity, func(r *rig) (Simulator, error) {
			return NewStreamingRAID(r.config())
		}, false},
		{"StaggeredGroup", layout.DedicatedParity, func(r *rig) (Simulator, error) {
			return NewStaggeredGroup(r.config())
		}, false},
		{"NonClusteredSimple", layout.DedicatedParity, func(r *rig) (Simulator, error) {
			return NewNonClustered(r.config(), SimpleSwitchover, 4)
		}, true},
		{"NonClusteredAlternate", layout.DedicatedParity, func(r *rig) (Simulator, error) {
			return NewNonClustered(r.config(), AlternateSwitchover, 4)
		}, true},
		{"ImprovedBandwidth", layout.IntermixedParity, func(r *rig) (Simulator, error) {
			cfg := r.config()
			return NewImprovedBandwidth(cfg, 4)
		}, false},
	}
	for _, tc := range cases {
		for seed := int64(0); seed < 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				soakOnce(t, seed, tc.placement, tc.build, tc.allowHiccup)
			})
		}
	}
}

func soakOnce(t *testing.T, seed int64, placement layout.Placement, build func(*rig) (Simulator, error), allowHiccup bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const nObjects, groups = 6, 30
	r := newRig(t, 20, 5, nObjects, groups, placement)
	e, err := build(r)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trace.NewRecorder(r.content, int(r.farm.Params().TrackSize))
	if err != nil {
		t.Fatal(err)
	}

	streams := map[int]string{}
	for i := 0; i < nObjects; i++ {
		obj := r.object(t, i)
		id, err := e.AddStream(obj)
		if err != nil {
			t.Fatalf("admitting stream %d: %v", i, err)
		}
		streams[id] = obj.ID
		// Stagger: one admission per cycle.
		rep, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		rec.Observe(rep)
	}

	// Randomized failure/repair schedule: at most one failed drive at a
	// time (the single-failure regime every scheme must tolerate).
	failedDrive := -1
	failures, repairs := 0, 0
	for cycle := 0; e.Active() > 0 && cycle < 5000; cycle++ {
		switch {
		case failedDrive < 0 && rng.Intn(10) == 0:
			failedDrive = rng.Intn(r.farm.Size())
			if err := e.FailDisk(failedDrive); err != nil {
				t.Fatal(err)
			}
			failures++
		case failedDrive >= 0 && rng.Intn(12) == 0:
			if err := repairDrive(e, r, failedDrive); err != nil {
				t.Fatalf("repairing drive %d: %v", failedDrive, err)
			}
			failedDrive = -1
			repairs++
		}
		rep, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		rec.Observe(rep)
		if len(rep.Terminated) > 0 {
			t.Fatalf("cycle %d: streams terminated under single-failure regime: %v", rep.Cycle, rep.Terminated)
		}
	}
	if e.Active() != 0 {
		t.Fatal("streams still active after soak bound")
	}
	if failures == 0 {
		t.Fatal("soak injected no failures; lower the odds")
	}

	// Hard guarantees.
	if err := rec.VerifyIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
	if err := rec.VerifyContinuity(); err != nil {
		t.Fatalf("continuity: %v", err)
	}
	if err := rec.VerifyComplete(streams); err != nil {
		t.Fatalf("completeness: %v", err)
	}
	sum := rec.Summarize()
	if !allowHiccup && sum.Hiccups != 0 {
		t.Fatalf("%d hiccups despite full masking scheme (failures=%d repairs=%d): %+v",
			sum.Hiccups, failures, repairs, rec.Hiccups())
	}
	if allowHiccup {
		// NC may lose at most C-1 tracks per stream per transition.
		bound := failures * 5 * len(streams)
		if sum.Hiccups > bound {
			t.Fatalf("hiccups %d exceed transition bound %d", sum.Hiccups, bound)
		}
	}
	if sum.Reconstructed == 0 && failures > 0 && sum.Hiccups == 0 {
		// Failures occurred, nothing lost: reconstruction must have
		// happened somewhere (unless only parity drives failed — too
		// unlikely across 3 seeds to ignore silently).
		t.Log("note: no reconstructions recorded (all failures on parity drives?)")
	}
	if leak := bufferInUse(e); leak != 0 {
		t.Fatalf("buffer leak: %d tracks still held", leak)
	}
}

// repairDrive is an instant repair the way the server does one: replace
// the drive, run the online rebuilder with an unbounded budget, tell the
// engine (NC must release its buffer server).
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
	if n, ok := e.(interface{ OnDriveRebuilt(int) error }); ok {
		return n.OnDriveRebuilt(id)
	}
	return nil
}

// bufferInUse reads the current occupancy off any engine.
func bufferInUse(e Simulator) int {
	switch v := e.(type) {
	case *StreamingRAID:
		return v.BufferInUse()
	case *StaggeredGroup:
		return v.BufferInUse()
	case *NonClustered:
		return v.BufferInUse()
	case *ImprovedBandwidth:
		return v.BufferInUse()
	default:
		return 0
	}
}
