package schemes

import (
	"runtime"
	"testing"

	"ftmm/internal/layout"
	"ftmm/internal/sched"
)

// cycleAllocBudget is every engine's per-Step allocation budget once
// warmed up, healthy or degraded: none. Read tracks are platter views
// and carry no Ref, made tracks and their Ref headers come off the
// arena's free lists, a failed read returns a bare sentinel error,
// group headers and per-Step scratch are recycled, report slices are
// reused, and the cycle's folds run as one batch on persistent fold
// workers, handed the batch over a channel as the Step returns, and on
// the next Step's goroutine, which waits for them. The same
// holds under -race: nothing on the path goes through a sync.Pool, which
// the detector makes drop some of what is put back.
const cycleAllocBudget = 0

// steadyStateAllocs measures allocations per Step once the engine is
// warmed up (arena populated, report slices grown); check, when non-nil,
// sees every measured Step's report.
func steadyStateAllocs(t *testing.T, e Simulator, warmup, runs int, check func(*sched.CycleReport)) float64 {
	t.Helper()
	for i := 0; i < warmup; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return allocsPerRun(runs, func() {
		rep, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if check != nil {
			check(rep)
		}
	})
}

// allocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1): that
// would fold every batch of folds inline, so a Step's spread over the
// fold workers would go unmeasured. It counts at the GOMAXPROCS the test
// runs at (-cpu), after one warm-up call, and divides as AllocsPerRun
// does.
func allocsPerRun(runs int, f func()) float64 {
	f()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&ms)
	return float64((ms.Mallocs - before) / uint64(runs))
}

// checkCycleAllocBudget admits one stream per object, plays the first
// at rate ff (fast-forward when ff > 1: it must then deliver ff groups
// every measured cycle) and holds the engine's steady-state allocations
// per Step to the budget.
func checkCycleAllocBudget(t *testing.T, e Simulator, r *rig, objects, ff int, check func(*sched.CycleReport)) {
	t.Helper()
	ids := make([]int, objects)
	for i := range ids {
		id, err := e.AddStreamAt(r.object(t, i), 0)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if ff > 1 {
		if err := e.(interface{ SetStreamRate(id, rate int) error }).SetStreamRate(ids[0], ff); err != nil {
			t.Fatal(err)
		}
		inner := check
		check = func(rep *sched.CycleReport) {
			n := 0
			for _, dl := range rep.Delivered {
				if dl.StreamID == ids[0] {
					n++
				}
			}
			if want := ff * r.lay.GroupWidth(); n != want {
				t.Fatalf("cycle %d: fast-forward stream delivered %d tracks, want %d", rep.Cycle, n, want)
			}
			if inner != nil {
				inner(rep)
			}
		}
	}
	n := steadyStateAllocs(t, e, 5, 20, check)
	t.Logf("%s steady-state allocs/cycle: %.1f", e.Name(), n)
	if n > cycleAllocBudget {
		t.Errorf("%s allocates %.1f per cycle, budget %d", e.Name(), n, cycleAllocBudget)
	}
	if e.Active() == 0 {
		t.Fatal("streams finished during measurement; grow the rig")
	}
}

// TestSRSteadyStateCycleAllocBudget pins the Streaming RAID engine's
// healthy steady-state cycle to the budget, one of its streams
// fast-forwarding at rate 2 so the per-stream group lists are reused at
// more than one group a cycle.
func TestSRSteadyStateCycleAllocBudget(t *testing.T) {
	r := newRig(t, 10, 5, 2, 60, layout.DedicatedParity)
	cfg := r.config()
	e, err := NewStreamingRAID(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCycleAllocBudget(t, e, r, 2, 2, nil)
}

// TestNCSteadyStateCycleAllocBudget pins the Non-clustered engine's
// normal-mode cycle to the budget.
func TestNCSteadyStateCycleAllocBudget(t *testing.T) {
	r := newRig(t, 10, 5, 2, 60, layout.DedicatedParity)
	cfg := r.config()
	e, err := NewNonClustered(cfg, SimpleSwitchover, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkCycleAllocBudget(t, e, r, 2, 1, nil)
}

// TestIBSteadyStateCycleAllocBudget pins the Improved-bandwidth engine's
// normal-mode cycle: group reads, their headers and the shift's scratch
// are all reused from Step to Step.
func TestIBSteadyStateCycleAllocBudget(t *testing.T) {
	r := newRig(t, 10, 5, 4, 60, layout.IntermixedParity)
	cfg := r.config()
	e, err := NewImprovedBandwidth(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkCycleAllocBudget(t, e, r, 4, 1, nil)
}

// TestDCSteadyStateCycleAllocBudget pins the Declustered engine, the
// whole-group chassis over a block-design layout, with one stream
// fast-forwarding at rate 2.
func TestDCSteadyStateCycleAllocBudget(t *testing.T) {
	r := newDeclusteredRig(t, 26, 13, 4, 4, 60)
	cfg := r.config()
	e, err := NewDeclustered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCycleAllocBudget(t, e, r, 4, 2, nil)
}

// TestSGSteadyStateCycleAllocBudget pins the Staggered-group engine:
// its read cycles stage whole groups into recycled headers, its other
// cycles only deliver.
func TestSGSteadyStateCycleAllocBudget(t *testing.T) {
	r := newRig(t, 10, 5, 2, 60, layout.DedicatedParity)
	e, err := NewStaggeredGroup(r.config())
	if err != nil {
		t.Fatal(err)
	}
	checkCycleAllocBudget(t, e, r, 2, 1, nil)
}

// degradedFolds is the fewest folds the degraded gates' rigs queue in
// their busiest measured cycle: more than one, so a batch is spread over
// the fold workers whenever GOMAXPROCS allows, and as many as -cpu 4
// can use.
const degradedFolds = 4

// checkDegradedCycleAllocBudget fails the given drives, admits one
// stream per object and holds the engine's degraded steady-state
// allocations per Step to the budget. The busiest measured cycle, or
// with everyCycle each of them, must reconstruct at least degradedFolds
// tracks, each its own fold, so the gate covers a batch run over the
// workers and not only inline.
func checkDegradedCycleAllocBudget(t *testing.T, e Simulator, r *rig, objects int, everyCycle bool, drives ...int) {
	t.Helper()
	for _, d := range drives {
		if err := e.FailDisk(d); err != nil {
			t.Fatal(err)
		}
	}
	busiest := 0
	checkCycleAllocBudget(t, e, r, objects, 1, func(rep *sched.CycleReport) {
		if everyCycle && rep.Reconstructions < degradedFolds {
			t.Fatalf("cycle %d reconstructed %d tracks, want at least %d", rep.Cycle, rep.Reconstructions, degradedFolds)
		}
		busiest = max(busiest, rep.Reconstructions)
	})
	if busiest < degradedFolds {
		t.Fatalf("busiest measured cycle reconstructed %d tracks, want at least %d", busiest, degradedFolds)
	}
}

// TestSRDegradedCycleAllocBudget pins a degraded Streaming RAID cycle to
// the same budget: with a data drive failed in each cluster, every
// stream reads around it and reconstructs every Step, four folds a
// cycle, and the failed reads, the made tracks, their Ref headers and
// the fold batch allocate nothing.
func TestSRDegradedCycleAllocBudget(t *testing.T) {
	r := newRig(t, 10, 5, 4, 60, layout.DedicatedParity)
	e, err := NewStreamingRAID(r.config())
	if err != nil {
		t.Fatal(err)
	}
	checkDegradedCycleAllocBudget(t, e, r, 4, true, 1, 6)
}

// TestDCDegradedCycleAllocBudget pins a degraded Declustered cycle: a
// drive failed in each declustering group, so the groups whose block
// holds it reconstruct.
func TestDCDegradedCycleAllocBudget(t *testing.T) {
	r := newDeclusteredRig(t, 26, 13, 4, 12, 60)
	e, err := NewDeclustered(r.config())
	if err != nil {
		t.Fatal(err)
	}
	checkDegradedCycleAllocBudget(t, e, r, 12, false, 1, 14)
}

// TestSGDegradedCycleAllocBudget pins a degraded Staggered-group cycle:
// every stream is admitted in one cycle and so shares one read phase,
// whose cycles reconstruct a track per stream; the cycles between only
// deliver.
func TestSGDegradedCycleAllocBudget(t *testing.T) {
	r := newRig(t, 10, 5, 4, 60, layout.DedicatedParity)
	e, err := NewStaggeredGroup(r.config())
	if err != nil {
		t.Fatal(err)
	}
	checkDegradedCycleAllocBudget(t, e, r, 4, false, 1, 6)
}

// TestIBDegradedCycleAllocBudget pins a degraded Improved-bandwidth
// cycle: with a drive failed in clusters 0 and 2, the groups read there
// shift to their parity on clusters 1 and 3, through the reserve, and
// reconstruct.
func TestIBDegradedCycleAllocBudget(t *testing.T) {
	r := newRig(t, 20, 5, 8, 60, layout.IntermixedParity)
	e, err := NewImprovedBandwidth(r.config(), 1)
	if err != nil {
		t.Fatal(err)
	}
	checkDegradedCycleAllocBudget(t, e, r, 8, false, 1, 11)
}

// TestNCDegradedCycleAllocBudget pins a degraded Non-clustered cycle to
// the same budget under the alternate policy: with the last data drive
// of both clusters failed and a buffer server for each, every stream
// folds a track into its XOR accumulator, the first as a copy, on three
// cycles of each pass over a cluster and reconstructs the fourth track
// on the fourth, all out of the stream's window and the arena.
func TestNCDegradedCycleAllocBudget(t *testing.T) {
	r := newRig(t, 10, 5, 4, 60, layout.DedicatedParity)
	e, err := NewNonClustered(r.config(), AlternateSwitchover, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkDegradedCycleAllocBudget(t, e, r, 4, false, 3, 8)
}

// TestNCSimpleDegradedCycleAllocBudget pins a degraded Non-clustered
// cycle under the simple policy: with the last data drive of both
// clusters failed and a buffer server for each, every stream reads its
// whole group at the group's first offset and reconstructs the failed
// drive's track, out of the core's scratch and the arena.
func TestNCSimpleDegradedCycleAllocBudget(t *testing.T) {
	r := newRig(t, 10, 5, 4, 60, layout.DedicatedParity)
	e, err := NewNonClustered(r.config(), SimpleSwitchover, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkDegradedCycleAllocBudget(t, e, r, 4, false, 3, 8)
}
