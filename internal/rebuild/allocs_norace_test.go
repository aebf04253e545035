//go:build !race

package rebuild

import (
	"runtime"
	"testing"

	"ftmm/internal/disk"
	"ftmm/internal/layout"
)

// allocated returns the heap bytes f allocates (the race detector's
// shadow allocations would count too, hence the build tag).
func allocated(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// sink keeps trackCost's allocations on the heap.
var sink []byte

// trackCost is what one track costs the heap (its size as the allocator
// rounds it): the least of three measurements, since the runtime's own
// allocations around a first GC cycle can land in one.
func trackCost(trackSize int) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		least = min(least, allocated(func() { sink = make([]byte, trackSize) }))
	}
	return least
}

// allocRig is a farm of two sixty-group titles with drive 0 failed and
// replaced: its Rebuilder, a CheckAll over it, the parity-group count
// and what one track costs the heap.
func allocRig(t *testing.T) (r *Rebuilder, check func() error, groups int, perTrack uint64) {
	t.Helper()
	farm, lay := buildFarm(t, 10, 5, func(f *disk.Farm) (*layout.Layout, error) {
		return layout.ForFarm(f, layout.DedicatedParity)
	}, 2, 60)
	failAndReplace(t, farm, 0)
	r, err := New(farm, lay, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r, func() error { return CheckAll(farm, lay) }, 2 * 60, trackCost(int(farm.Params().TrackSize))
}

// A Step allocates the track Drive.WriteTrack keeps, per
// restored track, and nothing else of track size: survivors are views and
// the fold lands in the Rebuilder's own scratch.
func TestRebuilderStepAllocs(t *testing.T) {
	r, _, _, perTrack := allocRig(t)
	const tracks = 20
	var n int
	var err error
	got := allocated(func() { n, err = r.Step(tracks * r.ReadsPerTrack()) })
	if err != nil || n != tracks {
		t.Fatalf("step restored %d of %d: %v", n, tracks, err)
	}
	if got < tracks*perTrack || got >= (tracks+1)*perTrack {
		t.Fatalf("restoring %d tracks allocated %d bytes = %.2f tracks, want the %d written and under one more",
			tracks, got, float64(got)/float64(perTrack), tracks)
	}
}

// The scrubber allocates its one scratch track per call, not per group.
func TestCheckAllAllocs(t *testing.T) {
	r, check, groups, perTrack := allocRig(t)
	if _, err := r.Run(64, 10_000); err != nil {
		t.Fatal(err)
	}
	var err error
	got := allocated(func() { err = check() })
	if err != nil {
		t.Fatal(err)
	}
	if budget := perTrack + uint64(groups)*512; got > budget {
		t.Fatalf("auditing %d groups allocated %d bytes = %.2f tracks, budget %d",
			groups, got, float64(got)/float64(perTrack), budget)
	}
}
