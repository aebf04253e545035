//go:build !race

package catalog

import (
	"runtime"
	"testing"

	"ftmm/internal/disk"
	"ftmm/internal/diskmodel"
	"ftmm/internal/layout"
	"ftmm/internal/tertiary"
	"ftmm/internal/units"
	"ftmm/internal/workload"
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

// The copy count as a gate: the drives keep the tape view's slices, so
// staging a title allocates only what the writer builds — one parity
// track per group and the zero-padded tail track — and nothing else of
// any size. A copy anywhere between the tape view and the platter (a
// Fetch that clones, a WriteTrack that copies, a writer that builds
// every track) multiplies the figure by the group width.
func TestEnsureAllocatesOnlyParity(t *testing.T) {
	const groups, c = 60, 5
	p := diskmodel.Table1()
	p.Capacity = units.ByteSize(groups) * p.TrackSize
	trackSize := int(p.TrackSize)
	lib, err := tertiary.NewLibrary(tertiary.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The last track is half full, so the tail track is built too.
	size := groups*(c-1)*trackSize - trackSize/2
	if err := lib.Store("title", 0, workload.SyntheticContent("title", size)); err != nil {
		t.Fatal(err)
	}
	farm, err := disk.NewFarm(2*c, c, p)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := layout.ForFarm(farm, layout.DedicatedParity)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := New(lib, farm, lay)
	if err != nil {
		t.Fatal(err)
	}
	perTrack := trackCost(trackSize)

	got := allocated(func() {
		if _, _, err = cat.Ensure("title", units.MPEG1); err != nil {
			t.Fatal(err)
		}
	})
	var written uint64
	for i := 0; i < farm.Size(); i++ {
		drv, _ := farm.Drive(i)
		_, w := drv.Counters()
		written += uint64(w)
	}
	if written != groups*c {
		t.Fatalf("staged %d tracks, want %d", written, groups*c)
	}
	if budget := (groups+2)*perTrack + 64<<10; got > budget {
		t.Fatalf("staging %d tracks in %d groups allocated %d bytes = %.2f tracks, budget %d",
			written, groups, got, float64(got)/float64(perTrack), budget)
	}
}
