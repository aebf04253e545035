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

// The copy count as a gate: staging a title allocates what the platters
// keep — one track per track written — plus the writer's parity scratch
// and zero-padded tail track, and nothing else of any size. A second copy
// anywhere between the tape view and Drive.WriteTrack (a Fetch that
// clones, a writer that builds every track) doubles the figure.
func TestEnsureCopiesOnce(t *testing.T) {
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
	cat, err := New(lib, farm, layout.DedicatedParity)
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
	if budget := (written+2)*perTrack + 64<<10; got > budget {
		t.Fatalf("staging %d tracks allocated %d bytes (%.2f per byte written), budget %d",
			written, got, float64(got)/float64(written*perTrack), budget)
	}
}
