package buffer

import (
	"sync"
	"testing"
)

func TestArenaGetPut(t *testing.T) {
	a := NewArena(128)
	if a.TrackSize() != 128 {
		t.Fatalf("TrackSize = %d, want 128", a.TrackSize())
	}
	b := a.Get()
	if len(b) != 128 {
		t.Fatalf("Get returned %d bytes, want 128", len(b))
	}
	for i := range b {
		b[i] = 0xAB
	}
	a.Put(b)
	z := a.GetZeroed()
	if len(z) != 128 {
		t.Fatalf("GetZeroed returned %d bytes, want 128", len(z))
	}
	for i, v := range z {
		if v != 0 {
			t.Fatalf("GetZeroed byte %d = %#x, want 0", i, v)
		}
	}
	gets, puts, _ := a.Stats()
	if gets != 2 || puts != 1 {
		t.Fatalf("Stats = (%d gets, %d puts), want (2, 1)", gets, puts)
	}
}

func TestArenaRejectsWrongSize(t *testing.T) {
	a := NewArena(64)
	a.Put(nil)
	a.Put(make([]byte, 63))
	a.Put(make([]byte, 65))
	if _, puts, _ := a.Stats(); puts != 0 {
		t.Fatalf("puts = %d, want 0 (all rejected)", puts)
	}
}

func TestArenaNilSafe(t *testing.T) {
	var a *Arena
	if b := a.Get(); b != nil {
		t.Fatal("nil arena Get returned a buffer")
	}
	a.Put(make([]byte, 10))
	if a.TrackSize() != 0 {
		t.Fatal("nil arena TrackSize != 0")
	}
	if g, p, n := a.Stats(); g != 0 || p != 0 || n != 0 {
		t.Fatal("nil arena has stats")
	}
}

// TestArenaConcurrent hammers Get/Put, and Share/Release through the
// Ref header free list, from many goroutines; run with -race in CI to
// cover the free-list paths.
func TestArenaConcurrent(t *testing.T) {
	a := NewArena(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := a.Get()
				for j := range b {
					b[j] = seed
				}
				for j := range b {
					if b[j] != seed {
						t.Errorf("buffer shared between goroutines")
						return
					}
				}
				if i%2 == 0 {
					a.Put(b)
					continue
				}
				ref := a.Share(b)
				ref.Retain()
				ref.Release()
				ref.Release()
			}
		}(byte(g))
	}
	wg.Wait()
	if got := a.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d after balanced use, want 0", got)
	}
}

// TestArenaSteadyStateAllocs checks that a Get/Put cycle in steady state
// allocates nothing: the free list boxes nothing on Put and, unlike a
// sync.Pool, is not emptied by a garbage collection.
func TestArenaSteadyStateAllocs(t *testing.T) {
	a := NewArena(50_000)
	a.Put(a.Get()) // warm the free list
	n := testing.AllocsPerRun(100, func() {
		a.Put(a.Get())
	})
	if n != 0 {
		t.Errorf("steady-state Get/Put allocates %.1f per run, want 0", n)
	}
	if _, _, news := a.Stats(); news != 1 {
		t.Errorf("news = %d, want 1 (growth only)", news)
	}
}

// TestArenaLIFO pins the free list's order: the buffer returned last is
// handed out first.
func TestArenaLIFO(t *testing.T) {
	a := NewArena(8)
	b1, b2 := a.Get(), a.Get()
	a.Put(b1)
	a.Put(b2)
	if got := a.Get(); &got[0] != &b2[0] {
		t.Fatal("Get did not return the most recently Put buffer")
	}
	if got := a.Get(); &got[0] != &b1[0] {
		t.Fatal("second Get did not return the older buffer")
	}
}
