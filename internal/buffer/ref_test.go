package buffer

import "testing"

func TestRefLifecycle(t *testing.T) {
	a := NewArena(8)
	buf := a.Get()
	if got := a.Outstanding(); got != 1 {
		t.Fatalf("Outstanding after Get = %d, want 1", got)
	}

	ref := a.Share(buf)
	if &ref.Bytes()[0] != &buf[0] {
		t.Fatal("Share copied the buffer")
	}
	ref.Retain()
	ref.Release()
	if got := a.Outstanding(); got != 1 {
		t.Fatalf("Outstanding with one ref held = %d, want 1", got)
	}
	ref.Release()
	if got := a.Outstanding(); got != 0 {
		t.Fatalf("Outstanding after final Release = %d, want 0", got)
	}

	// The recycled buffer must be reachable again through the pool.
	buf2 := a.Get()
	a.Put(buf2)
	if gets, puts, _ := a.Stats(); gets != puts {
		t.Fatalf("gets %d != puts %d after balanced use", gets, puts)
	}
}

func TestRefNilArena(t *testing.T) {
	var a *Arena
	ref := a.Share(make([]byte, 4))
	ref.Retain()
	ref.Release()
	ref.Release() // must not panic; slice just drops to the GC
	if got := a.Outstanding(); got != 0 {
		t.Fatalf("nil arena Outstanding = %d", got)
	}
}

// TestRefHeadersRecycled pins the header free list: a released Ref's
// header is the next Share's, so a steady Share/Release cycle allocates
// nothing, under -race too (a sync.Pool there drops a share of what is
// put back).
func TestRefHeadersRecycled(t *testing.T) {
	a := NewArena(8)
	first := a.Share(a.Get())
	first.Release()
	again := a.Share(a.Get())
	if again != first {
		t.Fatal("Share did not reuse the released header")
	}
	again.Release()
	n := testing.AllocsPerRun(100, func() {
		a.Share(a.Get()).Release()
	})
	if n != 0 {
		t.Errorf("steady-state Share/Release allocates %.1f per run, want 0", n)
	}
	if got := a.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d after balanced use, want 0", got)
	}
}

func TestRefOverRelease(t *testing.T) {
	a := NewArena(8)
	ref := a.Share(a.Get())
	ref.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Release past zero did not panic")
		}
	}()
	ref.Release()
}
