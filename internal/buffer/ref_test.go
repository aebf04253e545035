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

// TestRefLend pins the lent kind: the view counts as outstanding until
// its last Release, which drops it without ever entering the free list,
// and the arena's get/put counters never see it.
func TestRefLend(t *testing.T) {
	a := NewArena(8)
	view := []byte("platter!")
	ref := a.Lend(view)
	if &ref.Bytes()[0] != &view[0] {
		t.Fatal("Lend copied the view")
	}
	ref.Retain()
	ref.Release()
	if got := a.Outstanding(); got != 1 {
		t.Fatalf("Outstanding with a lent ref held = %d, want 1", got)
	}
	ref.Release()
	if got := a.Outstanding(); got != 0 {
		t.Fatalf("Outstanding after final Release = %d, want 0", got)
	}
	if gets, puts, news := a.Stats(); gets != 0 || puts != 0 || news != 0 {
		t.Fatalf("Stats = (%d, %d, %d), want zeros: a lent view is no arena traffic", gets, puts, news)
	}
	if buf := a.Get(); &buf[0] == &view[0] {
		t.Fatal("released view was handed out by Get")
	}

	// A recycled header must forget it was lent.
	shared := a.Share(a.Get())
	shared.Release()
	if _, puts, _ := a.Stats(); puts != 1 {
		t.Fatalf("puts = %d after releasing a shared buffer, want 1", puts)
	}

	var nilArena *Arena
	nilArena.Lend(view).Release() // must not panic
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
