package server

import (
	"testing"

	"ftmm/internal/analytic"
)

// Cancel stops a stream mid-playback: its title unpins (evictable), its
// buffers return, and the farm keeps serving others cleanly.
func TestCancelStream(t *testing.T) {
	for _, scheme := range analytic.Schemes() {
		s, err := New(testOptions(scheme))
		if err != nil {
			t.Fatal(err)
		}
		loadTitles(t, s, 2, 16)
		id0, _, err := s.Request("movie0")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		id1, _, err := s.Request("movie1")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunFor(3); err != nil {
			t.Fatal(err)
		}
		if err := s.Cancel(id0); err != nil {
			t.Fatalf("%v: cancel: %v", scheme, err)
		}
		// Cancelled title is unpinned.
		if n, err := s.Catalog().Pins("movie0"); err != nil || n != 0 {
			t.Fatalf("%v: pins after cancel = %d, %v", scheme, n, err)
		}
		// Double cancel fails.
		if err := s.Cancel(id0); err == nil {
			t.Fatalf("%v: double cancel accepted", scheme)
		}
		if err := s.RunUntilIdle(300); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.Hiccups != 0 {
			t.Fatalf("%v: hiccups after cancel: %d", scheme, st.Hiccups)
		}
		if st.Finished != 1 {
			t.Fatalf("%v: finished = %d, want 1 (the uncancelled stream)", scheme, st.Finished)
		}
		// No buffer leak from the cancelled stream.
		if s.Engine().BufferPeak() > 0 && bufferInUseOf(s) != 0 {
			t.Fatalf("%v: buffers leaked after cancel", scheme)
		}
		_ = id1
	}
}

// bufferInUseOf reads occupancy off any engine type.
func bufferInUseOf(s *Server) int {
	type inUse interface{ BufferInUse() int }
	if v, ok := s.Engine().(inUse); ok {
		return v.BufferInUse()
	}
	return 0
}
