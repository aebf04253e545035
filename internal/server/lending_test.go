package server

import (
	"bytes"
	"sync"
	"testing"

	"ftmm/internal/analytic"
	"ftmm/internal/rebuild"
	"ftmm/internal/units"
	"ftmm/internal/workload"
)

// playExact admits one stream of the title, plays it out and requires
// every track of want, in order, bit for bit, with no hiccup. It reports
// with t.Errorf so it may run off the test's goroutine.
func playExact(t *testing.T, s *Server, id string, want []byte) {
	t.Helper()
	sid, _, err := s.Request(id)
	if err != nil {
		t.Errorf("request %s: %v", id, err)
		return
	}
	trackSize := int(s.Farm().Params().TrackSize)
	next := 0
	for cycle := 0; s.Engine().Active() > 0 && cycle < 300; cycle++ {
		rep, err := s.Step()
		if err != nil {
			t.Errorf("step: %v", err)
			return
		}
		if len(rep.Hiccups) != 0 {
			t.Errorf("hiccups: %+v", rep.Hiccups)
			return
		}
		for _, d := range rep.Delivered {
			if d.StreamID != sid {
				continue
			}
			if d.Track != next || !bytes.Equal(d.Data, want[next*trackSize:(next+1)*trackSize]) {
				t.Errorf("%s: delivery %d is track %d, or its bytes differ from the title's", id, next, d.Track)
				return
			}
			next++
		}
	}
	if next*trackSize != len(want) {
		t.Errorf("%s: %d tracks delivered, want %d", id, next, len(want)/trackSize)
	}
}

// A tape reload of one drive writes that drive and no other: every other
// platter's write counter stands still, the parity equations hold farm-
// wide, and the title plays bit-exact afterwards. Drive 0 holds data,
// drive 4 cluster 0's parity (re-encoded from the tape view).
func TestTapeReloadWritesOneDrive(t *testing.T) {
	for _, a := range []int{0, 4} {
		s, err := New(testOptions(analytic.StreamingRAID))
		if err != nil {
			t.Fatal(err)
		}
		loadTitles(t, s, 2, 16)
		trackSize := int(s.Farm().Params().TrackSize)
		want := workload.SyntheticContent("movie0", 16*trackSize)
		playExact(t, s, "movie0", want)
		playExact(t, s, "movie1", workload.SyntheticContent("movie1", 16*trackSize))

		writes := func() []int64 {
			out := make([]int64, s.Farm().Size())
			for i := range out {
				drv, _ := s.Farm().Drive(i)
				_, out[i] = drv.Counters()
			}
			return out
		}
		before := writes()
		if err := s.FailDisk(a); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RebuildFromTertiary(a); err != nil {
			t.Fatal(err)
		}
		after := writes()
		for i := range after {
			switch {
			case i != a && after[i] != before[i]:
				t.Errorf("reload of drive %d wrote %d tracks to healthy drive %d", a, after[i]-before[i], i)
			case i == a && after[i] != 2*before[i]:
				t.Errorf("reload of drive %d wrote %d tracks, want the %d it held", a, after[i]-before[i], before[i])
			}
		}
		if err := rebuild.CheckAll(s.Farm(), s.Catalog().Layout()); err != nil {
			t.Errorf("after reload of drive %d: %v", a, err)
		}
		playExact(t, s, "movie0", want)
	}
}

// AddTitle archives a copy: scribbling on the caller's slice afterwards
// changes nothing a stream delivers, before or after staging.
func TestAddTitleOwnsItsBytes(t *testing.T) {
	s, err := New(testOptions(analytic.StreamingRAID))
	if err != nil {
		t.Fatal(err)
	}
	size := 16 * int(s.Farm().Params().TrackSize)
	content := workload.SyntheticContent("movie0", size)
	want := bytes.Clone(content)
	if err := s.AddTitle("movie0", units.ByteSize(size), 0, content); err != nil {
		t.Fatal(err)
	}
	clear(content)
	playExact(t, s, "movie0", want)
	content[0] = 0xFF
	playExact(t, s, "movie0", want)
}

// Five servers staged at once from one shared content slice — what the
// cycle benchmark's rigs do with their catalog — each deliver bit-exact.
// Nothing on the staging path may write into the slice; under -race a
// write is a reported race with the other servers' reads.
func TestServersShareContent(t *testing.T) {
	opts := testOptions(analytic.StreamingRAID)
	size := 16 * int(opts.DiskParams.TrackSize)
	content := workload.SyntheticContent("movie0", size)
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := New(opts)
			if err != nil {
				t.Error(err)
				return
			}
			if err := s.AddTitle("movie0", units.ByteSize(size), 0, content); err != nil {
				t.Error(err)
				return
			}
			playExact(t, s, "movie0", content)
		}()
	}
	wg.Wait()
}
