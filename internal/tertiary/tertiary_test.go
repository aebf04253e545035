package tertiary

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ftmm/internal/units"
)

func newTestLibrary(t *testing.T) *Library {
	t.Helper()
	l, err := NewLibrary(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewLibraryValidation(t *testing.T) {
	if _, err := NewLibrary(Config{MountLatency: -1, DriveRate: 1}); err == nil {
		t.Error("negative latency accepted")
	}
	if _, err := NewLibrary(Config{MountLatency: 1, DriveRate: 0}); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestStoreFetchRoundTrip(t *testing.T) {
	l := newTestLibrary(t)
	content := bytes.Repeat([]byte{0xA5}, 1000)
	if err := l.Store("movie", 3, content); err != nil {
		t.Fatal(err)
	}
	if !l.Has("movie") || l.Has("other") {
		t.Fatal("Has broken")
	}
	if n, err := l.Size("movie"); err != nil || n != 1000 {
		t.Fatalf("Size = %v,%v", n, err)
	}
	got, cost, err := l.Fetch("movie")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content differs")
	}
	// Cost = 60 s mount + 1000 B at 0.5 MB/s = 60.002 s.
	want := 60*time.Second + 2*time.Millisecond
	if d := cost - want; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("cost = %v, want ~%v", cost, want)
	}
	if l.BusyTime() != cost {
		t.Fatalf("busy = %v, want %v", l.BusyTime(), cost)
	}
	if l.Objects() != 1 {
		t.Fatalf("Objects = %d", l.Objects())
	}
}

func TestStoreCopies(t *testing.T) {
	l := newTestLibrary(t)
	buf := []byte{1, 2, 3}
	if err := l.Store("x", 0, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99
	got, _, _ := l.Fetch("x")
	if got[0] != 1 {
		t.Fatal("Store did not copy")
	}
}

func TestStoreErrors(t *testing.T) {
	l := newTestLibrary(t)
	if err := l.Store("", 0, []byte{1}); err == nil {
		t.Error("empty id accepted")
	}
	if err := l.Store("x", -1, []byte{1}); err == nil {
		t.Error("negative tape accepted")
	}
	if err := l.Store("x", 0, nil); err == nil {
		t.Error("empty content accepted")
	}
}

func TestFetchRange(t *testing.T) {
	l := newTestLibrary(t)
	content := make([]byte, 100)
	for i := range content {
		content[i] = byte(i)
	}
	if err := l.Store("x", 0, content); err != nil {
		t.Fatal(err)
	}
	got, _, err := l.FetchRange("x", 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content[10:30]) {
		t.Fatal("range content differs")
	}
	// length < 0 reads to the end.
	got, _, err = l.FetchRange("x", 90, -1)
	if err != nil || len(got) != 10 {
		t.Fatalf("tail fetch = %d bytes, %v", len(got), err)
	}
	if _, _, err := l.FetchRange("x", -1, 5); err == nil {
		t.Error("negative offset accepted")
	}
	if _, _, err := l.FetchRange("x", 101, 1); err == nil {
		t.Error("offset beyond end accepted")
	}
	if _, _, err := l.FetchRange("x", 95, 10); err == nil {
		t.Error("range beyond end accepted")
	}
	if _, _, err := l.FetchRange("nope", 0, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing object: %v", err)
	}
}

func TestPlanCostSharesMounts(t *testing.T) {
	l := newTestLibrary(t)
	content := make([]byte, 1_000_000)
	for _, obj := range []struct {
		id   string
		tape int
	}{{"a", 0}, {"b", 0}, {"c", 1}} {
		if err := l.Store(obj.id, obj.tape, content); err != nil {
			t.Fatal(err)
		}
	}
	needs := []Need{
		{ObjectID: "a", Offset: 0, Length: 500_000},
		{ObjectID: "b", Offset: 0, Length: 500_000},
		{ObjectID: "c", Offset: 0, Length: 500_000},
	}
	cost, err := l.PlanCost(needs)
	if err != nil {
		t.Fatal(err)
	}
	// Two tapes (a,b share tape 0) => 2 mounts + 1.5 MB at 0.5 MB/s = 3 s.
	want := 2*60*time.Second + 3*time.Second
	if d := cost - want; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("plan cost = %v, want %v", cost, want)
	}
	// Errors propagate.
	if _, err := l.PlanCost([]Need{{ObjectID: "zzz"}}); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing object in plan: %v", err)
	}
	if _, err := l.PlanCost([]Need{{ObjectID: "a", Offset: 0, Length: 2_000_000}}); err == nil {
		t.Error("oversized range in plan accepted")
	}
}

// The property the paper's architecture depends on: staging from tape is
// orders of magnitude slower than the stream it feeds, so objects cannot
// be served from tertiary directly.
func TestTertiaryIsSlowerThanDelivery(t *testing.T) {
	l := newTestLibrary(t)
	size := 10 * units.MB
	content := make([]byte, size)
	if err := l.Store("clip", 0, content); err != nil {
		t.Fatal(err)
	}
	_, cost, err := l.Fetch("clip")
	if err != nil {
		t.Fatal(err)
	}
	playTime := units.MPEG1.TimeFor(size)
	if cost < playTime {
		t.Fatalf("tertiary fetch (%v) faster than playback (%v); model broken", cost, playTime)
	}
}

func TestTapesOf(t *testing.T) {
	l := newTestLibrary(t)
	_ = l.Store("a", 2, []byte{1})
	_ = l.Store("b", 0, []byte{1})
	_ = l.Store("c", 2, []byte{1})
	tapes, err := l.TapesOf([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tapes) != 2 || tapes[0] != 0 || tapes[1] != 2 {
		t.Fatalf("TapesOf = %v", tapes)
	}
	if _, err := l.TapesOf([]string{"zzz"}); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing object: %v", err)
	}
}

// Fetch and FetchRange lend views of the archive: capacity clipped so an
// append reallocates instead of reaching the library, and untouched by a
// later re-Store of the same ID (the archive replaces, never overwrites).
func TestFetchLendsClippedView(t *testing.T) {
	l := newTestLibrary(t)
	content := make([]byte, 100)
	for i := range content {
		content[i] = byte(i)
	}
	if err := l.Store("x", 0, content); err != nil {
		t.Fatal(err)
	}
	whole, _, err := l.Fetch("x")
	if err != nil {
		t.Fatal(err)
	}
	part, _, err := l.FetchRange("x", 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string][]byte{"Fetch": whole, "FetchRange": part} {
		if cap(v) != len(v) {
			t.Errorf("%s view has cap %d, len %d", name, cap(v), len(v))
		}
	}
	_ = append(part, 0xEE) // would land on archive byte 30 were cap not clipped
	if again, _, _ := l.Fetch("x"); again[30] != 30 {
		t.Fatalf("an append to a view reached the library: byte 30 = %#x", again[30])
	}
	if err := l.Store("x", 0, bytes.Repeat([]byte{0xFF}, 100)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole, content) || !bytes.Equal(part, content[10:30]) {
		t.Fatal("a lent view changed after a re-Store")
	}
}
