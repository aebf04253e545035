package trace

import (
	"strings"
	"testing"
)

const ts = 4 // track size for tests

func content(id string, tracks int) []byte {
	out := make([]byte, tracks*ts)
	for i := range out {
		out[i] = byte(i) ^ id[0]
	}
	return out
}

// track returns a correct delivery of track i of c.
func track(c []byte, i int) []byte { return append([]byte(nil), c[i*ts:(i+1)*ts]...) }

func TestNewRecorderValidation(t *testing.T) {
	c := content("a", 1)
	for _, size := range []int{0, -ts} {
		if err := CheckTrack(c, size, 0, track(c, 0)); err == nil {
			t.Errorf("track size %d accepted", size)
		}
	}
	if err := CheckTrack(c, ts, 0, track(c, 0)[:ts-1]); err == nil {
		t.Error("short delivery accepted")
	}
}

func TestHappyPath(t *testing.T) {
	c := content("a", 3)
	for i := 0; i < 3; i++ {
		if err := CheckTrack(c, ts, i, track(c, i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestIntegrityCatchesCorruption(t *testing.T) {
	c := content("a", 3)
	bad := track(c, 0)
	bad[1] ^= 0xFF
	err := CheckTrack(c, ts, 0, bad)
	if err == nil || !strings.Contains(err.Error(), "content differs") {
		t.Fatalf("corruption not caught: %v", err)
	}
	// The right bytes at the wrong position are corrupt too.
	if err := CheckTrack(c, ts, 1, track(c, 0)); err == nil {
		t.Fatal("track 0's bytes accepted as track 1")
	}
}

func TestIntegrityUnknownObject(t *testing.T) {
	// A title the catalog does not hold has no content to match.
	if err := CheckTrack(nil, ts, 0, make([]byte, ts)); err == nil {
		t.Fatal("unknown object not caught")
	}
}

func TestIntegrityBeyondContent(t *testing.T) {
	c := content("a", 3)
	for _, tr := range []int{3, 99, -1} {
		if err := CheckTrack(c, ts, tr, make([]byte, ts)); err == nil {
			t.Fatalf("out-of-range track %d not caught", tr)
		}
	}
}

func TestIntegrityPaddedFinalTrack(t *testing.T) {
	// The object is 1.5 tracks long; track 1 is half content, half zero
	// padding.
	c := content("s", 2)[:6]
	want := make([]byte, ts)
	copy(want, c[4:6])
	if err := CheckTrack(c, ts, 1, want); err != nil {
		t.Fatal(err)
	}
	want[ts-1] = 1
	if err := CheckTrack(c, ts, 1, want); err == nil || !strings.Contains(err.Error(), "padding") {
		t.Fatalf("non-zero padding not caught: %v", err)
	}
}
