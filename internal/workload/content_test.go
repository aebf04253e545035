package workload

import (
	"bytes"
	"fmt"
	"testing"
)

// serialContent is SyntheticContent as it was first written, one byte per
// dependent step: the reference every faster form must match byte for
// byte.
func serialContent(id string, size int) []byte {
	out := make([]byte, size)
	// A tiny xorshift-style stream seeded from the id.
	var seed uint64 = 1469598103934665603
	for _, b := range []byte(id) {
		seed ^= uint64(b)
		seed *= 1099511628211
	}
	x := seed
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = byte(x)
	}
	return out
}

func TestSyntheticContentMatchesSerial(t *testing.T) {
	sizes := []int{
		0, 1, 7, 8,
		lanes*minLane - 1, lanes * minLane, lanes*minLane + 1,
		splitMin - 1, splitMin, splitMin + 1,
		3_750_000, 3<<20 + 7,
	}
	for _, id := range []string{"", "a", "title3"} {
		for _, size := range sizes {
			want := serialContent(id, size)
			if got := SyntheticContent(id, size); !bytes.Equal(got, want) {
				t.Fatalf("SyntheticContent(%q, %d): first difference at byte %d", id, size, firstDiff(got, want))
			}
			// The split over goroutines, at part counts the test's
			// GOMAXPROCS may not reach.
			for _, n := range []int{2, 3, 5} {
				got := make([]byte, size)
				synthesize(got, seed(id), n)
				if !bytes.Equal(got, want) {
					t.Fatalf("%q, %d bytes in %d parts: first difference at byte %d", id, size, n, firstDiff(got, want))
				}
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func TestSyntheticContentJumpAhead(t *testing.T) {
	for _, x := range []uint64{seed(""), seed("title3"), 1, 1 << 63} {
		s := x
		for n := uint64(0); n <= 1000; n++ {
			if got := jump(x, n); got != s {
				t.Fatalf("jump(%#x, %d) = %#x, want %#x (%d serial steps)", x, n, got, s, n)
			}
			s = step(s)
		}
		for _, a := range []uint64{0, 1, 2, 63, 64, 1000, 1 << 40} {
			for _, b := range []uint64{0, 1, 2, 63, 64, 1000, 3_750_000} {
				if got, want := jump(jump(x, a), b), jump(x, a+b); got != want {
					t.Fatalf("jump(jump(%#x, %d), %d) = %#x, want jump(x, %d) = %#x", x, a, b, got, a+b, want)
				}
			}
		}
	}
}

func FuzzSyntheticContent(f *testing.F) {
	f.Add("", uint16(0), uint8(1))
	f.Add("a", uint16(lanes*minLane), uint8(2))
	f.Add("title3", uint16(lanes*minLane+1), uint8(3))
	f.Add("big-buck-bunny", uint16(65535), uint8(8))
	f.Fuzz(func(t *testing.T, id string, size uint16, n uint8) {
		want := serialContent(id, int(size))
		if got := SyntheticContent(id, int(size)); !bytes.Equal(got, want) {
			t.Fatalf("SyntheticContent(%q, %d): first difference at byte %d", id, size, firstDiff(got, want))
		}
		got := make([]byte, size)
		synthesize(got, seed(id), int(n%8)+1)
		if !bytes.Equal(got, want) {
			t.Fatalf("%q, %d bytes in %d parts: first difference at byte %d", id, size, n%8+1, firstDiff(got, want))
		}
	})
}

// BenchmarkSyntheticContent makes one cluster-paced title: 3.75 MB.
func BenchmarkSyntheticContent(b *testing.B) {
	const size = 3_750_000
	b.SetBytes(size)
	for i := 0; i < b.N; i++ {
		SyntheticContent(fmt.Sprint("title", i%24), size)
	}
}
