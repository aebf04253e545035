package workload

import (
	"bytes"
	"fmt"
	"math/rand"
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
		63, 64, 65,
		4095, 4096, 4097,
		3_750_000, 3<<20 + 7,
	}
	for _, id := range []string{"", "a", "title3"} {
		for _, size := range sizes {
			want := serialContent(id, size)
			if got := SyntheticContent(id, size); !bytes.Equal(got, want) {
				t.Fatalf("SyntheticContent(%q, %d): first difference at byte %d", id, size, firstDiff(got, want))
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

// serialBlock is the block after state x and the state after it, by
// serial steps.
func serialBlock(x uint64) ([blockLen]byte, uint64) {
	var b [blockLen]byte
	for i := range b {
		x = step(x)
		b[i] = byte(x)
	}
	return b, x
}

// TestBlockTable checks every table entry, and the XOR of one entry per
// byte for random states, against serial stepping.
func TestBlockTable(t *testing.T) {
	tableOnce.Do(buildTable)
	block := func(x uint64) ([blockLen]byte, uint64) {
		var b [blockLen]byte
		var nx uint64
		for j := range table.rows {
			v := byte(x >> (8 * j))
			for k, w := range table.rows[j][v] {
				for i := range 8 {
					b[8*k+i] ^= byte(w >> (8 * i))
				}
			}
			nx ^= table.next[j][v]
		}
		return b, nx
	}
	check := func(x uint64) {
		t.Helper()
		want, wantNext := serialBlock(x)
		if got, next := block(x); got != want || next != wantNext {
			t.Fatalf("state %#x: table block %x next %#x, want %x next %#x", x, got, next, want, wantNext)
		}
	}
	for j := range 8 {
		for v := range 256 {
			check(uint64(v) << (8 * j))
		}
	}
	r := rand.New(rand.NewSource(45))
	for range 10_000 {
		check(r.Uint64())
	}
	check(seed(""))
	check(^uint64(0))
}

func FuzzSyntheticContent(f *testing.F) {
	f.Add("", uint16(0))
	f.Add("a", uint16(blockLen-1))
	f.Add("title3", uint16(blockLen+1))
	f.Add("title9", uint16(4097))
	f.Add("big-buck-bunny", uint16(65535))
	f.Fuzz(func(t *testing.T, id string, size uint16) {
		want := serialContent(id, int(size))
		if got := SyntheticContent(id, int(size)); !bytes.Equal(got, want) {
			t.Fatalf("SyntheticContent(%q, %d): first difference at byte %d", id, size, firstDiff(got, want))
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
