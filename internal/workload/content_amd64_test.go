package workload

import (
	"bytes"
	"math/rand"
	"testing"

	"ftmm/internal/cpu"
)

// TestBlocksAVX2MatchesGo is the differential test of the two block
// kernels: the same states, the same block counts, the same bytes and
// end state.
func TestBlocksAVX2MatchesGo(t *testing.T) {
	if !cpu.HasAVX2 {
		t.Skip("no AVX2")
	}
	tableOnce.Do(buildTable)
	r := rand.New(rand.NewSource(46))
	for _, n := range []int{0, 1, 2, 3, 64, 1000} {
		for range 20 {
			x := r.Uint64()
			want := make([]byte, n*blockLen)
			wantX := blocksGo(want, x)
			// One byte of slack on each side catches a store outside out.
			buf := make([]byte, n*blockLen+2)
			got := buf[1 : 1+n*blockLen]
			gotX := blocksAVX2(got, x, &table)
			if !bytes.Equal(got, want) || gotX != wantX {
				t.Fatalf("state %#x, %d blocks: AVX2 end state %#x, Go %#x; first difference at byte %d",
					x, n, gotX, wantX, firstDiff(got, want))
			}
			if buf[0] != 0 || buf[len(buf)-1] != 0 {
				t.Fatalf("state %#x, %d blocks: AVX2 wrote outside out", x, n)
			}
		}
	}
}
