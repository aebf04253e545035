package workload

import "ftmm/internal/cpu"

// blocks writes the stream from state x into out, whose length is a
// multiple of blockLen, and returns the state after its last byte:
// through blocksAVX2 where the CPU has AVX2, blocksGo otherwise. The
// caller has built table.
func blocks(out []byte, x uint64) uint64 {
	if cpu.HasAVX2 {
		return blocksAVX2(out, x, &table)
	}
	return blocksGo(out, x)
}

// blocksAVX2 is blocksGo with each block's eight row XORs done in two
// 32-byte registers: two loads of the first row, then one VPXOR per
// further row half, and two stores.
//
//go:noescape
func blocksAVX2(out []byte, x uint64, t *blockTable) uint64
