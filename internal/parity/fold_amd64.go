package parity

import "ftmm/internal/cpu"

// fold sets dst = srcs[0] ⊕ srcs[1] ⊕ … ⊕ srcs[k-1] in one pass over
// dst. The caller guarantees k ≥ 1 and that every source is len(dst)
// bytes long; dst may alias srcs[0] but no other source. With AVX2 the
// 128-byte chunks go through foldAVX2 and the tail through the portable
// chain; without it the portable chain does it all.
func fold(dst []byte, srcs [][]byte) {
	n := 0
	if cpu.HasAVX2 {
		n = len(dst) &^ 127
		if n > 0 {
			foldAVX2(dst[:n], srcs)
		}
	}
	foldPortable(dst, srcs, n)
}

// foldAVX2 sets dst = srcs[0] ⊕ … ⊕ srcs[k-1] for len(dst) a multiple of
// 128: per 128-byte chunk it loads srcs[0] into four 32-byte registers,
// XORs every further source in and stores once. noescape keeps the
// callers' source lists on their stacks, so no entry point allocates.
//
//go:noescape
func foldAVX2(dst []byte, srcs [][]byte)
