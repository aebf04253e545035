package parity

// haveAVX2 reports whether the CPU and the OS both support AVX2: the
// CPU sets the AVX2 feature bit (leaf 7) and the OS has enabled the XMM
// and YMM register state (OSXSAVE, then XCR0 bits 1 and 2). It is
// decided once, at package initialisation.
var haveAVX2 = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}()

// fold sets dst = srcs[0] ⊕ srcs[1] ⊕ … ⊕ srcs[k-1] in one pass over
// dst. The caller guarantees k ≥ 1 and that every source is len(dst)
// bytes long; dst may alias srcs[0] but no other source. With AVX2 the
// 128-byte chunks go through foldAVX2 and the tail through the portable
// chain; without it the portable chain does it all.
func fold(dst []byte, srcs [][]byte) {
	n := 0
	if haveAVX2 {
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

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of extended control register 0 (XCR0).
func xgetbv() (eax uint32)
