package cpu

// HasAVX2 reports whether the CPU and the OS both support AVX2: the
// CPU sets the AVX2 feature bit (leaf 7) and the OS has enabled the XMM
// and YMM register state (OSXSAVE, then XCR0 bits 1 and 2). It is
// decided once, at package initialisation.
var HasAVX2 = func() bool {
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

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of extended control register 0 (XCR0).
func xgetbv() (eax uint32)
