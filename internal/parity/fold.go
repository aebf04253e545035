package parity

import "crypto/subtle"

// foldPortable sets dst[off:] = srcs[0][off:] ⊕ … ⊕ srcs[k-1][off:] with
// the crypto/subtle.XORBytes chain: the first pair in one pass, then one
// pass per further source. It is fold wherever the AVX2 loop does not
// run and the tail of every fold where it does. The caller guarantees
// k ≥ 1 and that every source is len(dst) bytes long.
func foldPortable(dst []byte, srcs [][]byte, off int) {
	d := dst[off:]
	if len(srcs) == 1 {
		copy(d, srcs[0][off:])
		return
	}
	subtle.XORBytes(d, srcs[0][off:], srcs[1][off:])
	for _, s := range srcs[2:] {
		subtle.XORBytes(d, d, s[off:])
	}
}
