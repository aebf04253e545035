//go:build !amd64

package parity

// haveAVX2 is false off amd64: fold is the portable chain throughout.
const haveAVX2 = false

// fold sets dst = srcs[0] ⊕ … ⊕ srcs[k-1]; see fold_amd64.go for the
// contract.
func fold(dst []byte, srcs [][]byte) { foldPortable(dst, srcs, 0) }
