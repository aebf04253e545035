//go:build !amd64

package parity

// fold sets dst = srcs[0] ⊕ … ⊕ srcs[k-1]; see fold_amd64.go for the
// contract.
func fold(dst []byte, srcs [][]byte) { foldPortable(dst, srcs, 0) }
