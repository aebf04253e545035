//go:build !amd64

package cpu

// HasAVX2 is false off amd64: no kernel there has an AVX2 form.
const HasAVX2 = false
