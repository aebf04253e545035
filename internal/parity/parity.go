// Package parity implements the bitwise exclusive-or redundancy the
// paper's schemes rely on: a parity group is C-1 equally sized data
// blocks plus one parity block XOp = X0 ⊕ X1 ⊕ … ⊕ X(C-2), from which any
// single missing block can be reconstructed on the fly.
//
// The package operates on real bytes so that the simulation layers above
// it can verify, bit for bit, that data delivered during degraded-mode
// operation equals the data that was stored.
//
// Every entry point — XORInto, EncodeInto, ReconstructInto,
// Group.ReconstructDataInto and Group.Update — is one call of a single
// kernel, fold, which XORs any number of sources into a destination in
// one pass over it. On amd64 with AVX2 fold is an assembly loop that
// keeps each 128-byte chunk in four 32-byte registers while every source
// is XORed in; everywhere else, and for the sub-128-byte tail, it is the
// crypto/subtle.XORBytes chain. The byte-wise XORIntoRef is the oracle
// both halves are tested and fuzzed against bit for bit, so the hot
// path's speed never rests on unverified code.
package parity

import (
	"bytes"
	"errors"
	"fmt"
)

// ErrSizeMismatch is returned when blocks in one group differ in length.
var ErrSizeMismatch = errors.New("parity: blocks in a group must have equal length")

// ErrEmptyGroup is returned for groups with no data blocks.
var ErrEmptyGroup = errors.New("parity: group needs at least one data block")

// XORInto xors src into dst element-wise: dst[i] ^= src[i]. It is the
// two-source fold dst = dst ⊕ src and performs no allocations.
func XORInto(dst, src []byte) error {
	if len(dst) != len(src) {
		return fmt.Errorf("%w: dst %d bytes, src %d", ErrSizeMismatch, len(dst), len(src))
	}
	fold(dst, [][]byte{dst, src})
	return nil
}

// XORIntoRef is the byte-wise reference implementation of XORInto, kept
// for differential tests and kernel-speedup benchmarks. Production code
// uses XORInto.
func XORIntoRef(dst, src []byte) error {
	if len(dst) != len(src) {
		return fmt.Errorf("%w: dst %d bytes, src %d", ErrSizeMismatch, len(dst), len(src))
	}
	for i, b := range src {
		dst[i] ^= b
	}
	return nil
}

// EncodeInto computes the parity of the data blocks into dst without
// allocating: dst = data[0] ⊕ data[1] ⊕ … in one pass. The blocks must be
// non-empty, equally sized, and the same length as dst; on an error dst
// is left untouched. dst may alias data[0] but no other block.
func EncodeInto(dst []byte, data [][]byte) error {
	if len(data) == 0 {
		return ErrEmptyGroup
	}
	for i, blk := range data {
		if len(blk) != len(dst) {
			return fmt.Errorf("%w: block %d is %d bytes, dst %d", ErrSizeMismatch, i, len(blk), len(dst))
		}
	}
	fold(dst, data)
	return nil
}

// ReconstructInto rebuilds the missing block of a parity group into dst
// given every other block (the surviving data blocks and the parity
// block, in any order), without allocating. It is the same fold as
// EncodeInto: XOR of all survivors.
func ReconstructInto(dst []byte, survivors [][]byte) error {
	return EncodeInto(dst, survivors)
}

// Group is one parity group: the data blocks of one stripe and their
// parity block.
type Group struct {
	Data   [][]byte
	Parity []byte
}

// NewGroup encodes a parity group over the given data blocks. The data
// slices are referenced, not copied.
func NewGroup(data [][]byte) (*Group, error) {
	if len(data) == 0 {
		return nil, ErrEmptyGroup
	}
	p := make([]byte, len(data[0]))
	if err := EncodeInto(p, data); err != nil {
		return nil, err
	}
	return &Group{Data: data, Parity: p}, nil
}

// Verify reports whether the parity block is consistent with the data.
func (g *Group) Verify() bool {
	fresh, err := NewGroup(g.Data)
	return err == nil && bytes.Equal(fresh.Parity, g.Parity)
}

// ReconstructData rebuilds data block i from the other data blocks and
// the parity block, without consulting Data[i] itself. The result is
// freshly allocated; allocation-sensitive callers use
// ReconstructDataInto.
func (g *Group) ReconstructData(i int) ([]byte, error) {
	if i < 0 || i >= len(g.Data) {
		return nil, fmt.Errorf("parity: block index %d out of range [0,%d)", i, len(g.Data))
	}
	rec := make([]byte, len(g.Parity))
	if err := g.ReconstructDataInto(rec, i); err != nil {
		return nil, err
	}
	return rec, nil
}

// ReconstructDataInto rebuilds data block i into dst from the other
// data blocks and the parity block, without consulting Data[i] itself.
// It is the same one-pass fold as EncodeInto, so reconstruction runs at
// encode speed, and it allocates nothing for groups of up to 32 blocks.
// On an error dst is left untouched. dst must not alias any of the
// group's blocks.
func (g *Group) ReconstructDataInto(dst []byte, i int) error {
	if i < 0 || i >= len(g.Data) {
		return fmt.Errorf("parity: block index %d out of range [0,%d)", i, len(g.Data))
	}
	if len(dst) != len(g.Parity) {
		return fmt.Errorf("%w: dst %d bytes, parity %d", ErrSizeMismatch, len(dst), len(g.Parity))
	}
	var stack [32][]byte
	survivors := append(stack[:0], g.Parity)
	for j, blk := range g.Data {
		if j == i {
			continue
		}
		if len(blk) != len(dst) {
			return fmt.Errorf("%w: block %d is %d bytes, parity %d", ErrSizeMismatch, j, len(blk), len(dst))
		}
		survivors = append(survivors, blk)
	}
	fold(dst, survivors)
	return nil
}

// Update recomputes parity after data block i changes from old to new
// content, using the parity-delta trick (p = p ⊕ old ⊕ new, one fold)
// rather than a full re-encode.
func (g *Group) Update(i int, oldBlock, newBlock []byte) error {
	if i < 0 || i >= len(g.Data) {
		return fmt.Errorf("parity: block index %d out of range [0,%d)", i, len(g.Data))
	}
	if len(oldBlock) != len(g.Parity) || len(newBlock) != len(g.Parity) {
		return ErrSizeMismatch
	}
	fold(g.Parity, [][]byte{g.Parity, oldBlock, newBlock})
	g.Data[i] = newBlock
	return nil
}
