// Package parity implements the bitwise exclusive-or redundancy the
// paper's schemes rely on: a parity group is C-1 equally sized data
// blocks plus one parity block XOp = X0 ⊕ X1 ⊕ … ⊕ X(C-2), from which any
// single missing block can be reconstructed on the fly.
//
// The package operates on real bytes so that the simulation layers above
// it can verify, bit for bit, that data delivered during degraded-mode
// operation equals the data that was stored.
//
// Two implementations of the XOR fold coexist: the production entry
// point XORInto, which dispatches to crypto/subtle.XORBytes — the
// stdlib's architecture-tuned (SIMD on amd64/arm64) XOR that is still
// portable Go API — and the byte-wise reference XORIntoRef, the oracle
// XORInto is tested and fuzzed against bit for bit, so the hot path's
// speed never rests on unverified code.
package parity

import (
	"bytes"
	"crypto/subtle"
	"errors"
	"fmt"
)

// ErrSizeMismatch is returned when blocks in one group differ in length.
var ErrSizeMismatch = errors.New("parity: blocks in a group must have equal length")

// ErrEmptyGroup is returned for groups with no data blocks.
var ErrEmptyGroup = errors.New("parity: group needs at least one data block")

// XORInto xors src into dst element-wise: dst[i] ^= src[i]. It performs
// no allocations and dispatches to crypto/subtle.XORBytes, whose exact
// dst==x aliasing contract matches this in-place fold and whose
// amd64/arm64 implementations run SIMD-wide.
func XORInto(dst, src []byte) error {
	if len(dst) != len(src) {
		return fmt.Errorf("%w: dst %d bytes, src %d", ErrSizeMismatch, len(dst), len(src))
	}
	subtle.XORBytes(dst, dst, src)
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
// allocating: dst = data[0] ⊕ data[1] ⊕ … The blocks must be non-empty,
// equally sized, and the same length as dst. dst may alias data[0] (the
// copy is skipped) but no other block.
func EncodeInto(dst []byte, data [][]byte) error {
	if len(data) == 0 {
		return ErrEmptyGroup
	}
	if len(dst) != len(data[0]) {
		return fmt.Errorf("%w: dst %d bytes, blocks %d", ErrSizeMismatch, len(dst), len(data[0]))
	}
	next := 1
	if len(data) > 1 && len(data[1]) == len(dst) {
		// Fold the first pair in one pass: dst = data[0] ^ data[1] skips
		// the copy a copy-then-XOR start would spend on data[0].
		subtle.XORBytes(dst, data[0], data[1])
		next = 2
	} else if len(dst) > 0 && &dst[0] != &data[0][0] {
		copy(dst, data[0])
	}
	for i, blk := range data[next:] {
		if err := XORInto(dst, blk); err != nil {
			return fmt.Errorf("parity: block %d: %w", i+next, err)
		}
	}
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
// data blocks and the parity block, without consulting Data[i] itself
// and without allocating. It is the same fused fold as EncodeInto —
// the first survivor pair folds in one pass — so reconstruction runs at
// encode speed. dst must not alias any of the group's blocks.
func (g *Group) ReconstructDataInto(dst []byte, i int) error {
	if i < 0 || i >= len(g.Data) {
		return fmt.Errorf("parity: block index %d out of range [0,%d)", i, len(g.Data))
	}
	if len(dst) != len(g.Parity) {
		return fmt.Errorf("%w: dst %d bytes, parity %d", ErrSizeMismatch, len(dst), len(g.Parity))
	}
	// prev carries the first operand until a pair is available to fold.
	prev := g.Parity
	for j, blk := range g.Data {
		if j == i {
			continue
		}
		if len(blk) != len(dst) {
			return fmt.Errorf("%w: block %d is %d bytes, parity %d", ErrSizeMismatch, j, len(blk), len(dst))
		}
		if prev != nil {
			subtle.XORBytes(dst, prev, blk)
			prev = nil
			continue
		}
		subtle.XORBytes(dst, dst, blk)
	}
	if prev != nil {
		// Single-data-block group: the missing block is the parity itself.
		copy(dst, prev)
	}
	return nil
}

// Update recomputes parity after data block i changes from old to new
// content, using the parity-delta trick (p ^= old ^ new) rather than a
// full re-encode.
func (g *Group) Update(i int, oldBlock, newBlock []byte) error {
	if i < 0 || i >= len(g.Data) {
		return fmt.Errorf("parity: block index %d out of range [0,%d)", i, len(g.Data))
	}
	if len(oldBlock) != len(g.Parity) || len(newBlock) != len(g.Parity) {
		return ErrSizeMismatch
	}
	if err := XORInto(g.Parity, oldBlock); err != nil {
		return err
	}
	if err := XORInto(g.Parity, newBlock); err != nil {
		return err
	}
	g.Data[i] = newBlock
	return nil
}
