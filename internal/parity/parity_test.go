package parity

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBlocks(r *rand.Rand, n, size int) [][]byte {
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = make([]byte, size)
		r.Read(blocks[i])
	}
	return blocks
}

// encodeRef is the tests' oracle for EncodeInto and everything built on
// it: a fresh block folded byte-wise with XORIntoRef, sharing no code
// with the production fold.
func encodeRef(data [][]byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, ErrEmptyGroup
	}
	p := make([]byte, len(data[0]))
	for _, blk := range data {
		if err := XORIntoRef(p, blk); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// consistent reports whether g's parity block equals a fresh encoding of
// its data by the byte-wise reference: the check a stored group passes.
func consistent(g *Group) bool {
	want, err := encodeRef(g.Data)
	return err == nil && bytes.Equal(want, g.Parity)
}

// reconstructData rebuilds g's data block i into a fresh buffer.
func reconstructData(g *Group, i int) ([]byte, error) {
	rec := make([]byte, len(g.Parity))
	return rec, g.ReconstructDataInto(rec, i)
}

func TestXORInto(t *testing.T) {
	dst := []byte{0x0F, 0xF0, 0xAA}
	src := []byte{0xFF, 0xFF, 0xAA}
	if err := XORInto(dst, src); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, []byte{0xF0, 0x0F, 0x00}) {
		t.Fatalf("XORInto = %x", dst)
	}
	if err := XORInto(dst, []byte{1}); err == nil {
		t.Fatal("size mismatch not detected")
	}
}

func TestEncodeKnownValue(t *testing.T) {
	data := [][]byte{{0x01}, {0x02}, {0x04}, {0x08}}
	p := make([]byte, 1)
	if err := EncodeInto(p, data); err != nil {
		t.Fatal(err)
	}
	if p[0] != 0x0F {
		t.Fatalf("parity = %x, want 0f", p)
	}
}

func TestEncodeErrors(t *testing.T) {
	if err := EncodeInto(nil, nil); err == nil {
		t.Error("empty group accepted")
	}
	if _, err := NewGroup(nil); err == nil {
		t.Error("NewGroup accepted an empty group")
	}
	if err := EncodeInto(make([]byte, 2), [][]byte{{1, 2}, {1}}); err == nil {
		t.Error("ragged group accepted")
	}
}

func TestEncodeDoesNotAliasInput(t *testing.T) {
	data := [][]byte{{0xAB}, {0xCD}}
	g, err := NewGroup(data)
	if err != nil {
		t.Fatal(err)
	}
	g.Parity[0] = 0
	if data[0][0] != 0xAB {
		t.Fatal("NewGroup's parity aliased its input")
	}
}

// Core invariant: any single erased block is reconstructible from the
// survivors plus parity — for any group width and content.
func TestReconstructAnySingleErasure(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(9)
		size := 1 + r.Intn(256)
		data := randBlocks(r, n, size)
		g, err := NewGroup(data)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			got, err := reconstructData(g, i)
			if err != nil {
				t.Fatalf("reconstruct %d: %v", i, err)
			}
			if !bytes.Equal(got, data[i]) {
				t.Fatalf("trial %d: reconstructed block %d differs", trial, i)
			}
		}
	}
}

// Property (testing/quick): parity of (a, b, a⊕b) is zero, and
// reconstructing from {b, parity} returns a.
func TestParityProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a) != len(b) {
			if len(a) > len(b) {
				a = a[:len(b)]
			} else {
				b = b[:len(a)]
			}
		}
		if len(a) == 0 {
			return true
		}
		g, err := NewGroup([][]byte{a, b})
		if err != nil {
			return false
		}
		if !consistent(g) {
			return false
		}
		rec := make([]byte, len(a))
		if err := ReconstructInto(rec, [][]byte{b, g.Parity}); err != nil {
			return false
		}
		return bytes.Equal(rec, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A single flipped bit in a data block or in the parity block makes
// the group inconsistent with a fresh encoding of its data.
func TestVerifyDetectsCorruption(t *testing.T) {
	data := [][]byte{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	g, err := NewGroup(data)
	if err != nil {
		t.Fatal(err)
	}
	if !consistent(g) {
		t.Fatal("fresh group does not verify")
	}
	g.Data[1][0] ^= 0x80
	if consistent(g) {
		t.Fatal("corruption not detected")
	}
	g.Data[1][0] ^= 0x80
	g.Parity[2] ^= 1
	if consistent(g) {
		t.Fatal("parity corruption not detected")
	}
}

func TestReconstructDataBounds(t *testing.T) {
	g, _ := NewGroup([][]byte{{1}, {2}})
	dst := make([]byte, 1)
	if err := g.ReconstructDataInto(dst, -1); err == nil {
		t.Error("negative index accepted")
	}
	if err := g.ReconstructDataInto(dst, 2); err == nil {
		t.Error("out-of-range index accepted")
	}
}

// update is the parity-delta update after data block i of g changes
// from old to fresh: p = p ⊕ old ⊕ fresh, one EncodeInto whose dst is
// its first source.
func update(g *Group, i int, old, fresh []byte) error {
	if err := EncodeInto(g.Parity, [][]byte{g.Parity, old, fresh}); err != nil {
		return err
	}
	g.Data[i] = fresh
	return nil
}

// Property: the parity-delta update, EncodeInto folding into its first
// source, is equivalent to re-encoding from scratch.
func TestUpdateMatchesReencode(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(6)
		size := 1 + r.Intn(64)
		data := randBlocks(r, n, size)
		g, err := NewGroup(data)
		if err != nil {
			t.Fatal(err)
		}
		i := r.Intn(n)
		old := append([]byte(nil), g.Data[i]...)
		fresh := make([]byte, size)
		r.Read(fresh)
		if err := update(g, i, old, fresh); err != nil {
			t.Fatal(err)
		}
		want, err := encodeRef(g.Data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.Parity, want) {
			t.Fatalf("trial %d: delta parity differs from re-encode", trial)
		}
	}
}
