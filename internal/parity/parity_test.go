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
			got, err := g.ReconstructData(i)
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
		if !g.Verify() {
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

func TestVerifyDetectsCorruption(t *testing.T) {
	data := [][]byte{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	g, err := NewGroup(data)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Verify() {
		t.Fatal("fresh group does not verify")
	}
	g.Data[1][0] ^= 0x80
	if g.Verify() {
		t.Fatal("corruption not detected")
	}
	g.Data[1][0] ^= 0x80
	g.Parity[2] ^= 1
	if g.Verify() {
		t.Fatal("parity corruption not detected")
	}
}

func TestVerifyRaggedGroup(t *testing.T) {
	g := &Group{Data: [][]byte{{1, 2}, {3}}, Parity: []byte{0, 0}}
	if g.Verify() {
		t.Fatal("ragged group verified")
	}
	g2 := &Group{Data: [][]byte{{1, 2}}, Parity: []byte{1}}
	if g2.Verify() {
		t.Fatal("short parity verified")
	}
}

func TestReconstructDataBounds(t *testing.T) {
	g, _ := NewGroup([][]byte{{1}, {2}})
	if _, err := g.ReconstructData(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := g.ReconstructData(2); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestUpdate(t *testing.T) {
	a := []byte{1, 2, 3}
	b := []byte{4, 5, 6}
	g, err := NewGroup([][]byte{append([]byte(nil), a...), b})
	if err != nil {
		t.Fatal(err)
	}
	newA := []byte{9, 9, 9}
	if err := g.Update(0, a, newA); err != nil {
		t.Fatal(err)
	}
	if !g.Verify() {
		t.Fatal("group does not verify after Update")
	}
	rec, err := g.ReconstructData(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, newA) {
		t.Fatalf("reconstructed %v, want %v", rec, newA)
	}
}

func TestUpdateErrors(t *testing.T) {
	g, _ := NewGroup([][]byte{{1}, {2}})
	if err := g.Update(5, []byte{1}, []byte{2}); err == nil {
		t.Error("out-of-range update accepted")
	}
	if err := g.Update(0, []byte{1, 2}, []byte{2}); err == nil {
		t.Error("mis-sized old block accepted")
	}
	if err := g.Update(0, []byte{1}, []byte{2, 3}); err == nil {
		t.Error("mis-sized new block accepted")
	}
}

// Property: Update is equivalent to re-encoding from scratch.
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
		if err := g.Update(i, old, fresh); err != nil {
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
