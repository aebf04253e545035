package parity

import (
	"bytes"
	"testing"
)

// FuzzReconstruct drives the erasure-coding core with arbitrary block
// contents and widths: for every data block, reconstruction from the
// survivors must reproduce it exactly.
func FuzzReconstruct(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(4))
	f.Add([]byte{0}, uint8(1))
	f.Add([]byte{0xFF, 0x00, 0xAA, 0x55}, uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, widthRaw uint8) {
		width := int(widthRaw%9) + 1
		if len(raw) < width {
			return
		}
		blockSize := len(raw) / width
		if blockSize == 0 {
			return
		}
		data := make([][]byte, width)
		for i := range data {
			data[i] = raw[i*blockSize : (i+1)*blockSize]
		}
		g, err := NewGroup(data)
		if err != nil {
			t.Fatalf("NewGroup: %v", err)
		}
		if !g.Verify() {
			t.Fatal("fresh group does not verify")
		}
		for i := range data {
			rec, err := g.ReconstructData(i)
			if err != nil {
				t.Fatalf("reconstruct %d: %v", i, err)
			}
			if !bytes.Equal(rec, data[i]) {
				t.Fatalf("block %d: reconstruction differs", i)
			}
		}
	})
}

// FuzzXORKernel differentially tests the production kernel against the
// byte-wise reference on arbitrary (and in particular unaligned) lengths
// and offsets. XORInto folds b into a; then both fold kernels fold k
// sources (1…9, from the count byte) cut end to end from b into a
// destination cut from a. The offset bytes shift the operands off any
// alignment, so the fuzzer explores misaligned base pointers as well as
// ragged tails.
func FuzzXORKernel(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{4, 5, 6, 7}, uint8(0), uint8(0), uint8(1))
	f.Add(make([]byte, 129), make([]byte, 64), uint8(3), uint8(5), uint8(2))
	f.Add([]byte{0xFF}, []byte{0xAA, 0x55}, uint8(7), uint8(1), uint8(0))
	f.Add(make([]byte, 300), make([]byte, 1200), uint8(1), uint8(2), uint8(4))
	f.Fuzz(func(t *testing.T, a, b []byte, offA, offB, kRaw uint8) {
		da, db := int(offA%8), int(offB%8)
		if len(a) < da || len(b) < db {
			return
		}
		a, b = a[da:], b[db:]
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		dst := append([]byte(nil), a[:n]...)
		want := append([]byte(nil), a[:n]...)
		if err := XORIntoRef(want, b[:n]); err != nil {
			t.Fatal(err)
		}
		if err := XORInto(dst, b[:n]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("len %d offsets (%d,%d): kernel differs from reference", n, da, db)
		}
		// XOR is an involution: applying the same src twice restores dst.
		if err := XORInto(dst, b[:n]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, a[:n]) {
			t.Fatalf("len %d: double XOR does not restore input", n)
		}

		k := int(kRaw%9) + 1
		m := len(b) / k
		if len(a) < m {
			m = len(a)
		}
		srcs := make([][]byte, k)
		for j := range srcs {
			srcs[j] = b[j*m : (j+1)*m]
		}
		want, err := encodeRef(srcs)
		if err != nil {
			t.Fatal(err)
		}
		for _, kern := range foldKernels {
			out := make([]byte, da+m)[da:] // dst offset by da as well
			copy(out, a[:m])
			kern.fn(out, srcs)
			if !bytes.Equal(out, want) {
				t.Fatalf("%s: k=%d len %d offsets (%d,%d): fold differs from reference", kern.name, k, m, da, db)
			}
		}
	})
}

// FuzzUpdate checks the parity-delta path against a full re-encode for
// arbitrary updates.
func FuzzUpdate(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{9, 9}, uint8(0))
	f.Fuzz(func(t *testing.T, raw, fresh []byte, idxRaw uint8) {
		if len(raw) < 2 {
			return
		}
		blockSize := len(raw) / 2
		data := [][]byte{
			append([]byte(nil), raw[:blockSize]...),
			append([]byte(nil), raw[blockSize:2*blockSize]...),
		}
		g, err := NewGroup(data)
		if err != nil {
			t.Fatal(err)
		}
		idx := int(idxRaw) % 2
		newBlock := make([]byte, blockSize)
		copy(newBlock, fresh)
		old := append([]byte(nil), g.Data[idx]...)
		if err := g.Update(idx, old, newBlock); err != nil {
			t.Fatal(err)
		}
		want, err := encodeRef(g.Data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.Parity, want) {
			t.Fatal("delta parity differs from re-encode")
		}
	})
}
