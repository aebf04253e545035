package parity

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"ftmm/internal/cpu"
)

// TestXORKernelMatchesReference checks XORInto against
// the byte-wise reference across sizes that exercise every tail path:
// empty, shorter than one 128-byte chunk, chunk-aligned, and ragged
// lengths just around the 16-, 32-, 64- and 128-byte boundaries.
func TestXORKernelMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	sizes := []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1000, 4096, 50_000, 50_001}
	for _, n := range sizes {
		dst := make([]byte, n)
		src := make([]byte, n)
		r.Read(dst)
		r.Read(src)
		want := append([]byte(nil), dst...)
		if err := XORIntoRef(want, src); err != nil {
			t.Fatal(err)
		}
		if err := XORInto(dst, src); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("size %d: differs from reference", n)
		}
	}
}

// TestXORKernelUnalignedOffsets slides both operands across small
// offsets within a larger backing array, so the kernel runs with every
// combination of misaligned base pointers.
func TestXORKernelUnalignedOffsets(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	backingD := make([]byte, 256)
	backingS := make([]byte, 256)
	for do := 0; do < 9; do++ {
		for so := 0; so < 9; so++ {
			for _, n := range []int{1, 8, 17, 64, 100} {
				r.Read(backingD)
				r.Read(backingS)
				dst := backingD[do : do+n]
				src := backingS[so : so+n]
				want := append([]byte(nil), dst...)
				if err := XORIntoRef(want, src); err != nil {
					t.Fatal(err)
				}
				if err := XORInto(dst, src); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(dst, want) {
					t.Fatalf("offsets (%d,%d) size %d: differs", do, so, n)
				}
			}
		}
	}
}

// foldKernels are the two halves of fold, each called directly so the
// portable chain is tested on an AVX2 machine too: fold itself (the
// AVX2 loop plus its portable tail where the CPU has AVX2) and the
// portable chain over the whole destination.
var foldKernels = []struct {
	name string
	fn   func(dst []byte, srcs [][]byte)
}{
	{"fold", fold},
	{"portable", func(dst []byte, srcs [][]byte) { foldPortable(dst, srcs, 0) }},
}

// TestFoldMatchesReference checks both fold kernels against the
// byte-wise reference for 1…9 sources, sizes on both sides of every
// chunk boundary, base offsets 0…8 on dst and on each source, and dst
// aliasing srcs[0].
func TestFoldMatchesReference(t *testing.T) {
	t.Logf("AVX2: %v", cpu.HasAVX2)
	r := rand.New(rand.NewSource(50))
	sizes := []int{0, 1, 63, 64, 127, 128, 129, 255, 256, 50_000, 50_001, 51_200}
	const maxOff, maxK = 8, 9
	for _, n := range sizes {
		backing := randBlocks(r, maxK+1, n+maxOff)
		for k := 1; k <= maxK; k++ {
			for off := 0; off <= maxOff; off++ {
				// Each source sits at its own offset, shifted by off, so
				// dst and the sources are misaligned against each other.
				srcs := make([][]byte, k)
				for j := range srcs {
					o := (off + j) % (maxOff + 1)
					srcs[j] = backing[j+1][o : o+n]
				}
				want, err := encodeRef(srcs)
				if err != nil {
					t.Fatal(err)
				}
				for _, kern := range foldKernels {
					dst := backing[0][off : off+n]
					kern.fn(dst, srcs)
					if !bytes.Equal(dst, want) {
						t.Fatalf("%s: k=%d size %d offset %d: differs from reference", kern.name, k, n, off)
					}
					// dst aliasing srcs[0]: fold the rest in place.
					alias := append([]byte(nil), srcs[0]...)
					aliased := append([][]byte{alias}, srcs[1:]...)
					kern.fn(alias, aliased)
					if !bytes.Equal(alias, want) {
						t.Fatalf("%s: k=%d size %d offset %d: aliased dst differs from reference", kern.name, k, n, off)
					}
				}
			}
		}
	}
}

// TestEncodeInto checks the destination-buffer encode against the
// byte-wise oracle, including dst aliasing the first block.
func TestEncodeInto(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	data := randBlocks(r, 4, 333)
	want, err := encodeRef(data)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 333)
	if err := EncodeInto(dst, data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, want) {
		t.Fatal("EncodeInto differs from the byte-wise oracle")
	}
	// dst aliasing data[0]: fold the rest in place.
	alias := append([]byte(nil), data[0]...)
	aliased := [][]byte{alias, data[1], data[2], data[3]}
	if err := EncodeInto(alias, aliased); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(alias, want) {
		t.Fatal("aliased EncodeInto differs from Encode")
	}
}

func TestEncodeIntoErrors(t *testing.T) {
	if err := EncodeInto(nil, nil); err == nil {
		t.Error("empty group accepted")
	}
	if err := EncodeInto([]byte{0}, [][]byte{{1, 2}}); err == nil {
		t.Error("mis-sized dst accepted")
	}
	if err := EncodeInto([]byte{0, 0}, [][]byte{{1, 2}, {3}}); err == nil {
		t.Error("ragged group accepted")
	}
}

// TestEncodeIntoErrorLeavesDst checks that a ragged group is refused
// before dst is written, even when the short block comes after two
// well-sized ones.
func TestEncodeIntoErrorLeavesDst(t *testing.T) {
	data := randBlocks(rand.New(rand.NewSource(51)), 3, 300)
	data[2] = data[2][:299]
	dst := bytes.Repeat([]byte{0x5A}, 300)
	if err := EncodeInto(dst, data); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("ragged group: err = %v, want ErrSizeMismatch", err)
	}
	if !bytes.Equal(dst, bytes.Repeat([]byte{0x5A}, 300)) {
		t.Fatal("EncodeInto wrote dst before refusing a ragged group")
	}
}

// TestReconstructDataIntoErrorLeavesDst checks the same for a group
// whose last data block was replaced by a short one.
func TestReconstructDataIntoErrorLeavesDst(t *testing.T) {
	g, err := NewGroup(randBlocks(rand.New(rand.NewSource(52)), 4, 300))
	if err != nil {
		t.Fatal(err)
	}
	g.Data[3] = g.Data[3][:299]
	dst := bytes.Repeat([]byte{0x5A}, 300)
	if err := g.ReconstructDataInto(dst, 0); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("ragged group: err = %v, want ErrSizeMismatch", err)
	}
	if !bytes.Equal(dst, bytes.Repeat([]byte{0x5A}, 300)) {
		t.Fatal("ReconstructDataInto wrote dst before refusing a ragged group")
	}
}

// TestReconstructInto checks the allocation-free reconstruction path.
func TestReconstructInto(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	data := randBlocks(r, 5, 777)
	g, err := NewGroup(data)
	if err != nil {
		t.Fatal(err)
	}
	for miss := range data {
		survivors := make([][]byte, 0, len(data))
		for j, blk := range data {
			if j != miss {
				survivors = append(survivors, blk)
			}
		}
		survivors = append(survivors, g.Parity)
		dst := make([]byte, 777)
		if err := ReconstructInto(dst, survivors); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, data[miss]) {
			t.Fatalf("ReconstructInto block %d differs", miss)
		}
	}
}

// TestXORIntoZeroAllocs pins the zero-allocation guarantee of the
// steady-state kernel entry points.
func TestXORIntoZeroAllocs(t *testing.T) {
	dst := make([]byte, 50_000)
	src := make([]byte, 50_000)
	if n := testing.AllocsPerRun(100, func() {
		if err := XORInto(dst, src); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("XORInto allocates %.1f per run, want 0", n)
	}
}

// TestEncodeIntoZeroAllocs pins EncodeInto's allocation-free contract.
func TestEncodeIntoZeroAllocs(t *testing.T) {
	data := [][]byte{make([]byte, 50_000), make([]byte, 50_000), make([]byte, 50_000), make([]byte, 50_000)}
	dst := make([]byte, 50_000)
	if n := testing.AllocsPerRun(100, func() {
		if err := EncodeInto(dst, data); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("EncodeInto allocates %.1f per run, want 0", n)
	}
}

// BenchmarkXORInto measures the production kernel as a two-source fold.
func BenchmarkXORInto(b *testing.B) {
	dst := make([]byte, 50_000)
	src := make([]byte, 50_000)
	b.SetBytes(50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := XORInto(dst, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXORIntoRef measures the retained byte-wise reference on the
// same block size, pinning the kernel speedup claim.
func BenchmarkXORIntoRef(b *testing.B) {
	dst := make([]byte, 50_000)
	src := make([]byte, 50_000)
	b.SetBytes(50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := XORIntoRef(dst, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeInto measures the allocation-free group encode at C=5.
func BenchmarkEncodeInto(b *testing.B) {
	data := randBlocks(rand.New(rand.NewSource(1)), 4, 50_000)
	dst := make([]byte, 50_000)
	b.SetBytes(4 * 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := EncodeInto(dst, data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestKernelSpeedup asserts the headline acceptance criterion: the
// production kernel behind XORInto (fold over {dst, src}) is at least 4x
// faster than the byte-wise reference on track-sized (>= 16 KiB) blocks.
// Run as a test so CI catches kernel regressions without a separate
// bench pass; skipped in -short mode (timing-sensitive).
func TestKernelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	if raceEnabled {
		t.Skip("race instrumentation penalizes the reference's byte accesses; timing ratio is meaningless")
	}
	const size = 50_000
	dst := make([]byte, size)
	src := make([]byte, size)
	kern := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = XORInto(dst, src)
		}
	})
	ref := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = XORIntoRef(dst, src)
		}
	})
	speedup := float64(ref.NsPerOp()) / float64(kern.NsPerOp())
	t.Logf("kernel %d ns/op, ref %d ns/op, speedup %.1fx", kern.NsPerOp(), ref.NsPerOp(), speedup)
	if speedup < 4 {
		t.Errorf("kernel speedup %.1fx, want >= 4x (kernel %d ns/op, ref %d ns/op)",
			speedup, kern.NsPerOp(), ref.NsPerOp())
	}
}

// TestFoldSpeedup gates the fused kernel: where AVX2 is present, a
// C=5 encode (four 50 KB sources, one pass) must run at least 1.5x as
// fast as the portable subtle.XORBytes chain over the same sources
// (three passes). Without AVX2 the two are the same code.
func TestFoldSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts kernel timing ratios")
	}
	if !cpu.HasAVX2 {
		t.Skip("no AVX2: fold is the portable chain")
	}
	const size = 50_000
	data := randBlocks(rand.New(rand.NewSource(49)), 4, size)
	dst := make([]byte, size)
	fused := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = EncodeInto(dst, data)
		}
	})
	chain := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			foldPortable(dst, data, 0)
		}
	})
	speedup := float64(chain.NsPerOp()) / float64(fused.NsPerOp())
	t.Logf("fused %d ns/op, portable chain %d ns/op, speedup %.2fx", fused.NsPerOp(), chain.NsPerOp(), speedup)
	if speedup < 1.5 {
		t.Errorf("fused fold runs %.2fx the portable chain, want >= 1.5x", speedup)
	}
}

// TestReconstructDataInto checks the allocation-free group
// reconstruction against the original block for every missing-block
// index, including a single-data-block group (whose reconstruction is
// the parity itself).
func TestReconstructDataInto(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	for _, width := range []int{1, 2, 4, 5} {
		data := randBlocks(r, width, 501)
		g, err := NewGroup(data)
		if err != nil {
			t.Fatal(err)
		}
		for miss := range data {
			dst := make([]byte, 501)
			if err := g.ReconstructDataInto(dst, miss); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst, data[miss]) {
				t.Fatalf("width %d: ReconstructDataInto(%d) differs from original", width, miss)
			}
		}
	}
}

// TestReconstructDataIntoZeroAllocs pins the no-allocation contract the
// reconstruct bench row relies on.
func TestReconstructDataIntoZeroAllocs(t *testing.T) {
	g, err := NewGroup(randBlocks(rand.New(rand.NewSource(47)), 4, 50_000))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 50_000)
	if n := testing.AllocsPerRun(100, func() {
		if err := g.ReconstructDataInto(dst, 2); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReconstructDataInto allocates %.1f per run, want 0", n)
	}
}

// TestReconstructThroughput asserts the reconstruct path dispatches to
// the fast kernel: rebuilding one block of a C=5 group must run at no
// less than half the encode throughput over the same four-block fold
// (both are the identical fused XOR; the factor-of-two headroom absorbs
// scheduling noise). This is the regression the bench suite once hid —
// a reconstruct that quietly falls back to byte-wise speed fails here.
func TestReconstructThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts kernel timing ratios")
	}
	const size = 50_000
	data := randBlocks(rand.New(rand.NewSource(48)), 4, size)
	g, err := NewGroup(data)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, size)
	enc := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = EncodeInto(dst, data)
		}
	})
	rec := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = g.ReconstructDataInto(dst, 2)
		}
	})
	ratio := float64(enc.NsPerOp()) / float64(rec.NsPerOp())
	t.Logf("encode %d ns/op, reconstruct %d ns/op, reconstruct/encode throughput %.2fx",
		enc.NsPerOp(), rec.NsPerOp(), ratio)
	if ratio < 0.5 {
		t.Errorf("reconstruct runs at %.2fx encode throughput, want >= 0.5x", ratio)
	}
}
