package workload

import (
	"math/bits"
	"runtime"
	"sync"
)

// SyntheticContent produces size bytes of deterministic, id-dependent
// content. The same (id, size) always yields the same bytes, and two
// different IDs almost surely differ — so a delivery trace can prove it
// carried the right object.
//
// The stream, as a spec: the seed is the 64-bit FNV-1a hash of id with
// offset basis 1469598103934665603 (the standard basis less its last
// digit) and prime 1099511628211; the state starts at the seed and
// advances by Marsaglia's xorshift64 with shifts (13, 7, 17) —
// x ^= x<<13; x ^= x>>7; x ^= x<<17 — and byte i is the low byte of the
// state after step i+1. A longer size therefore extends a shorter one.
// The bytes do not depend on GOMAXPROCS: each step is linear over GF(2),
// so the state n steps on is a 64×64 bit-matrix product away, and the
// output is made as contiguous pieces, each started from its jumped-to
// state.
func SyntheticContent(id string, size int) []byte {
	out := make([]byte, size)
	n := 1
	if size >= splitMin {
		n = runtime.GOMAXPROCS(0)
	}
	synthesize(out, seed(id), n)
	return out
}

// seed is the stream's starting state for id.
func seed(id string) uint64 {
	x := uint64(1469598103934665603)
	for _, b := range []byte(id) {
		x ^= uint64(b)
		x *= 1099511628211
	}
	return x
}

const (
	// lanes is how many contiguous pieces one goroutine steps
	// interleaved: eight independent xorshift chains keep the core's
	// pipelines full where one chain waits on each step's result.
	lanes = 8
	// minLane is the shortest lane worth its jump: below lanes·minLane
	// bytes one chain steps alone.
	minLane = 64
	// splitMin is the output size from which the pieces are also spread
	// over GOMAXPROCS goroutines: a whole title, not a track. Below it
	// one core makes the bytes in under a millisecond.
	splitMin = 1 << 20
)

// synthesize fills out with the stream from state x, in n contiguous
// parts: part 0 on the caller's goroutine, every other one on its own.
func synthesize(out []byte, x uint64, n int) {
	per := len(out) / n
	var wg sync.WaitGroup
	for p := 1; p < n; p++ {
		lo, hi := p*per, (p+1)*per
		if p == n-1 {
			hi = len(out)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill(out[lo:hi], jump(x, uint64(lo)))
		}()
	}
	fill(out[:per], x)
	wg.Wait()
}

// step is one xorshift64 (13, 7, 17) step.
func step(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// fill writes the stream from state x into out: as lanes contiguous
// lanes stepped together, then the remainder serially.
func fill(out []byte, x uint64) {
	if m := len(out) / lanes; m >= minLane {
		x1 := jump(x, uint64(m))
		x2 := jump(x1, uint64(m))
		x3 := jump(x2, uint64(m))
		x4 := jump(x3, uint64(m))
		x5 := jump(x4, uint64(m))
		x6 := jump(x5, uint64(m))
		x7 := jump(x6, uint64(m))
		// Each lane resliced to [:m] so the loop carries no bounds check.
		o0 := out[:m]
		o1, o2, o3 := out[m:][:m], out[2*m:][:m], out[3*m:][:m]
		o4, o5, o6, o7 := out[4*m:][:m], out[5*m:][:m], out[6*m:][:m], out[7*m:][:m]
		for i := range o0 {
			x = step(x)
			x1 = step(x1)
			x2 = step(x2)
			x3 = step(x3)
			x4 = step(x4)
			x5 = step(x5)
			x6 = step(x6)
			x7 = step(x7)
			o0[i] = byte(x)
			o1[i] = byte(x1)
			o2[i] = byte(x2)
			o3[i] = byte(x3)
			o4[i] = byte(x4)
			o5[i] = byte(x5)
			o6[i] = byte(x6)
			o7[i] = byte(x7)
		}
		x, out = x7, out[lanes*m:] // lane 7 ends where the tail begins
	}
	for i := range out {
		x = step(x)
		out[i] = byte(x)
	}
}

// jumpTable[k] is the step matrix raised to 2^k, stored by column:
// jumpTable[k][j] is the state 2^k steps after the state 1<<j.
var (
	jumpOnce  sync.Once
	jumpTable [64][64]uint64
)

// jump returns the state n steps after x: one matrix-vector product over
// GF(2) per set bit of n.
func jump(x, n uint64) uint64 {
	jumpOnce.Do(func() {
		for j := range jumpTable[0] {
			jumpTable[0][j] = step(1 << j)
		}
		for k := 1; k < len(jumpTable); k++ {
			for j := range jumpTable[k] {
				jumpTable[k][j] = apply(&jumpTable[k-1], jumpTable[k-1][j])
			}
		}
	})
	for ; n != 0; n &= n - 1 {
		x = apply(&jumpTable[bits.TrailingZeros64(n)], x)
	}
	return x
}

// apply multiplies x by the column-stored matrix m over GF(2).
func apply(m *[64]uint64, x uint64) uint64 {
	var y uint64
	for ; x != 0; x &= x - 1 {
		y ^= m[bits.TrailingZeros64(x)]
	}
	return y
}
