package workload

import (
	"encoding/binary"
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
// Each step is linear over GF(2), so the stream is made 64 bytes at a
// time from block tables (see blockTable), then the tail step by step.
func SyntheticContent(id string, size int) []byte {
	out := make([]byte, size)
	x := seed(id)
	n := size &^ (blockLen - 1)
	if n > 0 {
		tableOnce.Do(buildTable)
		x = blocks(out[:n], x)
	}
	for i := n; i < size; i++ {
		x = step(x)
		out[i] = byte(x)
	}
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

// step is one xorshift64 (13, 7, 17) step.
func step(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// blockLen is how many bytes one table lookup round makes.
const blockLen = 64

// blockTable holds, for each byte position j of a state and each value
// v of that byte, what the state v<<8j contributes to a block: rows the
// 64 bytes it makes, as eight little-endian words, and next the state
// 64 steps on. By linearity the block after any state x is the XOR of
// rows[j][byte j of x] over the eight j, and the state after it the XOR
// of next[j][byte j of x]. The AVX2 kernel reads rows at offset 0 and
// next at 8·256·64 bytes.
type blockTable struct {
	rows [8][256][8]uint64
	next [8][256]uint64
}

var (
	tableOnce sync.Once
	table     blockTable
)

// buildTable fills table by stepping each state v<<8j 64 times.
func buildTable() {
	for j := range table.rows {
		for v := range table.rows[j] {
			x := uint64(v) << (8 * j)
			row := &table.rows[j][v]
			for i := 0; i < blockLen; i++ {
				x = step(x)
				row[i/8] |= uint64(byte(x)) << (8 * (i % 8))
			}
			table.next[j][v] = x
		}
	}
}

// blocksGo writes the stream from state x into out, whose length is a
// multiple of blockLen, one block per round of table lookups, and
// returns the state after the last byte.
func blocksGo(out []byte, x uint64) uint64 {
	for ; len(out) >= blockLen; out = out[blockLen:] {
		var w [8]uint64
		var nx uint64
		for j := range table.rows {
			b := byte(x >> (8 * j))
			row := &table.rows[j][b]
			w[0] ^= row[0]
			w[1] ^= row[1]
			w[2] ^= row[2]
			w[3] ^= row[3]
			w[4] ^= row[4]
			w[5] ^= row[5]
			w[6] ^= row[6]
			w[7] ^= row[7]
			nx ^= table.next[j][b]
		}
		o := out[:blockLen]
		binary.LittleEndian.PutUint64(o[0:], w[0])
		binary.LittleEndian.PutUint64(o[8:], w[1])
		binary.LittleEndian.PutUint64(o[16:], w[2])
		binary.LittleEndian.PutUint64(o[24:], w[3])
		binary.LittleEndian.PutUint64(o[32:], w[4])
		binary.LittleEndian.PutUint64(o[40:], w[5])
		binary.LittleEndian.PutUint64(o[48:], w[6])
		binary.LittleEndian.PutUint64(o[56:], w[7])
		x = nx
	}
	return x
}
