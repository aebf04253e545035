//go:build !amd64

package workload

// blocks writes whole blocks from state x; see content_amd64.go for the
// contract. Off amd64 it is the portable loop.
func blocks(out []byte, x uint64) uint64 { return blocksGo(out, x) }
