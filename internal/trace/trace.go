// Package trace holds the repo's one definition of bit-exact delivery:
// CheckTrack, the predicate every verifier applies to a delivered track
// — the chaos harness's continuity checker on every simulated run, and
// the network clients and benchmarks on every track they receive.
package trace

import (
	"bytes"
	"fmt"
)

// CheckTrack is the single definition of bit-exactness: a correct
// delivery of the given track carries trackSize bytes of content at the
// track's offset, zero-padded past the end of the object. It allocates
// nothing, so network clients (ftmmload) can verify every received
// track on the fly with the same predicate the chaos checkers use.
func CheckTrack(content []byte, trackSize, track int, got []byte) error {
	if trackSize <= 0 {
		return fmt.Errorf("trace: track size %d must be positive", trackSize)
	}
	if len(got) != trackSize {
		return fmt.Errorf("trace: track %d carries %d bytes, want %d", track, len(got), trackSize)
	}
	start := track * trackSize
	if track < 0 || start >= len(content) {
		return fmt.Errorf("trace: track %d beyond content (%d bytes)", track, len(content))
	}
	end := start + trackSize
	if end > len(content) {
		end = len(content)
	}
	if !bytes.Equal(got[:end-start], content[start:end]) {
		return fmt.Errorf("trace: track %d: content differs", track)
	}
	for _, b := range got[end-start:] { // final partial track, zero padded
		if b != 0 {
			return fmt.Errorf("trace: track %d: padding past object end is not zero", track)
		}
	}
	return nil
}
