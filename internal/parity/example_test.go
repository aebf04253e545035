package parity_test

import (
	"fmt"

	"ftmm/internal/parity"
)

// Encode a parity group and reconstruct a lost block on the fly — the
// core operation behind every scheme in the paper.
func ExampleGroup_ReconstructDataInto() {
	tracks := [][]byte{
		[]byte("track-0!"),
		[]byte("track-1!"),
		[]byte("track-2!"),
		[]byte("track-3!"),
	}
	g, err := parity.NewGroup(tracks)
	if err != nil {
		panic(err)
	}
	// Drive holding track 2 fails; rebuild it from the survivors.
	rec := make([]byte, len(g.Parity))
	if err := g.ReconstructDataInto(rec, 2); err != nil {
		panic(err)
	}
	fmt.Printf("%s\n", rec)
	// Output:
	// track-2!
}
