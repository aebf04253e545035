package schemes

import (
	"testing"

	"ftmm/internal/layout"
)

// TestPutRunsQueuedFolds: a made track put back in the cycle that queued
// its fold is the arena's next Get (its free list is LIFO). put must run
// the fold first, or the next reconstruction's fold into the same buffer
// is refused at Add and the cycle fails.
func TestPutRunsQueuedFolds(t *testing.T) {
	r := newRig(t, 10, 5, 1, 4, layout.DedicatedParity)
	e, err := NewStreamingRAID(r.config())
	if err != nil {
		t.Fatal(err)
	}
	c := &e.engineCore
	c.beginCycle()
	src := make([]byte, c.arena.TrackSize())
	first, err := c.reconstruct([][]byte{src})
	if err != nil {
		t.Fatal(err)
	}
	c.put(first)
	again, err := c.reconstruct([][]byte{src})
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &first[0] {
		t.Fatal("the arena did not hand the put buffer out again")
	}
	c.put(again)
	if _, err := c.endCycle(); err != nil {
		t.Fatal(err)
	}
}
