package schemes

import (
	"testing"

	"ftmm/internal/layout"
	"ftmm/internal/sched"
)

// checkSharedBytes asserts, on one live report, the contract the network
// layer merges runs on. Every read track carries a nil Buf, and every
// delivery of one (title, track) read this cycle is the same backing
// slice: the platter's. Every reconstructed track carries its own Buf on
// its own arena buffer, distinct from every other delivery's bytes. It
// returns how many read tracks went to more than one stream and how
// many reconstructed tracks this cycle had.
func checkSharedBytes(t *testing.T, rep *sched.CycleReport) (sharedReads, made int) {
	t.Helper()
	type key struct {
		obj   string
		track int
	}
	view := map[key]*byte{}
	owner := map[*byte]sched.Delivery{}
	for _, d := range rep.Delivered {
		p := &d.Data[0]
		if !d.Reconstructed {
			if d.Buf != nil {
				t.Fatalf("cycle %d: stream %d track %d: read track carries a Buf", rep.Cycle, d.StreamID, d.Track)
			}
			k := key{d.ObjectID, d.Track}
			switch v, seen := view[k]; {
			case !seen:
				view[k] = p
			case v != p:
				t.Fatalf("cycle %d: stream %d track %d: a second copy of a read track", rep.Cycle, d.StreamID, d.Track)
			default:
				sharedReads++
			}
		} else {
			made++
			if d.Buf == nil || &d.Buf.Bytes()[0] != p {
				t.Fatalf("cycle %d: stream %d track %d: reconstructed track without its own Buf", rep.Cycle, d.StreamID, d.Track)
			}
		}
		if o, seen := owner[p]; seen && (o.Reconstructed || d.Reconstructed) {
			t.Fatalf("cycle %d: streams %d and %d share the bytes of a made track", rep.Cycle, o.StreamID, d.StreamID)
		}
		owner[p] = d
	}
	return sharedReads, made
}

// TestMergedReadsBitExactReports drives a Streaming RAID engine through a
// hot-title scenario: a lockstep pack of four viewers on obj0, a fifth
// viewer of obj0 offset by three groups, a viewer of obj1, a late joiner
// who lands exactly on the pack's group, a drive failure at cycle 5
// (every sharer reconstructs) and the cancellation of a pack member at
// cycle 8. Every cycle's live report must keep the contract netserve
// merges runs on (checkSharedBytes); the surviving full-title viewers
// receive byte-exact titles, and nothing is outstanding after the drain.
func TestMergedReadsBitExactReports(t *testing.T) {
	r := newRig(t, 10, 5, 2, 12, layout.DedicatedParity)
	cfg := r.config()
	cfg.SlotsPerDisk = 8
	e, err := NewStreamingRAID(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obj0, obj1 := r.object(t, 0), r.object(t, 1)
	for i := 0; i < 4; i++ {
		if _, err := e.AddStreamAt(obj0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.AddStreamAt(obj0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddStreamAt(obj1, 0); err != nil {
		t.Fatal(err)
	}

	deliveries := map[int][]sched.Delivery{}
	sharedReads, made := 0, 0
	for cyc := 0; cyc < 60; cyc++ {
		switch cyc {
		case 2:
			// Joins the pack mid-flight: the pack's next read is group 2.
			if _, err := e.AddStreamAt(obj0, 2); err != nil {
				t.Fatal(err)
			}
		case 5:
			if err := e.FailDisk(1); err != nil {
				t.Fatal(err)
			}
		case 8:
			if err := e.CancelStream(1); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := e.Step()
		if err != nil {
			t.Fatalf("cycle %d: %v", cyc, err)
		}
		s, m := checkSharedBytes(t, rep)
		sharedReads += s
		made += m
		for _, d := range rep.Clone().Delivered {
			deliveries[d.StreamID] = append(deliveries[d.StreamID], d)
		}
		if cyc > 2 && e.Active() == 0 {
			break
		}
	}
	if e.Active() != 0 {
		t.Fatal("streams still active after 60 cycles")
	}
	if sharedReads == 0 || made == 0 {
		t.Fatalf("vacuous run: %d shared read tracks, %d reconstructed tracks", sharedReads, made)
	}
	// One more Step releases the engine's refs on the last deliveries
	// (a report's made tracks are held until the next Step); after that
	// every track buffer must be back home.
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	if n := e.BufferInUse(); n != 0 {
		t.Fatalf("buffer pool still holds %d tracks after drain", n)
	}
	if n := e.Arena().Outstanding(); n != 0 {
		t.Fatalf("%d made track buffers never released", n)
	}

	// Stream 1 was cancelled mid-run; streams 4 (offset) and 6 (late
	// joiner) started mid-title, so only the lockstep survivors 0, 2, 3
	// and the solo viewer 5 expect complete objects.
	for _, id := range []int{0, 2, 3} {
		verifyStream(t, r, obj0, deliveries[id], nil)
	}
	verifyStream(t, r, obj1, deliveries[5], nil)
}
