package schemes

import (
	"bytes"
	"testing"

	"ftmm/internal/layout"
	"ftmm/internal/sched"
)

// TestReportRetentionNeedsClone pins the buffer ownership contract from
// the package doc: a CycleReport and the Data it references are valid
// only until the next Step, because the engine recycles the tracks it
// makes through its arena. A reconstructed track is the only kind that
// is recycled (a read track is a platter view), so the test degrades a
// drive, keeps one delivered reconstruction's slice past its Step, and
// watches the engine's next reconstruction overwrite it — while a Clone
// taken in time stays intact. Nothing writes into a delivered slice:
// Delivery.Data is read-only for every consumer.
func TestReportRetentionNeedsClone(t *testing.T) {
	r := newRig(t, 8, 4, 1, 8, layout.DedicatedParity)
	e, err := NewStreamingRAID(r.config())
	if err != nil {
		t.Fatal(err)
	}
	obj := r.object(t, 0)
	if _, err := e.AddStreamAt(obj, 0); err != nil {
		t.Fatal(err)
	}
	// Every group on the first group's cluster now loses one track.
	if err := e.FailDisk(obj.Groups[0].Data[0].Disk); err != nil {
		t.Fatal(err)
	}

	// The first cycle only reads ahead; step until a reconstructed track
	// is delivered.
	var rep *sched.CycleReport
	var made []byte
	for i := 0; i < 4 && made == nil; i++ {
		if rep, err = e.Step(); err != nil {
			t.Fatal(err)
		}
		for _, d := range rep.Delivered {
			if d.Reconstructed {
				made = d.Data
			}
		}
	}
	if made == nil {
		t.Fatal("no reconstructed delivery within the warmup window")
	}
	clone := rep.Clone()
	want := make(map[int][]byte, len(rep.Delivered))
	for _, d := range rep.Delivered {
		want[d.Track] = bytes.Clone(d.Data)
	}
	madeWas := bytes.Clone(made)

	// The next Step releases the engine's hold on the reconstruction and
	// the one after reconstructs into the same arena buffer; keep
	// stepping until the retained slice shows it.
	recycled := false
	for i := 0; i < 4 && !recycled; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
		recycled = !bytes.Equal(made, madeWas)
	}
	if !recycled {
		t.Fatal("the reconstructed track's buffer was never reused; the test no longer exercises recycling")
	}

	if len(clone.Delivered) != len(want) {
		t.Fatalf("clone lost deliveries: %d, want %d", len(clone.Delivered), len(want))
	}
	for _, d := range clone.Delivered {
		if !bytes.Equal(d.Data, want[d.Track]) {
			t.Errorf("clone track %d corrupted by buffer recycling", d.Track)
		}
	}
}

// TestReportBackingReused documents why retention without Clone is
// unsafe — and pins the exact window. The engine assembles every cycle
// into one CycleReport struct: consecutive Steps hand out the same
// pointer, so a report retained across a Step silently shows the newest
// cycle's contents.
func TestReportBackingReused(t *testing.T) {
	r := newRig(t, 8, 4, 1, 4, layout.DedicatedParity)
	e, err := NewStreamingRAID(r.config())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddStreamAt(r.object(t, 0), 0); err != nil {
		t.Fatal(err)
	}
	step := func() *sched.CycleReport {
		rep, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	first := step()
	cycle := first.Cycle
	second := step()
	if first != second {
		t.Fatal("consecutive Steps returned different report structs; the engine keeps a generation the one-Step contract has no use for")
	}
	if first.Cycle != cycle+1 {
		t.Errorf("retained report shows cycle %d after the next Step, want %d", first.Cycle, cycle+1)
	}
}
