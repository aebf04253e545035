package schemes

import (
	"bytes"
	"testing"

	"ftmm/internal/layout"
	"ftmm/internal/sched"
)

// TestReportRetentionNeedsClone pins the buffer ownership contract from
// the package doc: a CycleReport and the Data it references are valid
// only until the next Step, because the engine recycles delivery
// buffers through its arena. A caller that retains reports across
// cycles must Clone them — and a Clone must stay intact even when the
// original's buffers are recycled and scribbled over.
func TestReportRetentionNeedsClone(t *testing.T) {
	r := newRig(t, 8, 4, 1, 4, layout.DedicatedParity)
	e, err := NewStreamingRAID(r.config())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddStream(r.object(t, 0)); err != nil {
		t.Fatal(err)
	}

	// The first cycle only reads ahead; step until delivery starts.
	var rep *sched.CycleReport
	for i := 0; i < 4 && (rep == nil || len(rep.Delivered) == 0); i++ {
		var err error
		if rep, err = e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(rep.Delivered) == 0 {
		t.Fatal("no deliveries within the warmup window")
	}
	clone := rep.Clone()
	want := make(map[int][]byte, len(rep.Delivered))
	for _, d := range rep.Delivered {
		want[d.Track] = append([]byte(nil), d.Data...)
	}

	// Simulate the use-after-free: scribble over the recycled buffers the
	// original report still points at, then keep stepping so the engine
	// reuses its report backing arrays too.
	for i := range rep.Delivered {
		for j := range rep.Delivered[i].Data {
			rep.Delivered[i].Data[j] = 0xEE
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
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
	if _, err := e.AddStream(r.object(t, 0)); err != nil {
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
