package schemes

import (
	"fmt"
	"strings"
	"testing"

	"ftmm/internal/layout"
	"ftmm/internal/sched"
)

// hastyRAID is Streaming RAID delivering each group in the cycle it is
// read instead of the next: a made track goes out while its fold is
// still queued.
type hastyRAID struct{ *StreamingRAID }

func (e hastyRAID) Step() (*sched.CycleReport, error) {
	e.beginCycle()
	if err := e.stageReads(); err != nil {
		return nil, err
	}
	for _, s := range e.streams {
		s.staged, s.delivering = s.delivering, s.staged
	}
	if err := e.deliverDouble("parity group unrecoverable"); err != nil {
		return nil, err
	}
	return e.endCycle()
}

// TestMadeTrackOutWithItsFoldFailsStep: a Step whose report holds a
// made track still queued for its fold fails, naming the stream and the
// track, rather than hand out a buffer the fold workers may be writing.
// Read tracks are views and pass.
func TestMadeTrackOutWithItsFoldFailsStep(t *testing.T) {
	r := newRig(t, 10, 5, 1, 10, layout.DedicatedParity)
	sr, err := NewStreamingRAID(r.config())
	if err != nil {
		t.Fatal(err)
	}
	e := hastyRAID{sr}
	obj := r.object(t, 0)
	id, err := e.AddStreamAt(obj, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Group 0 goes out healthy; group 1 loses its second data drive.
	rep, err := e.Step()
	if err != nil {
		t.Fatalf("healthy Step: %v", err)
	}
	if len(rep.Delivered) != len(obj.Groups[0].Data) {
		t.Fatalf("healthy Step delivered %d tracks, want group 0's %d", len(rep.Delivered), len(obj.Groups[0].Data))
	}
	if err := e.FailDisk(obj.Groups[1].Data[1].Disk); err != nil {
		t.Fatal(err)
	}
	_, err = e.Step()
	want := fmt.Sprintf("stream %d's track %d goes out in the cycle its fold was queued", id, len(obj.Groups[0].Data)+1)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Step delivering a made track with its fold queued: %v, want an error containing %q", err, want)
	}
}
