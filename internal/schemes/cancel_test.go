package schemes

import (
	"testing"

	"ftmm/internal/layout"
)

// CancelStream at the engine level: the stream stops consuming capacity
// immediately, its buffers return to the pool, and the remaining streams
// finish bit-exactly.
func TestCancelStreamAllEngines(t *testing.T) {
	type engineCase struct {
		name   string
		place  layout.Placement
		build  func(r *rig) (Simulator, error)
		cancel func(e Simulator, id int) error
		inUse  func(e Simulator) int
	}
	cases := []engineCase{
		{"SR", layout.DedicatedParity,
			func(r *rig) (Simulator, error) { return NewStreamingRAID(r.config()) },
			func(e Simulator, id int) error { return e.(*StreamingRAID).CancelStream(id) },
			func(e Simulator) int { return e.(*StreamingRAID).BufferInUse() }},
		{"SG", layout.DedicatedParity,
			func(r *rig) (Simulator, error) { return NewStaggeredGroup(r.config()) },
			func(e Simulator, id int) error { return e.(*StaggeredGroup).CancelStream(id) },
			func(e Simulator) int { return e.(*StaggeredGroup).BufferInUse() }},
		{"NC", layout.DedicatedParity,
			func(r *rig) (Simulator, error) { return NewNonClustered(r.config(), AlternateSwitchover, 2) },
			func(e Simulator, id int) error { return e.(*NonClustered).CancelStream(id) },
			func(e Simulator) int { return e.(*NonClustered).BufferInUse() }},
		{"IB", layout.IntermixedParity,
			func(r *rig) (Simulator, error) { return NewImprovedBandwidth(r.config(), 2) },
			func(e Simulator, id int) error { return e.(*ImprovedBandwidth).CancelStream(id) },
			func(e Simulator) int { return e.(*ImprovedBandwidth).BufferInUse() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 10, 5, 2, 10, tc.place)
			e, err := tc.build(r)
			if err != nil {
				t.Fatal(err)
			}
			id0, err := e.AddStreamAt(r.object(t, 0), 0)
			if err != nil {
				t.Fatal(err)
			}
			stepN(t, e, 1)
			id1, err := e.AddStreamAt(r.object(t, 1), 0)
			if err != nil {
				t.Fatal(err)
			}
			early, _, _ := stepN(t, e, 3)
			if err := tc.cancel(e, id0); err != nil {
				t.Fatal(err)
			}
			if e.Active() != 1 {
				t.Fatalf("active = %d after cancel, want 1", e.Active())
			}
			// Cancelling again, or a bogus ID, fails.
			if err := tc.cancel(e, id0); err == nil {
				t.Fatal("double cancel accepted")
			}
			if err := tc.cancel(e, 999); err == nil {
				t.Fatal("bogus cancel accepted")
			}
			deliveries, hiccups, _ := runToCompletion(t, e, 200)
			if len(hiccups) != 0 {
				t.Fatalf("hiccups after cancel: %v", hiccups)
			}
			all := merge(early, deliveries)
			verifyStream(t, r, r.object(t, 1), all[id1], nil)
			if tc.inUse(e) != 0 {
				t.Fatalf("buffers leaked after cancel: %d", tc.inUse(e))
			}
			// The cancelled stream's slot is reusable.
			if _, err := e.AddStreamAt(r.object(t, 0), 0); err != nil {
				t.Fatalf("slot not freed: %v", err)
			}
		})
	}

	// A whole-group stream cancelled at rate 3 holds three delivering
	// groups, some of them reconstructed around a failed drive, whose
	// folds the last Step started and no Step has waited for yet: the
	// cancel waits for them (put) and returns every pool track and every
	// made buffer but those the last report lends, which the next Step
	// takes back.
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) (*StreamingRAID, *rig, error)
	}{
		{"SR fast-forward", func(t *testing.T) (*StreamingRAID, *rig, error) {
			r := newRig(t, 10, 5, 1, 10, layout.DedicatedParity)
			e, err := NewStreamingRAID(r.config())
			return e, r, err
		}},
		{"DC fast-forward", func(t *testing.T) (*StreamingRAID, *rig, error) {
			r := newDeclusteredRig(t, 26, 13, 4, 1, 10)
			e, err := NewDeclustered(r.config())
			return e, r, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, r, err := tc.build(t)
			if err != nil {
				t.Fatal(err)
			}
			// The second Step reads groups 3 to 5: fail a drive of group 3.
			obj := r.object(t, 0)
			if err := e.FailDisk(obj.Groups[3].Data[0].Disk); err != nil {
				t.Fatal(err)
			}
			id, err := e.AddStreamAt(obj, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.SetStreamRate(id, 3); err != nil {
				t.Fatal(err)
			}
			_, _, reps := stepN(t, e, 2)
			if n := len(e.streams[0].delivering); n != 3 {
				t.Fatalf("%d groups delivering at rate 3, want 3", n)
			}
			if reps[1].Reconstructions == 0 || e.Arena().Outstanding() == 0 {
				t.Fatal("no reconstructed track held")
			}
			started := 0
			for _, bg := range e.streams[0].delivering {
				for k, made := range bg.reconstructed {
					if made && e.folds.Queued(bg.data[k]) {
						started++
					}
				}
			}
			if started == 0 {
				t.Fatal("no delivering track's fold still started when the Step returned")
			}
			if err := e.CancelStream(id); err != nil {
				t.Fatal(err)
			}
			// Only the made tracks the last report lends are still out;
			// the next Step's beginCycle takes them back.
			lent := int64(0)
			for _, d := range reps[1].Delivered {
				if d.Reconstructed {
					lent++
				}
			}
			if n, out := e.BufferInUse(), e.Arena().Outstanding(); n != 0 || out != lent {
				t.Fatalf("after cancel between Steps: %d pool tracks, %d arena buffers outstanding, want 0 and the last report's %d", n, out, lent)
			}
			stepN(t, e, 1)
			if n, out := e.BufferInUse(), e.Arena().Outstanding(); n != 0 || out != 0 {
				t.Fatalf("after cancel and a Step: %d pool tracks, %d arena buffers outstanding", n, out)
			}
		})
	}
}
