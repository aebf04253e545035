package schemes

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ftmm/internal/layout"
	"ftmm/internal/sched"
)

// sweepScheme names one engine configuration of the admission sweep and
// the placement its layout needs.
type sweepScheme struct {
	name      string
	placement layout.Placement
	build     func(cfg Config, k int) (Simulator, error)
}

// sweepSchemes are the five schemes, with Non-clustered under both
// switchover policies: the simple one's degraded group reads move a
// stream's read pointer a whole group at a time. k is NC's buffer
// servers and IB's per-drive slot reserve.
var sweepSchemes = []sweepScheme{
	{"sr", layout.DedicatedParity, func(cfg Config, _ int) (Simulator, error) { return NewStreamingRAID(cfg) }},
	{"sg", layout.DedicatedParity, func(cfg Config, _ int) (Simulator, error) { return NewStaggeredGroup(cfg) }},
	{"nc", layout.DedicatedParity, func(cfg Config, k int) (Simulator, error) { return NewNonClustered(cfg, AlternateSwitchover, k) }},
	{"nc-simple", layout.DedicatedParity, func(cfg Config, k int) (Simulator, error) { return NewNonClustered(cfg, SimpleSwitchover, k) }},
	{"ib", layout.IntermixedParity, func(cfg Config, k int) (Simulator, error) { return NewImprovedBandwidth(cfg, k) }},
	{"dc", layout.DeclusteredParity, func(cfg Config, _ int) (Simulator, error) { return NewDeclustered(cfg) }},
}

// sweepRig builds the sweep's farm for one scheme: two titles per
// cluster (per declustering group under dc), at staggered start
// clusters, each long enough to outlast the fill.
func sweepRig(t *testing.T, s sweepScheme, d, c, g int) *rig {
	t.Helper()
	const groupsEach = 8
	if s.placement == layout.DeclusteredParity {
		return newDeclusteredRig(t, d, g, c, 2*d/g, groupsEach)
	}
	return newRig(t, d, c, 2*d/c, groupsEach, s.placement)
}

// fillAdmitted admits streams until the engine refuses, over C-1
// cycles (the read-phase period of the one-track engines): in each
// cycle every title in turn is admitted at group 0 until it is refused,
// then the engine steps. It returns how many admissions succeeded.
func fillAdmitted(t *testing.T, e Simulator, r *rig, titles, width int) int {
	t.Helper()
	admitted := 0
	for cycle := 0; cycle < width; cycle++ {
		for i := 0; i < titles; i++ {
			for admitted < 10_000 {
				if _, err := e.AddStreamAt(r.object(t, i), 0); err != nil {
					break
				}
				admitted++
			}
		}
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return admitted
}

// TestAdmittedNSweep pins how many streams each scheme admits over small
// (D, C, G, K) design points, on a healthy farm and with drive 0 down:
// slots is the per-drive budget (0 derives it from Table 1's drive). The
// table was recorded before admission became one rule over per-engine
// footprints, which must reproduce it exactly.
func TestAdmittedNSweep(t *testing.T) {
	for _, pt := range []struct {
		d, c, g, k, slots int
		// want holds the healthy and the degraded N of each
		// sweepSchemes entry, in its order: sr, sg, nc, nc-simple, ib, dc.
		want [][2]int
	}{
		{8, 4, 4, 1, 0, [][2]int{{76, 76}, {72, 72}, {72, 48}, {72, 48}, {74, 74}, {76, 76}}},
		{8, 4, 4, 1, 3, [][2]int{{6, 6}, {18, 18}, {18, 12}, {18, 12}, {4, 4}, {6, 6}}},
		{10, 5, 5, 1, 0, [][2]int{{104, 104}, {96, 96}, {96, 60}, {96, 60}, {102, 102}, {104, 104}}},
		{12, 3, 6, 1, 0, [][2]int{{100, 100}, {96, 96}, {96, 84}, {96, 84}, {96, 96}, {50, 50}}},
		{12, 4, 6, 2, 3, [][2]int{{9, 9}, {27, 27}, {27, 21}, {27, 21}, {3, 3}, {6, 6}}},
		{14, 7, 7, 2, 0, [][2]int{{156, 156}, {144, 144}, {144, 84}, {144, 84}, {152, 152}, {156, 156}}},
		{18, 3, 9, 1, 2, [][2]int{{12, 12}, {24, 24}, {24, 22}, {24, 22}, {6, 6}, {4, 4}}},
		{21, 3, 7, 1, 0, [][2]int{{175, 175}, {168, 168}, {168, 156}, {168, 156}, {168, 168}, {75, 75}}},
	} {
		for i, s := range sweepSchemes {
			for mode, down := range []bool{false, true} {
				name := fmt.Sprintf("D%d-C%d-G%d-K%d-S%d/%s/down=%v", pt.d, pt.c, pt.g, pt.k, pt.slots, s.name, down)
				t.Run(name, func(t *testing.T) {
					r := sweepRig(t, s, pt.d, pt.c, pt.g)
					cfg := r.config()
					cfg.SlotsPerDisk = pt.slots
					e, err := s.build(cfg, pt.k)
					if err != nil {
						t.Fatal(err)
					}
					if down {
						if err := e.FailDisk(0); err != nil {
							t.Fatal(err)
						}
						if _, err := e.Step(); err != nil {
							t.Fatal(err)
						}
					}
					got := fillAdmitted(t, e, r, r.lay.Objects(), pt.c-1)
					if want := pt.want[i][mode]; got != want {
						t.Errorf("%s admits %d streams, pinned %d", name, got, want)
					}
				})
			}
		}
	}
}

// TestAdmissionNeverOvercommits is admission's safety property: on a
// healthy farm no sequence of admissions at any group, fast-forwards,
// rate drops and cancellations makes a cycle short of slots, so every
// cycle delivers with zero hiccups and terminates no stream. Each
// scheme runs seeded random sequences on farms of two and three
// clusters with two and three slots per drive.
func TestAdmissionNeverOvercommits(t *testing.T) {
	for _, s := range sweepSchemes {
		for _, f := range []struct{ d, c, g int }{{8, 4, 4}, {12, 4, 6}, {9, 3, 3}} {
			t.Run(fmt.Sprintf("%s/D%d-C%d-G%d", s.name, f.d, f.c, f.g), func(t *testing.T) {
				// A healthy run only reads the farm, so the runs share it.
				r := sweepRig(t, s, f.d, f.c, f.g)
				for slots := 2; slots <= 3; slots++ {
					for seed := int64(1); seed <= 4; seed++ {
						t.Run(fmt.Sprintf("S%d/seed%d", slots, seed), func(t *testing.T) {
							cfg := r.config()
							cfg.SlotsPerDisk = slots
							e, err := s.build(cfg, 1)
							if err != nil {
								t.Fatal(err)
							}
							overcommitWalk(t, e, r, rand.New(rand.NewSource(seed)), 80)
						})
					}
				}
			})
		}
	}
}

// overcommitWalk runs cycles cycles of random admission traffic against
// e and fails on the first hiccup or termination.
func overcommitWalk(t *testing.T, e Simulator, r *rig, rng *rand.Rand, cycles int) {
	t.Helper()
	rs, _ := e.(interface{ SetStreamRate(id, rate int) error })
	var ids []int
	for cycle := 0; cycle < cycles; cycle++ {
		for op := rng.Intn(4); op > 0; op-- {
			switch p := rng.Intn(20); {
			case p < 10 || len(ids) == 0:
				obj := r.object(t, rng.Intn(r.lay.Objects()))
				if id, err := e.AddStreamAt(obj, rng.Intn(len(obj.Groups))); err == nil {
					ids = append(ids, id)
				}
			case p < 14 && rs != nil:
				_ = rs.SetStreamRate(ids[rng.Intn(len(ids))], 2+rng.Intn(3))
			case p < 17 && rs != nil:
				_ = rs.SetStreamRate(ids[rng.Intn(len(ids))], 1)
			default:
				_ = e.CancelStream(ids[rng.Intn(len(ids))])
			}
		}
		rep, err := e.Step()
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		for _, h := range rep.Hiccups {
			t.Fatalf("cycle %d: stream %d track %d hiccups (%s) on a healthy farm", rep.Cycle, h.StreamID, h.Track, h.Reason)
		}
		if len(rep.Terminated) > 0 {
			t.Fatalf("cycle %d: streams %v terminated on a healthy farm", rep.Cycle, rep.Terminated)
		}
	}
}

// A whole-group read refused its slots says so: a stream slipped past
// admission onto a full cluster stages an empty group, whose tracks
// hiccup with LostNoSlot, not as a group parity could not rebuild.
func TestSlotRefusalHiccupsNoSlot(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(Config) (Simulator, error)
		// slip adds a stream with ID 7 on obj behind admission's back.
		slip func(Simulator, *layout.Object)
	}{
		{"sr", func(cfg Config) (Simulator, error) { return NewStreamingRAID(cfg) },
			func(e Simulator, obj *layout.Object) {
				sr := e.(*StreamingRAID)
				sr.streams = append(sr.streams, &groupStream{Stream: sched.Stream{ID: 7, Obj: obj}})
			}},
		{"sg", func(cfg Config) (Simulator, error) { return NewStaggeredGroup(cfg) },
			func(e Simulator, obj *layout.Object) {
				sg := e.(*StaggeredGroup)
				sg.streams = append(sg.streams, &sgStream{Stream: sched.Stream{ID: 7, Obj: obj}})
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 10, 5, 1, 4, layout.DedicatedParity)
			cfg := r.config()
			cfg.SlotsPerDisk = 1
			e, err := tc.build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			obj := r.object(t, 0)
			if _, err := e.AddStreamAt(obj, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := e.AddStreamAt(obj, 0); !errors.Is(err, ErrCapacity) {
				t.Fatalf("admission onto a full cluster: %v, want ErrCapacity", err)
			}
			tc.slip(e, obj)
			_, hiccups, _ := stepN(t, e, 8)
			if len(hiccups) == 0 {
				t.Fatal("the stream past admission never hiccuped")
			}
			for _, h := range hiccups {
				if h.StreamID != 7 || h.Reason != LostNoSlot {
					t.Fatalf("stream %d track %d hiccups (%s), want stream 7's with %q", h.StreamID, h.Track, h.Reason, LostNoSlot)
				}
			}
		})
	}
}
