package schemes

import (
	"errors"
	"hash/fnv"
	"testing"

	"ftmm/internal/disk"
	"ftmm/internal/layout"
	"ftmm/internal/rebuild"
)

// platterDigests hashes every stored track of every operational drive,
// keyed by (drive, track).
func platterDigests(t *testing.T, farm *disk.Farm) map[[2]int]uint64 {
	t.Helper()
	out := map[[2]int]uint64{}
	for id := 0; id < farm.Size(); id++ {
		drv, err := farm.Drive(id)
		if err != nil {
			t.Fatal(err)
		}
		for tr := 0; tr < drv.Tracks(); tr++ {
			view, err := drv.View(tr)
			if errors.Is(err, disk.ErrEmptyTrack) {
				continue
			}
			if err != nil {
				t.Fatalf("drive %d track %d: %v", id, tr, err)
			}
			h := fnv.New64a()
			h.Write(view)
			out[[2]int{id, tr}] = h.Sum64()
		}
	}
	return out
}

// TestEnginesNeverWritePlatter pins the lend: every engine delivers the
// tracks it reads as the platter's own slices and makes only what parity
// makes. Each scheme runs a healthy phase, a drive failure with
// reconstruct-on-read, a cancel, fast-forward where the engine has it,
// IB's parity shift, and an online rebuild of the failed drive, then
// drains. Afterwards
//   - every platter track hashes as it did before the first Step (a fold
//     into a parity view, or any write through a delivered slice, would
//     change one);
//   - healthy cycles took nothing from the arena, and every other cycle
//     took exactly one buffer per reconstruction it reports — except
//     NC-alternate, whose gets are its XOR accumulators, each of which
//     becomes at most one reconstruction;
//   - nothing is outstanding: every made track was released.
func TestEnginesNeverWritePlatter(t *testing.T) {
	clustered := func(p layout.Placement) func(*testing.T) *rig {
		return func(t *testing.T) *rig { return newRig(t, 15, 5, 6, 12, p) }
	}
	cases := []struct {
		name  string
		rig   func(*testing.T) *rig
		slots int
		build func(Config) (Simulator, error)
	}{
		{"sr", clustered(layout.DedicatedParity), 3, func(c Config) (Simulator, error) { return NewStreamingRAID(c) }},
		{"sg", clustered(layout.DedicatedParity), 3, func(c Config) (Simulator, error) { return NewStaggeredGroup(c) }},
		{"nc-simple", clustered(layout.DedicatedParity), 3, func(c Config) (Simulator, error) { return NewNonClustered(c, SimpleSwitchover, 1) }},
		{"nc-alternate", clustered(layout.DedicatedParity), 3, func(c Config) (Simulator, error) { return NewNonClustered(c, AlternateSwitchover, 1) }},
		// Two slots and no reserve: a full farm, so a parity read of the
		// shift finds its drive busy and displaces a victim's read.
		{"ib", clustered(layout.IntermixedParity), 2, func(c Config) (Simulator, error) { return NewImprovedBandwidth(c, 0) }},
		{"dc", func(t *testing.T) *rig { return newDeclusteredRig(t, 26, 13, 4, 6, 12) }, 4,
			func(c Config) (Simulator, error) { return NewDeclustered(c) }},
	}
	const failed, failCycle = 1, 5
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.rig(t)
			cfg := r.config()
			cfg.SlotsPerDisk = tc.slots
			e, err := tc.build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			before := platterDigests(t, r.farm)

			var ids []int
			admit := func(objs ...int) {
				for _, o := range objs {
					if id, err := e.AddStreamAt(r.object(t, o), 0); err == nil {
						ids = append(ids, id)
					}
				}
			}
			setRate := func(rate int) {
				if rs, ok := e.(interface{ SetStreamRate(id, rate int) error }); ok {
					if err := rs.SetStreamRate(ids[0], rate); err != nil {
						t.Fatal(err)
					}
				}
			}
			var rb *rebuild.Rebuilder
			gets, recs := int64(0), 0
			for cyc := 0; ; cyc++ {
				if cyc == 400 {
					t.Fatal("streams still active after 400 cycles")
				}
				switch cyc {
				case 0:
					admit(0, 3)
				case 1:
					admit(2)
				case 2:
					admit(1, 4)
				case 3:
					setRate(2)
				case 4:
					admit(5)
				case failCycle:
					if err := e.FailDisk(failed); err != nil {
						t.Fatal(err)
					}
				case 7:
					setRate(1)
				case 9:
					if err := e.CancelStream(ids[1]); err != nil {
						t.Fatal(err)
					}
				case 12:
					drv, err := r.farm.Drive(failed)
					if err != nil {
						t.Fatal(err)
					}
					if err := drv.Replace(); err != nil {
						t.Fatal(err)
					}
					if rb, err = rebuild.New(r.farm, r.lay, failed); err != nil {
						t.Fatal(err)
					}
				}
				if rb != nil && !rb.Done() {
					if _, err := rb.Step(4 * r.lay.GroupWidth()); err != nil {
						t.Fatal(err)
					}
					if rb.Done() {
						drv, _ := r.farm.Drive(failed)
						if err := drv.Restored(); err != nil {
							t.Fatal(err)
						}
						if n, ok := e.(interface{ OnDriveRebuilt(int) error }); ok {
							if err := n.OnDriveRebuilt(failed); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				g0, _, _ := e.Arena().Stats()
				rep, err := e.Step()
				if err != nil {
					t.Fatalf("cycle %d: %v", cyc, err)
				}
				g1, _, _ := e.Arena().Stats()
				switch {
				case cyc < failCycle && g1 != g0:
					t.Fatalf("healthy cycle %d took %d arena buffers, want 0", cyc, g1-g0)
				case tc.name != "nc-alternate" && g1-g0 != int64(rep.Reconstructions):
					t.Fatalf("cycle %d took %d arena buffers for %d reconstructions", cyc, g1-g0, rep.Reconstructions)
				}
				gets += g1 - g0
				recs += rep.Reconstructions
				if cyc > 12 && rb.Done() && e.Active() == 0 {
					// One more Step drops the engine's holds on the last
					// deliveries.
					if _, err := e.Step(); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
			if recs == 0 {
				t.Fatal("no reconstructions: the degraded phase never read around the failed drive")
			}
			if gets < int64(recs) {
				t.Fatalf("%d arena gets for %d reconstructions", gets, recs)
			}
			if n := e.Arena().Outstanding(); n != 0 {
				t.Fatalf("%d arena buffers outstanding after drain", n)
			}
			if n := e.BufferInUse(); n != 0 {
				t.Fatalf("%d pool tracks in use after drain", n)
			}
			after := platterDigests(t, r.farm)
			if len(after) != len(before) {
				t.Fatalf("%d stored tracks after the run, %d before", len(after), len(before))
			}
			for k, h := range before {
				if after[k] != h {
					t.Fatalf("drive %d track %d changed during the run", k[0], k[1])
				}
			}
		})
	}
}
