package schemes

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"ftmm/internal/layout"
	"ftmm/internal/sched"
)

// goldenDigest folds values into one FNV-1a hash, length-prefixing the
// variable-size ones so adjacent fields cannot alias.
type goldenDigest struct{ h hash.Hash64 }

func (d goldenDigest) ints(vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		d.h.Write(b[:])
	}
}

func (d goldenDigest) bytes(p []byte) {
	d.ints(len(p))
	d.h.Write(p)
}

func (d goldenDigest) flag(b bool) {
	if b {
		d.ints(1)
	} else {
		d.ints(0)
	}
}

// report folds in every field of one cycle's report, payload included.
func (d goldenDigest) report(rep *sched.CycleReport) {
	d.ints(rep.Cycle, len(rep.Delivered))
	for _, dl := range rep.Delivered {
		d.ints(dl.StreamID, dl.Track)
		d.flag(dl.Reconstructed)
		d.bytes(dl.Data)
	}
	d.ints(len(rep.Hiccups))
	for _, hc := range rep.Hiccups {
		d.ints(hc.StreamID, hc.Track)
		d.bytes([]byte(hc.Reason))
	}
	d.ints(rep.DataReads, rep.ParityReads, rep.Reconstructions, rep.BufferInUse)
	d.ints(len(rep.Finished))
	d.ints(rep.Finished...)
	d.ints(len(rep.Terminated))
	d.ints(rep.Terminated...)
}

// runGoldenSchedule drives one engine through the fixed schedule the
// refactor guard pins: a lockstep pair plus staggered admissions, a late
// join onto the pair's group, a drive failure (boundary or mid-cycle), a
// cancellation, a fast-forward where the engine has one, a late join
// under failure, a repair through the online rebuilder, then failures in
// two further clusters. Every admission outcome and every CycleReport is
// folded into the returned digest.
func runGoldenSchedule(t *testing.T, e Simulator, r *rig, midCycle bool) uint64 {
	t.Helper()
	d := goldenDigest{fnv.New64a()}
	admit := func(obj, group int) {
		id, err := e.AddStreamAt(r.object(t, obj), group)
		d.ints(id)
		d.flag(err == nil)
	}
	setRate := func(id, rate int) {
		if rs, ok := e.(interface{ SetStreamRate(id, rate int) error }); ok {
			d.flag(rs.SetStreamRate(id, rate) == nil)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for cyc := 0; cyc < 400; cyc++ {
		switch cyc {
		case 0:
			admit(0, 0)
			admit(0, 0)
			admit(1, 0)
		case 1:
			setRate(0, 2)
			admit(2, 0)
		case 3:
			setRate(0, 1)
			admit(0, 3)
			for obj := 0; obj < 4; obj++ {
				admit(obj, 0)
				admit(obj, 0)
			}
		case 5:
			if ib, ok := e.(*ImprovedBandwidth); ok && midCycle {
				must(ib.FailDiskMidCycle(1))
			} else {
				must(e.FailDisk(1))
			}
		case 6:
			must(e.CancelStream(1))
		case 7:
			setRate(2, 3)
		case 9:
			admit(1, 2)
		case 12:
			must(repairDrive(e, r, 1))
		case 14:
			must(e.FailDisk(5))
		case 15:
			must(e.FailDisk(11))
			admit(2, 1)
		case 16:
			must(e.FailDisk(4))
		}
		if wa, ok := e.(interface{ WeightedActive() int }); ok {
			d.ints(wa.WeightedActive())
		}
		for id := 0; id < 4; id++ {
			next, total, ok := e.StreamProgress(id)
			d.ints(next, total)
			d.flag(ok)
		}
		rep, err := e.Step()
		must(err)
		d.report(rep)
		if cyc > 16 && e.Active() == 0 {
			// One more Step drops the engine's holds on the last
			// deliveries; nothing may be left behind.
			rep, err := e.Step()
			must(err)
			d.report(rep)
			if n := e.BufferInUse(); n != 0 {
				t.Fatalf("%d tracks still buffered after drain", n)
			}
			if n := e.Arena().Outstanding(); n != 0 {
				t.Fatalf("%d shared track buffers never released", n)
			}
			d.ints(e.BufferPeak())
			return d.h.Sum64()
		}
	}
	t.Fatalf("%s: streams still active after 400 cycles", e.Name())
	return 0
}

// TestEngineReportsGolden is the refactor guard: each engine
// configuration's digest over the fixed schedule was computed before the
// engines were folded onto one chassis and must never move without an
// intended change of behaviour.
func TestEngineReportsGolden(t *testing.T) {
	clustered := func(p layout.Placement) func(*testing.T) *rig {
		return func(t *testing.T) *rig { return newRig(t, 15, 5, 4, 20, p) }
	}
	cases := []struct {
		name     string
		rig      func(*testing.T) *rig
		build    func(Config) (Simulator, error)
		midCycle bool
		want     uint64
	}{
		{"sr", clustered(layout.DedicatedParity), func(c Config) (Simulator, error) { return NewStreamingRAID(c) }, false, 0xa3712c82e2ae446c},
		{"sg", clustered(layout.DedicatedParity), func(c Config) (Simulator, error) { return NewStaggeredGroup(c) }, false, 0x2e137f9c84249122},
		{"nc-simple", clustered(layout.DedicatedParity), func(c Config) (Simulator, error) { return NewNonClustered(c, SimpleSwitchover, 1) }, false, 0xab596d5e0467ff37},
		{"nc-alternate", clustered(layout.DedicatedParity), func(c Config) (Simulator, error) { return NewNonClustered(c, AlternateSwitchover, 1) }, false, 0xca89dd379feb4c50},
		{"ib-boundary", clustered(layout.IntermixedParity), func(c Config) (Simulator, error) { return NewImprovedBandwidth(c, 1) }, false, 0x413eeebfed83cb82},
		{"ib-midcycle", clustered(layout.IntermixedParity), func(c Config) (Simulator, error) { return NewImprovedBandwidth(c, 0) }, true, 0xfea0d3553f6d5707},
		{"dc", func(t *testing.T) *rig { return newDeclusteredRig(t, 26, 13, 4, 4, 20) },
			func(c Config) (Simulator, error) { return NewDeclustered(c) }, false, 0x903f96374f1d8287},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first uint64
			for _, workers := range []int{1, 4} {
				r := tc.rig(t)
				cfg := r.config()
				cfg.SlotsPerDisk = 3
				cfg.Workers = workers
				e, err := tc.build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := runGoldenSchedule(t, e, r, tc.midCycle)
				if workers == 1 {
					first = got
				} else if got != first {
					t.Fatalf("workers=%d digest %#x, serial %#x", workers, got, first)
				}
			}
			if first != tc.want {
				t.Errorf("digest %#x, golden %#x", first, tc.want)
			}
		})
	}
}
