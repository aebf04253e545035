package schemes

import (
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"testing"

	"ftmm/internal/layout"
	"ftmm/internal/sched"
)

// digestReport folds everything a CycleReport says — payload bytes
// included, by checksum — into h.
func digestReport(h interface{ Write([]byte) (int, error) }, rep *sched.CycleReport) {
	fmt.Fprintf(h, "c%d r%d/%d x%d b%d f%v t%v|", rep.Cycle, rep.DataReads, rep.ParityReads,
		rep.Reconstructions, rep.BufferInUse, rep.Finished, rep.Terminated)
	for _, d := range rep.Delivered {
		fmt.Fprintf(h, "d%d %s %d %v %08x|", d.StreamID, d.ObjectID, d.Track, d.Reconstructed, crc32.ChecksumIEEE(d.Data))
	}
	for _, hc := range rep.Hiccups {
		fmt.Fprintf(h, "h%d %s %d %s|", hc.StreamID, hc.ObjectID, hc.Track, hc.Reason)
	}
}

// TestEnginesForgetEndedStreams churns 2000 short streams through every
// engine — admissions every cycle, a cancel now and then, a drive
// failing mid-run — and holds each engine to two things: its stream
// list never outgrows the streams it is serving plus those that ended
// in the cycle just run, and forgetting changes nothing a report says
// (the digests are those of the same script at the commit before
// engines forgot anything, when every stream ever admitted stayed
// listed).
func TestEnginesForgetEndedStreams(t *testing.T) {
	const total, perCycle = 2000, 6
	dedicated := func(t *testing.T) *rig { return newRig(t, 8, 4, 4, 2, layout.DedicatedParity) }
	for _, tc := range []struct {
		name   string
		rig    func(t *testing.T) *rig
		build  func(r *rig) (Simulator, func() int, error)
		digest uint64
	}{
		{"sr", dedicated, func(r *rig) (Simulator, func() int, error) {
			e, err := NewStreamingRAID(r.config())
			return e, func() int { return len(e.streams) }, err
		}, 0xa32633ac4cf3afae},
		{"sg", dedicated, func(r *rig) (Simulator, func() int, error) {
			e, err := NewStaggeredGroup(r.config())
			return e, func() int { return len(e.streams) }, err
		}, 0x2be64d7e7f31622f},
		{"nc", dedicated, func(r *rig) (Simulator, func() int, error) {
			e, err := NewNonClustered(r.config(), AlternateSwitchover, 1)
			return e, func() int { return len(e.streams) }, err
		}, 0x7bb1886bea476dfd},
		{"ib", func(t *testing.T) *rig { return newRig(t, 8, 4, 4, 2, layout.IntermixedParity) },
			func(r *rig) (Simulator, func() int, error) {
				e, err := NewImprovedBandwidth(r.config(), 1)
				return e, func() int { return len(e.streams) }, err
			}, 0x7eefbc4797f325a2},
		{"dc", func(t *testing.T) *rig { return newDeclusteredRig(t, 13, 13, 4, 4, 2) },
			func(r *rig) (Simulator, func() int, error) {
				e, err := NewDeclustered(r.config())
				return e, func() int { return len(e.streams) }, err
			}, 0x166059678d547501},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.rig(t)
			e, listed, err := tc.build(r)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			admitted, lastID := 0, -1
			for cycle := 0; admitted < total || e.Active() > 0; cycle++ {
				if cycle > 20*total {
					t.Fatalf("churn stuck: %d admitted, %d active", admitted, e.Active())
				}
				ended := 0
				if cycle == 50 {
					if err := e.FailDisk(1); err != nil {
						t.Fatal(err)
					}
				}
				if cycle%7 == 3 && lastID >= 0 {
					// Hang up the newest stream, if it is still playing.
					if e.(interface{ CancelStream(int) error }).CancelStream(lastID) == nil {
						ended++
					}
				}
				for i := 0; i < perCycle && admitted < total; i++ {
					id, err := e.AddStreamAt(r.object(t, (admitted+i)%4), 0)
					if err != nil {
						continue // full at this start position; the next title may fit
					}
					admitted++
					lastID = id
				}
				rep, err := e.Step()
				if err != nil {
					t.Fatal(err)
				}
				digestReport(h, rep)
				ended += len(rep.Finished) + len(rep.Terminated)
				if n, bound := listed(), e.Active()+ended; n > bound {
					t.Fatalf("cycle %d: engine lists %d streams with %d active and %d ended this cycle", cycle, n, e.Active(), ended)
				}
			}
			if got := h.Sum64(); got != tc.digest {
				t.Errorf("report digest %#x, want %#x", got, tc.digest)
			}
		})
	}
}
