// Package schemes implements the paper's four fault-tolerance schemes,
// and a fifth beyond it, as operational cycle-driven simulators over a
// real (simulated) disk farm:
//
//   - StreamingRAID (§2): whole parity group read per stream per cycle,
//     delivered the next cycle; single failures masked with zero hiccups.
//   - StaggeredGroup (§2): same layout, group read once per C-1 short
//     cycles and delivered one track per cycle; ~half the memory.
//   - NonClustered (§3): one track read per stream per cycle; a failure
//     puts the cluster through a C-cycle transition (losing some tracks,
//     per Figures 6-7) into a degraded group-at-a-time mode backed by a
//     shared buffer-server pool.
//   - ImprovedBandwidth (§4): parity intermixed on the next cluster; no
//     parity bandwidth spent in normal mode; failures masked by a chained
//     "shift to the right" into reserved capacity.
//
// The fifth scheme extends the paper: Declustered (NewDeclustered) is
// the StreamingRAID engine over a layout that maps parity groups onto
// block-design subsets of G-drive declustering groups, spreading rebuild
// load over every survivor instead of C-1 cluster mates.
//
// Every simulator moves real bytes: deliveries carry track content that
// tests compare against the originally written object data, so masking a
// failure means proving the reconstructed bytes are identical.
//
// # Report retention
//
// The *sched.CycleReport returned by Step — and every Delivery.Data
// slice inside it — is valid only until the engine's next Step: engines
// reuse the report's backing slices and recycle the track buffers they
// make (reconstructions, XOR accumulators) through a buffer.Arena
// (DESIGN.md, "Zero-alloc data path"). A track read off a platter is
// delivered as the drive's own slice with a nil Buf, so Delivery.Data is
// read-only for every consumer. A caller that holds a report across
// Steps must deep-copy it first with CycleReport.Clone (the chaos
// harness's retention checker holds every engine to the read-only
// platter views across the next Step), and
// the network layer Retains every non-nil Buf it ships before its cycle
// returns.
// Reading a stale report is a use-after-free the race detector cannot
// see — the bytes stay valid, just wrong.
package schemes

import (
	"errors"
	"fmt"
	"time"

	"ftmm/internal/buffer"
	"ftmm/internal/disk"
	"ftmm/internal/layout"
	"ftmm/internal/metrics"
	"ftmm/internal/sched"
	"ftmm/internal/units"
)

// Simulator is the behaviour common to all five scheme engines.
type Simulator interface {
	// Name returns the paper's name for the scheme.
	Name() string
	// Cycle returns the index of the next cycle Step will run.
	Cycle() int
	// CycleTime returns the wall-clock length of one cycle.
	CycleTime() time.Duration
	// AddStreamAt admits a stream for a placed object, returning its ID;
	// its delivery begins at the given parity group (0 for the title's
	// start, later for the session-resume seam cluster failover rides
	// on). Admission fails when the scheme's bandwidth budget is
	// exhausted.
	AddStreamAt(obj *layout.Object, startGroup int) (int, error)
	// CancelStream stops serving a stream immediately (a client hanging
	// up, not a degradation event) and returns its buffers.
	CancelStream(id int) error
	// StreamProgress reports the next track owed to the stream and its
	// object's total tracks; ok is false for streams the engine never
	// knew or has forgotten.
	StreamProgress(id int) (next, total int, ok bool)
	// Step simulates one cycle: reads, failure handling, deliveries.
	Step() (*sched.CycleReport, error)
	// FailDisk fails a drive at the upcoming cycle boundary.
	FailDisk(id int) error
	// Active returns the number of streams still being served.
	Active() int
	// BufferPeak returns the high-water buffer occupancy in tracks.
	BufferPeak() int
	// BufferInUse returns the current buffer occupancy in tracks; with
	// no streams active and deliveries drained it must return to zero
	// (the chaos harness's leak checker asserts exactly that).
	BufferInUse() int
	// Arena exposes the engine's track-buffer recycler, mainly so leak
	// tests can assert every shared buffer was Released.
	Arena() *buffer.Arena
	// SlotsPerDisk returns the per-disk per-cycle track budget in use.
	SlotsPerDisk() int
}

// Config carries what every scheme engine needs.
type Config struct {
	Farm   *disk.Farm
	Layout *layout.Layout
	// Rate is the object bandwidth b0 (uniform across streams, as in the
	// paper's analysis).
	Rate units.Rate
	// SlotsPerDisk overrides the per-disk per-cycle track budget; 0
	// derives it from the disk model and the scheme's cycle time.
	SlotsPerDisk int
	// Metrics, when non-nil, receives the engine's counters, gauges and
	// histograms (see sched.NewRecorder for the instrument set).
	Metrics *metrics.Registry
}

func (c Config) validate() error {
	if c.Farm == nil || c.Layout == nil {
		return errors.New("schemes: nil farm or layout")
	}
	if c.Rate <= 0 {
		return errors.New("schemes: object rate must be positive")
	}
	if c.SlotsPerDisk < 0 {
		return errors.New("schemes: negative slot budget")
	}
	if c.Farm.Size() != c.Layout.Clusters()*c.Layout.ClusterSize() ||
		c.Farm.ClusterSize() != c.Layout.ClusterSize() {
		return errors.New("schemes: farm and layout topologies differ")
	}
	return nil
}

// slotsFor resolves the per-disk budget for a cycle of the given length.
func (c Config) slotsFor(cycle time.Duration) (int, error) {
	if c.SlotsPerDisk > 0 {
		return c.SlotsPerDisk, nil
	}
	budget := c.Farm.Params().TrackBudget(cycle)
	if budget < 1 {
		return 0, fmt.Errorf("schemes: cycle of %v leaves no read budget", cycle)
	}
	return budget, nil
}

// groupRead is the outcome of reading one parity group with failures
// tolerated: per-track data (nil where unreadable) and the parity block
// (nil if unreadable).
type groupRead struct {
	data [][]byte
	par  []byte
}

// recoverGroup fills in a single missing data block from the others plus
// parity: c.reconstruct queues their fold into a fresh arena buffer,
// which takes the missing slot. The read blocks, parity included, are
// views and are only read. It returns the index recovered, or -1 if nothing was
// missing, and an error when recovery is impossible (two or more blocks
// missing, or parity unavailable).
func (gr *groupRead) recoverGroup(c *engineCore) (int, error) {
	missing := -1
	for i, d := range gr.data {
		if d == nil {
			if missing >= 0 {
				return 0, errors.New("schemes: two data blocks missing in one parity group (catastrophic)")
			}
			missing = i
		}
	}
	if missing < 0 {
		return -1, nil
	}
	if gr.par == nil {
		return 0, errors.New("schemes: missing block and no parity available")
	}
	// Parity stands in the missing slot for the fold, so the survivors
	// are gr.data itself.
	gr.data[missing] = gr.par
	rec, err := c.reconstruct(gr.data)
	gr.data[missing] = rec
	if err != nil {
		return 0, err
	}
	return missing, nil
}

// bufferedGroup is a fully (or partially) read parity group staged for
// one stream's delivery.
type bufferedGroup struct {
	group *layout.Group
	// data[i] holds track i of the group, nil where lost (or after it
	// was delivered).
	data [][]byte
	// reconstructed[i] marks tracks rebuilt from parity. It is also the
	// track's kind: a reconstructed track is an arena buffer the engine
	// made, any other is a platter view.
	reconstructed []bool
	// lost, when set, is why every track hiccups: LostNoSlot for a
	// group stageGroup was refused slots for, which read nothing.
	lost string
	// failure is the IB mid-cycle failure its lost tracks belong to.
	failure sched.Failure
	// next is the next in-group offset to deliver.
	next int
	// pooled is how many buffer-pool tracks the stream holds for this
	// group.
	pooled int
}
