package schemes

import (
	"fmt"

	"ftmm/internal/layout"
	"ftmm/internal/sched"
)

// StreamingRAID is the whole-group engine behind two schemes that differ
// only in where the layout puts parity groups, not in the cycle.
//
// Streaming RAID, the §2 baseline: for every active stream, every cycle,
// one entire parity group (C-1 data tracks plus parity, one track from
// each drive of one cluster) is read, and the group read in the previous
// cycle is delivered. Because the parity block is always in memory
// together with its group, any single drive failure per cluster is masked
// with zero hiccups, whenever it strikes.
//
// Declustered parity, the fifth scheme beyond the paper's four: the
// layout maps each group onto a C-drive block of a BIBD over a G-drive
// declustering group (layout.NewDeclustered), so consecutive groups touch
// different drive subsets and a failed drive's rebuild reads every
// survivor of its group at rate (C-1)/(G-1) instead of saturating C-1
// cluster mates. The rebuild window shrinks by the same factor; with the
// default G = 2C-1 it halves. A block that lost two drives is
// unrecoverable and surfaces as hiccups.
type StreamingRAID struct {
	groupEngine
	name string
}

// NewStreamingRAID builds the engine over a dedicated-parity layout.
func NewStreamingRAID(cfg Config) (*StreamingRAID, error) {
	return newWholeGroup(cfg, "Streaming RAID", layout.DedicatedParity)
}

// NewDeclustered builds the engine over a declustered-parity layout (the
// farm's clusters are the G-drive declustering groups).
func NewDeclustered(cfg Config) (*StreamingRAID, error) {
	return newWholeGroup(cfg, "Declustered-parity", layout.DeclusteredParity)
}

func newWholeGroup(cfg Config, name string, placement layout.Placement) (*StreamingRAID, error) {
	if cfg.Layout != nil && cfg.Layout.Placement() != placement {
		return nil, fmt.Errorf("schemes: %s needs %v, got %v", name, placement, cfg.Layout.Placement())
	}
	core, err := newEngineCore(cfg, cfg.Layout.GroupWidth())
	if err != nil {
		return nil, err
	}
	return &StreamingRAID{groupEngine: groupEngine{engineCore: core}, name: name}, nil
}

// Name implements Simulator.
func (e *StreamingRAID) Name() string { return e.name }

// SetStreamRate sets a stream's playback multiplier (1 = normal, r > 1
// = fast-forward reading r parity groups per cycle). Raising the rate
// re-runs the admission argument and fails wrapping ErrCapacity when
// the extra ceil(r/clusters) per-cluster draw would not fit; lowering
// it always succeeds.
func (e *StreamingRAID) SetStreamRate(id, rate int) error { return e.setStreamRate(id, rate) }

// WeightedActive sums max(rate,1) over active streams — the true
// per-cycle k′ draw the admission bound constrains under fast-forward.
func (e *StreamingRAID) WeightedActive() int { return e.weightedActive() }

// Step implements Simulator.
func (e *StreamingRAID) Step() (*sched.CycleReport, error) {
	ctx, err := e.beginCycle()
	if err != nil {
		return nil, err
	}
	e.streams = dropEnded(e.streams)

	// Read phase: each active stream reads its next whole parity group.
	// A stream's reads stay on one cluster this cycle, so clusters are
	// independent and run on the worker pool; the buffer pool only grows
	// during this phase, keeping its peak worker-count-independent.
	// Streams staging the same group this cycle (the Zipf head: many
	// viewers of one hot title in lockstep) share one physical read via
	// the per-cluster stage cache; see stageGroup for why reports stay
	// bit-identical to the unmerged path.
	merge := !e.cfg.disableMergedReads
	if merge {
		e.ensureStageCaches()
	}
	plan := e.groupReadPlan()
	if err := e.runClusters(ctx, func(shard *sched.CycleContext, cl int) error {
		var cache map[*layout.Group]*bufferedGroup
		if merge && len(plan[cl]) > 1 {
			cache = e.stageCacheFor(cl)
		}
		for _, ent := range plan[cl] {
			staged, err := e.stageGroup(shard, ent.g, cache)
			if err != nil {
				return err
			}
			if ent.slot < 0 {
				ent.s.staged = staged
			} else {
				ent.s.stagedExtra[ent.slot] = staged
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Delivery phase: groups read in the previous cycle go out now.
	if err := e.deliverDouble(ctx, "parity group unrecoverable"); err != nil {
		return nil, err
	}

	return e.endCycle(ctx), nil
}
