package schemes

import (
	"fmt"
	"time"

	"ftmm/internal/layout"
	"ftmm/internal/sched"
)

// StreamingRAID is the §2 baseline engine: for every active stream, every
// cycle, one entire parity group (C-1 data tracks plus parity, one track
// from each drive of one cluster) is read, and the group read in the
// previous cycle is delivered. Because the parity block is always in
// memory together with its group, any single drive failure per cluster is
// masked with zero hiccups, whenever it strikes.
type StreamingRAID struct {
	engineCore
	streams []*groupStream
}

// NewStreamingRAID builds the engine. The layout must use dedicated
// parity placement.
func NewStreamingRAID(cfg Config) (*StreamingRAID, error) {
	if cfg.Layout != nil && cfg.Layout.Placement() != layout.DedicatedParity {
		return nil, fmt.Errorf("schemes: Streaming RAID needs dedicated parity, got %v", cfg.Layout.Placement())
	}
	core, err := newEngineCore(cfg, cfg.Layout.GroupWidth())
	if err != nil {
		return nil, err
	}
	return &StreamingRAID{engineCore: core}, nil
}

// Name implements Simulator.
func (e *StreamingRAID) Name() string { return "Streaming RAID" }

// CycleTime implements Simulator: Tcyc = (C-1)·B/b0.
func (e *StreamingRAID) CycleTime() time.Duration {
	return e.cfg.Farm.Params().CycleTime(e.cfg.Layout.GroupWidth(), e.cfg.Rate)
}

// Active implements Simulator.
func (e *StreamingRAID) Active() int { return activeCount(e.streams) }

// StreamProgress reports the next track owed to the stream and its
// object's total tracks; ok is false for unknown streams.
func (e *StreamingRAID) StreamProgress(id int) (next, total int, ok bool) {
	return streamProgress(e.streams, id)
}

// AddStream implements Simulator. A stream consumes one track read on
// every drive of its current cluster each cycle, and every active stream
// advances one cluster per cycle, so per-cluster stream counts are
// invariant over time: admission only needs the start cluster's current
// count to be under the per-disk budget.
func (e *StreamingRAID) AddStream(obj *layout.Object) (int, error) {
	return e.AddStreamAt(obj, 0)
}

// AddStreamAt admits a stream whose delivery begins at the given parity
// group instead of the title's start — the session-resume seam cluster
// failover rides on. A stream started at group g is indistinguishable
// from one admitted earlier that has advanced to g, so the per-cluster
// admission invariant is unchanged; only the start cluster moves.
func (e *StreamingRAID) AddStreamAt(obj *layout.Object, startGroup int) (int, error) {
	if err := checkStartGroup(obj, startGroup); err != nil {
		return 0, err
	}
	start := obj.Groups[startGroup].Cluster
	if e.groupClusterLoad(e.streams)[start] >= e.slotsPerDisk {
		return 0, fmt.Errorf("schemes: cluster %d is at its %d-stream capacity", start, e.slotsPerDisk)
	}
	id := e.allocStreamID()
	e.streams = append(e.streams, &groupStream{
		Stream:    sched.Stream{ID: id, Obj: obj, NextDeliver: startGroup * e.cfg.Layout.GroupWidth()},
		nextGroup: startGroup,
	})
	return id, nil
}

// CancelStream stops serving a stream immediately (a client hanging
// up); its buffers are returned. It is not a degradation event.
func (e *StreamingRAID) CancelStream(id int) error {
	return e.cancelGroupStream(e.streams, id)
}

// SetStreamRate sets a stream's playback multiplier (1 = normal, r > 1
// = fast-forward reading r parity groups per cycle). Raising the rate
// re-runs the admission argument and fails wrapping ErrCapacity when
// the extra ceil(r/clusters) per-cluster draw would not fit; lowering
// it always succeeds.
func (e *StreamingRAID) SetStreamRate(id, rate int) error {
	return e.setGroupStreamRate(e.streams, id, rate)
}

// WeightedActive sums max(rate,1) over active streams — the true
// per-cycle k′ draw the admission bound constrains under fast-forward.
func (e *StreamingRAID) WeightedActive() int { return weightedActive(e.streams) }

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
	plan := e.groupReadPlan(e.streams, nil)
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
	if err := e.deliverDouble(ctx, e.streams, "parity group unrecoverable"); err != nil {
		return nil, err
	}

	return e.endCycle(ctx), nil
}
