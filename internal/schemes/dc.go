package schemes

import (
	"fmt"
	"time"

	"ftmm/internal/layout"
	"ftmm/internal/sched"
)

// Declustered is the fifth scheme, beyond the paper's four: parity
// declustering via block designs. Normal-mode behaviour is Streaming
// RAID's — every active stream reads one whole parity group of C tracks
// per cycle and delivers the group staged in the previous cycle, so any
// single drive failure per declustering group is masked with zero
// hiccups. The difference is where groups live: the layout maps each
// group onto a C-drive block of a BIBD over a G-drive declustering
// group (layout.NewDeclustered), so consecutive groups touch different
// drive subsets and a failed drive's rebuild reads every survivor of
// its group at rate (C-1)/(G-1) instead of saturating C-1 cluster
// mates. The rebuild window shrinks by the same factor; with the
// default G = 2C-1 it halves.
type Declustered struct {
	engineCore
	streams []*groupStream
}

// NewDeclustered builds the engine. The layout must use declustered
// parity placement (the farm's clusters are the G-drive declustering
// groups).
func NewDeclustered(cfg Config) (*Declustered, error) {
	if cfg.Layout != nil && cfg.Layout.Placement() != layout.DeclusteredParity {
		return nil, fmt.Errorf("schemes: declustered parity needs a declustered layout, got %v", cfg.Layout.Placement())
	}
	core, err := newEngineCore(cfg, cfg.Layout.GroupWidth())
	if err != nil {
		return nil, err
	}
	return &Declustered{engineCore: core}, nil
}

// Name implements Simulator.
func (e *Declustered) Name() string { return "Declustered-parity" }

// CycleTime implements Simulator: Tcyc = (C-1)·B/b0, as for SR — C here
// is the parity group size, not the declustering group size.
func (e *Declustered) CycleTime() time.Duration {
	return e.cfg.Farm.Params().CycleTime(e.cfg.Layout.GroupWidth(), e.cfg.Rate)
}

// Active implements Simulator.
func (e *Declustered) Active() int { return activeCount(e.streams) }

// StreamProgress reports the next track owed to the stream and its
// object's total tracks; ok is false for unknown streams.
func (e *Declustered) StreamProgress(id int) (next, total int, ok bool) {
	return streamProgress(e.streams, id)
}

// AddStream implements Simulator.
func (e *Declustered) AddStream(obj *layout.Object) (int, error) {
	return e.AddStreamAt(obj, 0)
}

// AddStreamAt admits a stream starting at the given parity group. The
// admission unit is the declustering group (the layout's "cluster"):
// a stream's per-cycle reads land on the C drives of one block within
// it, and which block varies per group, so in the worst case every
// stream of the declustering group reads the same drive in the same
// cycle. Capping streams per declustering group at the per-disk slot
// budget keeps that worst case schedulable — a deliberately
// conservative floor under the analytic N (which assumes the design
// spreads load evenly), consistent with the other engines flooring
// earlier than their analytic bounds.
func (e *Declustered) AddStreamAt(obj *layout.Object, startGroup int) (int, error) {
	if err := checkStartGroup(obj, startGroup); err != nil {
		return 0, err
	}
	start := obj.Groups[startGroup].Cluster
	if e.groupClusterLoad(e.streams)[start] >= e.slotsPerDisk {
		return 0, fmt.Errorf("schemes: declustering group %d is at its %d-stream capacity", start, e.slotsPerDisk)
	}
	id := e.allocStreamID()
	e.streams = append(e.streams, &groupStream{
		Stream:    sched.Stream{ID: id, Obj: obj, NextDeliver: startGroup * e.cfg.Layout.GroupWidth()},
		nextGroup: startGroup,
	})
	return id, nil
}

// CancelStream stops serving a stream immediately; its buffers are
// returned. It is not a degradation event.
func (e *Declustered) CancelStream(id int) error {
	return e.cancelGroupStream(e.streams, id)
}

// SetStreamRate sets a stream's playback multiplier; see
// StreamingRAID.SetStreamRate — the argument carries over because
// consecutive groups rotate declustering groups the same way.
func (e *Declustered) SetStreamRate(id, rate int) error {
	return e.setGroupStreamRate(e.streams, id, rate)
}

// WeightedActive sums max(rate,1) over active streams.
func (e *Declustered) WeightedActive() int { return weightedActive(e.streams) }

// Step implements Simulator. The cycle structure is Streaming RAID's:
// a read phase staging each stream's next parity group (same-title
// lockstep reads merged through the per-cluster stage cache), then a
// delivery phase draining the groups staged last cycle. A group whose
// block lost one drive is reconstructed from parity in place; a block
// that lost two drives is unrecoverable and surfaces as hiccups.
func (e *Declustered) Step() (*sched.CycleReport, error) {
	ctx, err := e.beginCycle()
	if err != nil {
		return nil, err
	}
	e.streams = dropEnded(e.streams)

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

	if err := e.deliverDouble(ctx, e.streams, "parity group unrecoverable"); err != nil {
		return nil, err
	}

	return e.endCycle(ctx), nil
}
