package schemes

import (
	"fmt"
	"time"

	"ftmm/internal/layout"
	"ftmm/internal/sched"
)

// StaggeredGroup is the §2 memory-saving variant: the layout and the
// failure tolerance are exactly Streaming RAID's, but the cycle is the
// display time of a single track (B/b0) and a stream reads its whole next
// parity group only once every C-1 cycles, delivering one track per cycle
// in between. Streams are staggered across read phases, so their buffer
// sawtooths interleave (Figure 4) and the farm-wide peak is roughly half
// of Streaming RAID's.
type StaggeredGroup struct {
	engineCore
	streams []*sgStream
}

type sgStream struct {
	sched.Stream
	// phase selects the stream's read cycles: cycle ≡ phase (mod C-1).
	phase int
	// nextGroup is the next parity-group index to read.
	nextGroup int
	// buf is the group draining one track per cycle; pending is the group
	// read this cycle, installed once buf finishes draining.
	buf     *bufferedGroup
	pending *bufferedGroup
}

func (s *sgStream) stream() *sched.Stream { return &s.Stream }

// NewStaggeredGroup builds the engine over a dedicated-parity layout.
func NewStaggeredGroup(cfg Config) (*StaggeredGroup, error) {
	if cfg.Layout != nil && cfg.Layout.Placement() != layout.DedicatedParity {
		return nil, fmt.Errorf("schemes: Staggered-group needs dedicated parity, got %v", cfg.Layout.Placement())
	}
	core, err := newEngineCore(cfg, 1)
	if err != nil {
		return nil, err
	}
	return &StaggeredGroup{engineCore: core}, nil
}

// Name implements Simulator.
func (e *StaggeredGroup) Name() string { return "Staggered-group" }

// CycleTime implements Simulator: Tcyc = B/b0 (k' = 1).
func (e *StaggeredGroup) CycleTime() time.Duration {
	return e.cfg.Farm.Params().CycleTime(1, e.cfg.Rate)
}

// Active implements Simulator.
func (e *StaggeredGroup) Active() int { return activeCount(e.streams) }

// StreamProgress reports the next track owed to the stream and its
// object's total tracks; ok is false for unknown streams.
func (e *StaggeredGroup) StreamProgress(id int) (next, total int, ok bool) {
	return streamProgress(e.streams, id)
}

// AddStream implements Simulator. The stream's read phase is the
// admission cycle mod C-1; only streams sharing a phase ever touch the
// same disks in the same cycle (different phases read in different
// cycles), and same-phase streams advance clusters in lockstep, so
// admission checks the count of same-phase streams currently on the new
// stream's start cluster.
func (e *StaggeredGroup) AddStream(obj *layout.Object) (int, error) {
	return e.AddStreamAt(obj, 0)
}

// AddStreamAt admits a stream beginning at the given parity group — the
// session-resume seam. The stream joins the phase of its admission cycle
// like any newcomer; only its start cluster and delivery origin move.
func (e *StaggeredGroup) AddStreamAt(obj *layout.Object, startGroup int) (int, error) {
	if err := checkStartGroup(obj, startGroup); err != nil {
		return 0, err
	}
	width := e.cfg.Layout.GroupWidth()
	phase := e.cycle % width
	start := obj.Groups[startGroup].Cluster
	load := 0
	for _, s := range e.streams {
		if s.Done || s.Terminated || s.phase != phase || s.nextGroup >= len(s.Obj.Groups) {
			continue
		}
		if s.Obj.Groups[s.nextGroup].Cluster == start {
			load++
		}
	}
	if load >= e.slotsPerDisk {
		return 0, fmt.Errorf("schemes: phase %d of cluster %d is at its %d-stream capacity", phase, start, e.slotsPerDisk)
	}
	id := e.allocStreamID()
	e.streams = append(e.streams, &sgStream{
		Stream:    sched.Stream{ID: id, Obj: obj, NextDeliver: startGroup * width},
		phase:     phase,
		nextGroup: startGroup,
	})
	return id, nil
}

// CancelStream stops serving a stream immediately and returns its
// buffers.
func (e *StaggeredGroup) CancelStream(id int) error {
	s, err := findActive(e.streams, id)
	if err != nil {
		return err
	}
	s.Done = true
	// releaseGroups also recycles the groups' buffers to the arena.
	if err := e.releaseGroups(s.buf, s.pending); err != nil {
		return err
	}
	s.buf, s.pending = nil, nil
	return nil
}

// Step implements Simulator.
func (e *StaggeredGroup) Step() (*sched.CycleReport, error) {
	ctx, err := e.beginCycle()
	if err != nil {
		return nil, err
	}
	e.streams = dropEnded(e.streams)
	width := e.cfg.Layout.GroupWidth()

	// Read pass: streams at their phase read their next whole group. As
	// in Streaming RAID, each reading stream touches exactly one cluster
	// this cycle, so the pass fans out per cluster; the buffer pool only
	// grows here, keeping its peak worker-count-independent.
	readers := make([][]*sgStream, e.cfg.Layout.Clusters())
	for _, s := range e.streams {
		if s.Done || s.Terminated || e.cycle%width != s.phase || s.nextGroup >= len(s.Obj.Groups) {
			continue
		}
		cl := s.Obj.Groups[s.nextGroup].Cluster
		readers[cl] = append(readers[cl], s)
	}
	if err := e.runClusters(ctx, func(shard *sched.CycleContext, cl int) error {
		for _, s := range readers[cl] {
			g := &s.Obj.Groups[s.nextGroup]
			s.nextGroup++
			// No stage cache: SG streams drain a group over C-1 cycles via a
			// private cursor, so sharing the struct would tangle cursors.
			staged, err := e.stageGroup(shard, g, nil)
			if err != nil {
				return err
			}
			// The staged group holds C-1 data buffers plus the parity
			// buffer; parity is dropped at the end of this read cycle (its
			// only post-read use is masking a failure during the read).
			s.pending = staged
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Delivery pass: one track per active stream per cycle; releases
	// happen here so the read pass above records the within-cycle peak.
	for _, s := range e.streams {
		if s.Done || s.Terminated {
			continue
		}
		if s.buf != nil && s.buf.next < s.buf.group.ValidTracks {
			e.deliverOne(s, ctx.Rep)
			if s.buf.pooled > 0 {
				if err := e.pool.Release(1); err != nil {
					return nil, err
				}
				s.buf.pooled--
			}
		}
		if s.buf != nil && s.buf.next >= s.buf.group.ValidTracks {
			// Fully drained (padding tracks, if any, are released too).
			if s.buf.pooled > 0 {
				if err := e.pool.Release(s.buf.pooled); err != nil {
					return nil, err
				}
				s.buf.pooled = 0
			}
			e.recycleGroup(s.buf)
			s.buf = nil
		}
		if s.pending != nil {
			// Drop the pending group's parity buffer at end of its read
			// cycle, then promote it if the previous group has drained.
			if s.pending.pooled > 0 {
				if err := e.pool.Release(1); err != nil {
					return nil, err
				}
				s.pending.pooled--
			}
			if s.buf == nil {
				s.buf = s.pending
				s.pending = nil
			}
		}
		if s.Done {
			ctx.Rep.Finished = append(ctx.Rep.Finished, s.ID)
		}
	}

	return e.endCycle(ctx), nil
}

// deliverOne sends the next track of the stream's buffered group.
func (e *StaggeredGroup) deliverOne(s *sgStream, rep *sched.CycleReport) {
	bg := s.buf
	width := len(bg.group.Data)
	base := bg.group.Index * width
	off := bg.next
	bg.next++
	e.emit(rep, &s.Stream, base+off, bg.data[off], nil, bg.reconstructed[off], "parity group unrecoverable")
	// Ownership moved to the Ref (released at the next Step's
	// beginCycle); clear the slot so group recycling skips it.
	bg.data[off] = nil
	s.Advance(1)
}
