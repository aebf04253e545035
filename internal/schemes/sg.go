package schemes

import (
	"fmt"

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

// Active implements Simulator.
func (e *StaggeredGroup) Active() int { return activeCount(e.streams) }

// StreamProgress reports the next track owed to the stream and its
// object's total tracks; ok is false for unknown streams.
func (e *StaggeredGroup) StreamProgress(id int) (next, total int, ok bool) {
	return streamProgress(e.streams, id)
}

// AddStreamAt admits a stream beginning at the given parity group — the
// session-resume seam — if its footprint fits (admit). The stream's
// read phase is its admission cycle mod C-1, like any newcomer's.
func (e *StaggeredGroup) AddStreamAt(obj *layout.Object, startGroup int) (int, error) {
	if err := checkStartGroup(obj, startGroup); err != nil {
		return 0, err
	}
	width := e.cfg.Layout.GroupWidth()
	return enroll(&e.engineCore, &e.streams, e.footprint, &sgStream{
		Stream:    sched.Stream{Obj: obj, NextDeliver: startGroup * width},
		phase:     e.cycle % width,
		nextGroup: startGroup,
	})
}

// footprint is a Staggered-group stream's next read cycle: the cluster
// of its next group, in its phase.
func (e *StaggeredGroup) footprint(s *sgStream) footprint {
	return e.groupFootprint(s.Obj, s.nextGroup, s.phase)
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
	e.beginCycle()
	e.streams = dropEnded(e.streams)
	width := e.cfg.Layout.GroupWidth()

	// Read pass: streams at their phase read their next whole group. The
	// buffer pool only grows here, so its peak is the cycle's.
	for _, s := range e.streams {
		if s.Done || s.Terminated || e.cycle%width != s.phase || s.nextGroup >= len(s.Obj.Groups) {
			continue
		}
		g := &s.Obj.Groups[s.nextGroup]
		s.nextGroup++
		staged, err := e.stageGroup(&s.Stream, g)
		if err != nil {
			return nil, err
		}
		// The staged group holds C-1 data buffers plus the parity buffer;
		// parity is dropped at the end of this read cycle (its only
		// post-read use is masking a failure during the read).
		s.pending = staged
	}

	// Delivery pass: one track per active stream per cycle; releases
	// happen here so the read pass above records the within-cycle peak.
	for _, s := range e.streams {
		if s.Done || s.Terminated {
			continue
		}
		if s.buf != nil && s.buf.next < s.buf.group.ValidTracks {
			e.deliverTrack(&s.Stream, s.buf, s.buf.next, "parity group unrecoverable")
			s.buf.next++
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
			e.rep.Finished = append(e.rep.Finished, s.ID)
		}
	}

	return e.endCycle()
}
