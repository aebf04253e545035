package chaos

import (
	"fmt"
	"sort"

	"ftmm/internal/sched"
	"ftmm/internal/trace"
)

// DefaultClusterCheckers returns a fresh instance of every standard
// run-wide checker (layered on top of the per-node set).
func DefaultClusterCheckers() []ClusterChecker {
	return []ClusterChecker{NewCrossNodeContinuityChecker()}
}

// CrossNodeContinuityChecker audits the cluster's central promise: a
// session followed across its whole ownership chain receives the
// title's bytes contiguously and bit-exactly. A failover may rewind to
// the group boundary at or before the next owed track (re-delivering
// at most one group's worth) but may never skip forward; a VCR verb
// may move the position anywhere, but delivery must then run
// consecutively from the new position's group floor; every delivered
// track's bytes must match the archived content; and when the cluster
// drains, every session has either finished the full title, was
// cancelled or terminated, is legitimately parked by a pause, or was
// lost with a recorded justification. The checker keeps its own
// per-session ledger — it audits the runner's failover and VCR
// arithmetic rather than trusting it.
type CrossNodeContinuityChecker struct {
	// next is the high-water completeness ledger (the furthest track
	// ever delivered, plus one); cursor the exact next track the
	// session's current engine stream owes. They diverge while a rewind
	// replays old ground.
	next, cursor map[int]int
	seenResumes  map[int]int
	// mark is the position the last applied VCR verb established (the
	// pause point, or a rewind target), from which the next resume's
	// restart floor is computed out of the checker's own ledger.
	mark map[int]int
}

// NewCrossNodeContinuityChecker builds the checker.
func NewCrossNodeContinuityChecker() *CrossNodeContinuityChecker {
	return &CrossNodeContinuityChecker{}
}

// Name implements ClusterChecker.
func (c *CrossNodeContinuityChecker) Name() string { return "cluster-continuity" }

// Begin implements ClusterChecker.
func (c *CrossNodeContinuityChecker) Begin(*ClusterRunContext) error {
	c.next = make(map[int]int)
	c.cursor = make(map[int]int)
	c.seenResumes = make(map[int]int)
	c.mark = make(map[int]int)
	return nil
}

// restart points the cursor at the group floor of track at, and syncs
// the resume count so the failover recompute in AfterStep does not
// clobber a VCR-established floor.
func (c *CrossNodeContinuityChecker) restart(crc *ClusterRunContext, o, at int) {
	c.cursor[o] = (at / crc.Width) * crc.Width
	c.seenResumes[o] = crc.Sessions[o].Resumes
}

// OnEvent implements ClusterEventObserver: VCR verbs move a session's
// position, so the checker moves its own ledger — from the event's
// arguments and its own cursor, never from the runner's bookkeeping.
func (c *CrossNodeContinuityChecker) OnEvent(crc *ClusterRunContext, ev Event) error {
	switch ev.Kind {
	case EventPause, EventVcrResume, EventRewind:
	default:
		return nil
	}
	if ev.Stream < 0 || ev.Stream >= len(crc.Sessions) {
		return nil
	}
	o := ev.Stream
	ses := crc.Sessions[o]
	switch ev.Kind {
	case EventPause:
		c.mark[o] = c.cursor[o]
	case EventVcrResume:
		at, ok := c.mark[o]
		if !ok {
			at = c.cursor[o]
		}
		c.restart(crc, o, at)
		delete(c.mark, o)
	case EventRewind:
		target := ev.Track
		if target >= crc.Total {
			target = crc.Total - 1
		}
		c.mark[o] = target
		if !ses.Paused {
			// Live re-admission happened; a parked rewind keeps the mark
			// for the eventual resume instead.
			c.restart(crc, o, target)
			delete(c.mark, o)
		}
	}
	return nil
}

// AfterStep implements ClusterChecker.
func (c *CrossNodeContinuityChecker) AfterStep(crc *ClusterRunContext, reps []*sched.CycleReport) error {
	type tr struct {
		track  int
		data   []byte
		hiccup bool
	}
	per := make(map[int][]tr)
	for i, rep := range reps {
		if rep == nil {
			continue
		}
		for _, d := range rep.Delivered {
			ses := crc.SessionOf(i, d.StreamID)
			if ses == nil {
				return fmt.Errorf("node%d delivered track %d of %s for a stream (%d) no session owns", i, d.Track, d.ObjectID, d.StreamID)
			}
			per[ses.Ordinal] = append(per[ses.Ordinal], tr{d.Track, d.Data, false})
		}
		for _, h := range rep.Hiccups {
			ses := crc.SessionOf(i, h.StreamID)
			if ses == nil {
				return fmt.Errorf("node%d hiccuped track %d for a stream (%d) no session owns", i, h.Track, h.StreamID)
			}
			per[ses.Ordinal] = append(per[ses.Ordinal], tr{h.Track, nil, true})
		}
	}
	ordinals := make([]int, 0, len(per))
	for o := range per {
		ordinals = append(ordinals, o)
	}
	sort.Ints(ordinals)
	for _, o := range ordinals {
		ses := crc.Sessions[o]
		if c.seenResumes[o] < ses.Resumes {
			// A failover happened since we last saw this session: from
			// our own ledger, the only legitimate restart is the group
			// boundary at or before the high-water mark.
			c.restart(crc, o, c.next[o])
		}
		ts := per[o]
		sort.Slice(ts, func(i, j int) bool { return ts[i].track < ts[j].track })
		for _, t := range ts {
			if !t.hiccup {
				if err := trace.CheckTrack(crc.Content[ses.Title], crc.TrackSize, t.track, t.data); err != nil {
					return fmt.Errorf("session %d (%s) on node chain %v: %w", o, ses.Title, ses.Chain, err)
				}
			}
			if t.track != c.cursor[o] {
				return fmt.Errorf("session %d (%s) received track %d, expected %d (high-water %d): gap, duplicate, or unbounded rewind across node chain %v",
					o, ses.Title, t.track, c.cursor[o], c.next[o], ses.Chain)
			}
			c.cursor[o]++
			if c.cursor[o] > c.next[o] {
				c.next[o] = c.cursor[o]
			}
		}
	}
	return nil
}

// End implements ClusterChecker.
func (c *CrossNodeContinuityChecker) End(crc *ClusterRunContext) error {
	for o, ses := range crc.Sessions {
		switch {
		case ses.Cancelled, ses.Terminated:
			// Hung up, or the paper's degradation of service.
		case ses.Lost:
			if ses.LostReason == "" {
				return fmt.Errorf("session %d (%s) lost without justification", o, ses.Title)
			}
		case ses.Finished:
			if c.next[o] != crc.Total {
				return fmt.Errorf("session %d (%s) finished after %d of %d tracks across node chain %v",
					o, ses.Title, c.next[o], crc.Total, ses.Chain)
			}
		case ses.Paused:
			// Parked by a pause (or a refused rewind) and never resumed —
			// a legitimate way to end a run, and what every schedule a
			// shrinker cut the resume out of looks like.
		default:
			if crc.Drained {
				return fmt.Errorf("session %d (%s) stranded at track %d after the cluster drained", o, ses.Title, c.next[o])
			}
			// MaxCycles truncated the run mid-stream: legitimate.
		}
	}
	return nil
}
