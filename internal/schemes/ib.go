package schemes

import (
	"errors"
	"fmt"

	"ftmm/internal/disk"
	"ftmm/internal/layout"
	"ftmm/internal/sched"
)

// ImprovedBandwidth is the §4 engine. The layout intermixes the parity of
// cluster i on the drives of cluster i+1, so in normal operation no
// bandwidth is spent on parity: every drive delivers data, and only a
// configurable reserve of slots per drive is held back.
//
// When a drive fails, the groups that lose a track read their parity
// block from the next cluster. If the parity block's drive has no free
// slot, one of that drive's scheduled local reads is dropped in its
// favor; the dropped group is treated as a partial failure and performs
// the same shift on cluster i+2, and so on to the right until idle
// capacity is found (Figure 8). When the chain finds none, service
// degrades: the stream at the end of the chain is terminated.
//
// A failure in the middle of a cycle cannot be masked for the groups
// whose track was scheduled but not yet read on the failing drive —
// parity is not being read concurrently in normal mode — producing the
// paper's one-time isolated hiccups; from the next cycle on, the shift
// masks the failure completely.
type ImprovedBandwidth struct {
	groupEngine
	// midFail, when >= 0, is a drive that fails midway through the next
	// cycle's reads.
	midFail int
	// terminations counts degradation-of-service stream kills.
	terminations int

	// Per-Step scratch, reset rather than reallocated each Step:
	// groups[:n] are this cycle's group reads (the records past n, and
	// their slices, are reused) and visited marks the clusters one shift
	// chain has crossed.
	groups  []*ibGroupRead
	visited []bool
}

// ibGroupRead is one group's in-flight read state during a cycle.
type ibGroupRead struct {
	s  *groupStream
	g  *layout.Group
	bg *bufferedGroup
	// missing lists in-group offsets that could not be read directly.
	missing []int
	// reads lists the normal data-read slots this group holds, by offset
	// and drive (victim bookkeeping for the shift).
	reads []ibRead
	// unmaskable has bit j set when missing offset j may not be recovered
	// this cycle (mid-cycle failure: no time to fetch parity).
	unmaskable uint64
}

type ibRead struct {
	offset int
	disk   int
}

// NewImprovedBandwidth builds the engine over an intermixed-parity
// layout, holding reserve slots per drive back from admission (the
// paper's K_IB disks' worth of reserved bandwidth, expressed per drive).
func NewImprovedBandwidth(cfg Config, reserve int) (*ImprovedBandwidth, error) {
	if cfg.Layout != nil && cfg.Layout.Placement() != layout.IntermixedParity {
		return nil, fmt.Errorf("schemes: Improved-bandwidth needs intermixed parity, got %v", cfg.Layout.Placement())
	}
	core, err := newEngineCore(cfg, cfg.Layout.GroupWidth())
	if err != nil {
		return nil, err
	}
	if reserve < 0 || reserve >= core.slotsPerDisk {
		return nil, fmt.Errorf("schemes: reserve %d must be in [0,%d)", reserve, core.slotsPerDisk)
	}
	if w := cfg.Layout.GroupWidth(); w > 64 {
		return nil, fmt.Errorf("schemes: Improved-bandwidth supports groups of at most 64 data tracks, got %d", w)
	}
	core.reserve = reserve
	return &ImprovedBandwidth{
		groupEngine: groupEngine{engineCore: core},
		midFail:     -1,
		visited:     make([]bool, cfg.Layout.Clusters()),
	}, nil
}

// Name implements Simulator.
func (e *ImprovedBandwidth) Name() string { return "Improved-bandwidth" }

// Terminations counts streams killed by degradation of service.
func (e *ImprovedBandwidth) Terminations() int { return e.terminations }

// FailDiskMidCycle schedules the drive to fail halfway through the next
// cycle's reads: tracks it had already read are fine, the rest hiccup
// once, and later cycles are masked.
func (e *ImprovedBandwidth) FailDiskMidCycle(id int) error {
	if _, err := e.cfg.Farm.Drive(id); err != nil {
		return err
	}
	e.midFail = id
	return nil
}

// readGroupBlocks runs one group's phase-1 data reads. midDisk, when
// >= 0, is the drive failing partway through this cycle: it serves
// *allowance more of its scheduled reads, then dies, and the group
// loses what it had left to serve to that failure, with no time to shift.
func (e *ImprovedBandwidth) readGroupBlocks(gr *ibGroupRead, midDisk int, allowance *int) error {
	for j, loc := range gr.g.Data {
		onVictim := loc.Disk == midDisk && e.slots.Free(loc.Disk) > 0
		if onVictim && e.midFail >= 0 {
			if *allowance == 0 {
				if err := e.failMidCycle(); err != nil {
					return err
				}
			} else {
				*allowance--
			}
		}
		blk := e.readTrack(&gr.s.Stream, gr.g, loc, &e.rep.DataReads)
		if blk == nil {
			gr.missing = append(gr.missing, j)
			if onVictim {
				gr.unmaskable |= 1 << j
				gr.bg.failure = sched.Failure{Drive: midDisk, Cycle: e.cycle, Named: true}
			}
			continue
		}
		gr.bg.data[j] = blk
		gr.reads = append(gr.reads, ibRead{offset: j, disk: loc.Disk})
	}
	return nil
}

// failMidCycle fails the scheduled mid-cycle victim now.
func (e *ImprovedBandwidth) failMidCycle() error {
	id := e.midFail
	e.midFail = -1
	return e.FailDisk(id)
}

// Step implements Simulator.
func (e *ImprovedBandwidth) Step() (*sched.CycleReport, error) {
	e.beginCycle()
	defer e.runFolds()
	e.streams = dropEnded(e.streams)

	// Collect this cycle's group reads.
	groups := e.groups[:0]
	for _, s := range e.streams {
		if s.Done || s.Terminated || s.nextGroup >= len(s.Obj.Groups) {
			continue
		}
		g := &s.Obj.Groups[s.nextGroup]
		s.nextGroup++
		n := len(groups)
		if n < cap(groups) {
			groups = groups[:n+1]
		} else {
			groups = append(groups, nil)
		}
		if groups[n] == nil {
			groups[n] = new(ibGroupRead)
		}
		gr := groups[n]
		*gr = ibGroupRead{s: s, g: g, bg: e.newGroup(g), missing: gr.missing[:0], reads: gr.reads[:0]}
	}
	e.groups = groups

	// Phase 1: normal data reads (no parity in normal mode), in group
	// order. Under a scheduled mid-cycle failure the victim drive serves
	// exactly half of its scheduled reads, in that order.
	midDisk, allowance := e.midFail, 0
	if midDisk >= 0 {
		for _, gr := range groups {
			for _, loc := range gr.g.Data {
				if loc.Disk == midDisk {
					allowance++
				}
			}
		}
		allowance /= 2
	}
	for _, gr := range groups {
		if err := e.readGroupBlocks(gr, midDisk, &allowance); err != nil {
			return nil, err
		}
	}
	if e.midFail >= 0 {
		// The drive had no scheduled reads this cycle; fail it now.
		if err := e.failMidCycle(); err != nil {
			return nil, err
		}
	}

	// Phase 2: shift to the right for groups missing blocks, in group
	// order (parity lives one cluster to the right, victims cascade
	// further).
	for _, gr := range groups {
		clear(e.visited)
		if err := e.resolve(gr); err != nil {
			return nil, err
		}
	}

	// Buffer accounting for staged groups (terminated streams drop
	// theirs without ever acquiring; the group is recycled).
	for _, gr := range groups {
		if gr.s.Terminated {
			e.recycleGroup(gr.bg)
			continue
		}
		gr.bg.pooled = len(gr.g.Data)
		if err := e.pool.Acquire(gr.bg.pooled); err != nil {
			return nil, err
		}
		gr.s.staged = gr.bg
	}

	// Delivery of last cycle's groups.
	if err := e.deliverDouble("unmasked failure"); err != nil {
		return nil, err
	}

	return e.endCycle()
}

// resolve recovers a group's missing blocks via the parity shift.
// e.visited, cleared per chain, guards against wrapping all the way
// around the clusters.
func (e *ImprovedBandwidth) resolve(gr *ibGroupRead) error {
	if len(gr.missing) == 0 {
		return nil
	}
	// Count the recoverable missing blocks.
	j, recoverable := -1, 0
	for _, m := range gr.missing {
		if gr.unmaskable&(1<<m) == 0 {
			j = m
			recoverable++
		}
	}
	gr.missing = gr.missing[:0]
	if recoverable == 0 {
		return nil // only mid-cycle losses: one-time hiccups
	}
	if recoverable > 1 {
		// Two blocks gone from one group: catastrophic, nothing to do.
		return nil
	}
	pCluster := gr.g.Parity.Disk / e.cfg.Layout.ClusterSize()
	if e.visited[pCluster] {
		// Wrapped around: no capacity anywhere. Degradation of service.
		return e.terminate(gr.s)
	}
	e.visited[pCluster] = true

	par, victim, err := e.readParity(gr)
	if err != nil {
		return err
	}
	if victim != nil {
		// The victim lost its block on the parity drive and shifts right
		// itself, before this group's fold.
		if err := e.resolve(victim); err != nil {
			return err
		}
	}
	if par == nil {
		return nil // terminate/hiccup already handled downstream
	}
	// Fold the parity view and the surviving blocks into a fresh buffer
	// for the missing slot. A survivor made this cycle (a victim shifted
	// twice) is a queued destination: run the queue before reading it.
	e.survivors = append(e.survivors[:0], par)
	made := false
	for k, blk := range gr.bg.data {
		if k != j && blk != nil {
			e.survivors = append(e.survivors, blk)
			made = made || gr.bg.reconstructed[k]
		}
	}
	if made {
		e.runFolds()
	}
	rec, err := e.reconstruct(e.survivors)
	if err != nil {
		return nil
	}
	gr.bg.data[j] = rec
	gr.bg.reconstructed[j] = true
	e.rep.Reconstructions++
	return nil
}

// readParity reads the group's parity block, securing a slot on its
// drive — dropping a local read in its favor if necessary. par is nil
// after handling the failure modes (failed parity drive: catastrophic
// hiccup; no victim: degradation). victim, when non-nil, is the group
// whose local read gave up its slot; the caller shifts it right.
func (e *ImprovedBandwidth) readParity(gr *ibGroupRead) (par []byte, victim *ibGroupRead, err error) {
	pDisk := gr.g.Parity.Disk
	// The read comes first: a parity drive that has failed takes no
	// slot. It counts once it holds a slot.
	par, err = e.read(&gr.s.Stream, gr.g, gr.g.Parity, nil)
	if errors.Is(err, disk.ErrFailed) {
		// Adjacent-cluster double failure: the paper's data-loss case.
		return nil, nil, nil
	}
	if e.slots.Free(pDisk) == 0 {
		// Drop a victim's local read on this drive in favor of parity.
		victim = e.pickVictim(pDisk, gr)
		if victim == nil {
			return nil, nil, e.terminate(gr.s)
		}
		// The victim loses the block it read from pDisk (a view, so it is
		// just dropped); the freed slot carries our parity read.
		for vi, vr := range victim.reads {
			if vr.disk == pDisk {
				victim.bg.data[vr.offset] = nil
				victim.missing = append(victim.missing, vr.offset)
				victim.reads = append(victim.reads[:vi], victim.reads[vi+1:]...)
				break
			}
		}
		e.slots.Put(pDisk)
	}
	e.slots.Take(pDisk)
	if par == nil {
		return nil, victim, nil
	}
	e.rep.ParityReads++
	// The parity block counts as a buffer within this cycle in the
	// paper's accounting, though the view itself takes no arena buffer.
	return par, victim, e.holdBriefly()
}

// pickVictim finds a group of this cycle (other than the requester)
// holding a normal data-read slot on the drive. A group whose own parity
// sits on a failed drive is never picked: its shift could not recover
// the block it gave up, so displacing it would trade the requester's
// loss for its hiccup.
func (e *ImprovedBandwidth) pickVictim(d int, requester *ibGroupRead) *ibGroupRead {
	for _, gr := range e.groups {
		if gr == requester || gr.s.Terminated || e.driveFailed(gr.g.Parity.Disk) {
			continue
		}
		for _, r := range gr.reads {
			if r.disk == d {
				return gr
			}
		}
	}
	return nil
}

// driveFailed reports whether drive d has failed: a read of it meets
// disk.ErrFailed, the case readParity gives up on.
func (e *ImprovedBandwidth) driveFailed(d int) bool {
	drv, err := e.cfg.Farm.Drive(d)
	return err == nil && drv.State() == disk.Failed
}

// terminate kills a stream: the paper's degradation of service. Buffers
// the stream still holds from the previous cycle are returned.
func (e *ImprovedBandwidth) terminate(s *groupStream) error {
	if s.Terminated {
		return nil
	}
	s.Terminated = true
	e.terminations++
	e.rep.Terminated = append(e.rep.Terminated, s.ID)
	err := e.releaseGroups(s.delivering, s.staged)
	s.delivering, s.staged = nil, nil
	return err
}
