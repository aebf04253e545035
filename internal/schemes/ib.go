package schemes

import (
	"fmt"

	"ftmm/internal/disk"
	"ftmm/internal/layout"
	"ftmm/internal/parity"
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
}

// ibGroupRead is one group's in-flight read state during a cycle.
type ibGroupRead struct {
	s  *groupStream
	g  *layout.Group
	bg *bufferedGroup
	// missing lists in-group offsets that could not be read directly.
	missing []int
	// tookOn[disk] counts normal data-read slots this group holds on each
	// drive (victim bookkeeping for the shift).
	reads []ibRead
	// unmaskable marks missing offsets that may not be recovered this
	// cycle (mid-cycle failure: no time to fetch parity).
	unmaskable map[int]bool
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
	return &ImprovedBandwidth{groupEngine: groupEngine{engineCore: core, reserve: reserve}, midFail: -1}, nil
}

// Name implements Simulator.
func (e *ImprovedBandwidth) Name() string { return "Improved-bandwidth" }

// Reserve returns the per-drive reserved slot count.
func (e *ImprovedBandwidth) Reserve() int { return e.reserve }

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

// readGroupBlocks runs one group's phase-1 data reads, recording into
// ctx (a per-cluster shard when the phase runs parallel). midDisk, when
// >= 0, is the drive failing partway through this cycle: it serves
// *allowance more of its scheduled reads, then dies, and what it had
// left to serve is lost with no time to shift.
func (e *ImprovedBandwidth) readGroupBlocks(gr *ibGroupRead, ctx *sched.CycleContext, midDisk int, allowance *int) error {
	for j, loc := range gr.g.Data {
		onVictim := loc.Disk == midDisk && ctx.Slots.Free(loc.Disk) > 0
		if onVictim && e.midFail >= 0 {
			if *allowance == 0 {
				if err := e.failMidCycle(); err != nil {
					return err
				}
			} else {
				*allowance--
			}
		}
		blk := e.readTrack(ctx, loc, &ctx.Rep.DataReads)
		if blk == nil {
			gr.missing = append(gr.missing, j)
			if onVictim {
				gr.unmaskable[j] = true
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
	ctx, err := e.beginCycle()
	if err != nil {
		return nil, err
	}
	e.streams = dropEnded(e.streams)

	// Collect this cycle's group reads.
	var groups []*ibGroupRead
	for _, s := range e.streams {
		if s.Done || s.Terminated || s.nextGroup >= len(s.Obj.Groups) {
			continue
		}
		g := &s.Obj.Groups[s.nextGroup]
		s.nextGroup++
		groups = append(groups, &ibGroupRead{
			s: s, g: g, bg: newBufferedGroup(g),
			unmaskable: map[int]bool{},
		})
	}

	// Phase 1: normal data reads (no parity in normal mode). Each group's
	// reads stay on its own cluster, so the phase fans out per cluster —
	// except under a scheduled mid-cycle failure, whose semantics (the
	// victim drive serves exactly half of its scheduled reads, in
	// schedule order) depend on a serial read order.
	if midDisk := e.midFail; midDisk >= 0 {
		scheduled := 0
		for _, gr := range groups {
			for _, loc := range gr.g.Data {
				if loc.Disk == midDisk {
					scheduled++
				}
			}
		}
		allowance := scheduled / 2
		for _, gr := range groups {
			if err := e.readGroupBlocks(gr, ctx, midDisk, &allowance); err != nil {
				return nil, err
			}
		}
		if e.midFail >= 0 {
			// The drive had no scheduled reads this cycle; fail it now.
			if err := e.failMidCycle(); err != nil {
				return nil, err
			}
		}
	} else {
		byCluster := make([][]*ibGroupRead, e.cfg.Layout.Clusters())
		for _, gr := range groups {
			byCluster[gr.g.Cluster] = append(byCluster[gr.g.Cluster], gr)
		}
		if err := e.runClusters(ctx, func(shard *sched.CycleContext, cl int) error {
			for _, gr := range byCluster[cl] {
				if err := e.readGroupBlocks(gr, shard, -1, nil); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// Phase 2: shift to the right for groups missing blocks. The chain
	// crosses clusters (parity lives one cluster to the right, victims
	// cascade further), so it stays serial in group order.
	for _, gr := range groups {
		e.resolve(gr, groups, ctx, map[int]bool{})
	}

	// Buffer accounting for staged groups (terminated streams drop
	// theirs without ever acquiring; their buffers go back to the arena).
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
	if err := e.deliverDouble(ctx, "unmasked failure"); err != nil {
		return nil, err
	}

	return e.endCycle(ctx), nil
}

// resolve recovers a group's missing blocks via the parity shift. visited
// guards against wrapping all the way around the clusters.
func (e *ImprovedBandwidth) resolve(gr *ibGroupRead, groups []*ibGroupRead, ctx *sched.CycleContext, visited map[int]bool) {
	if len(gr.missing) == 0 {
		return
	}
	// Count the recoverable missing blocks.
	var recoverable []int
	for _, j := range gr.missing {
		if !gr.unmaskable[j] {
			recoverable = append(recoverable, j)
		}
	}
	gr.missing = nil
	if len(recoverable) == 0 {
		return // only mid-cycle losses: one-time hiccups
	}
	if len(recoverable) > 1 {
		// Two blocks gone from one group: catastrophic, nothing to do.
		return
	}
	j := recoverable[0]
	pCluster := e.cfg.Layout.ParityHomeCluster(gr.g.Cluster)
	if visited[pCluster] {
		// Wrapped around: no capacity anywhere. Degradation of service.
		e.terminate(gr.s, ctx.Rep)
		return
	}
	visited[pCluster] = true

	par := e.readParity(gr, groups, ctx, visited)
	if par == nil {
		return // terminate/hiccup already handled downstream
	}
	// Reconstruct in place: fold the surviving blocks into the parity
	// buffer, whose ownership then moves to the missing data slot.
	for k, blk := range gr.bg.data {
		if k == j || blk == nil {
			continue
		}
		if err := parity.XORInto(par, blk); err != nil {
			e.arena.Put(par)
			return
		}
	}
	gr.bg.data[j] = par
	gr.bg.reconstructed[j] = true
	ctx.Rep.Reconstructions++
}

// readParity secures a slot on the group's parity drive — dropping a
// local read in its favor if necessary — and reads the parity block. It
// returns nil after handling the failure modes (failed parity drive:
// catastrophic hiccup; no victim: degradation).
func (e *ImprovedBandwidth) readParity(gr *ibGroupRead, groups []*ibGroupRead, ctx *sched.CycleContext, visited map[int]bool) []byte {
	pDisk := gr.g.Parity.Disk
	if drv, err := e.cfg.Farm.Drive(pDisk); err != nil || drv.State() != disk.Operational {
		// Adjacent-cluster double failure: the paper's data-loss case.
		return nil
	}
	if ctx.Slots.Free(pDisk) == 0 {
		// Drop a victim's local read on this drive in favor of parity.
		victim := e.pickVictim(groups, pDisk, gr)
		if victim == nil {
			e.terminate(gr.s, ctx.Rep)
			return nil
		}
		// The victim loses the block it read from pDisk; the freed slot
		// carries our parity read. The victim's group then shifts right
		// itself.
		for vi, vr := range victim.reads {
			if vr.disk == pDisk {
				e.arena.Put(victim.bg.data[vr.offset])
				victim.bg.data[vr.offset] = nil
				victim.missing = append(victim.missing, vr.offset)
				victim.reads = append(victim.reads[:vi], victim.reads[vi+1:]...)
				break
			}
		}
		ctx.Slots.Put(pDisk)
		defer e.resolve(victim, groups, ctx, visited)
	}
	blk := e.readTrack(ctx, gr.g.Parity, &ctx.Rep.ParityReads)
	if blk == nil {
		return nil
	}
	// The parity block occupies a buffer only within this cycle. The
	// caller owns the returned arena buffer (resolve transfers it into
	// the reconstructed slot).
	if err := e.holdBriefly(); err != nil {
		e.arena.Put(blk)
		return nil
	}
	return blk
}

// pickVictim finds a group (other than the requester) holding a normal
// data-read slot on the drive.
func (e *ImprovedBandwidth) pickVictim(groups []*ibGroupRead, d int, requester *ibGroupRead) *ibGroupRead {
	for _, gr := range groups {
		if gr == requester || gr.s.Terminated {
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

// terminate kills a stream: the paper's degradation of service. Buffers
// the stream still holds from the previous cycle are returned.
func (e *ImprovedBandwidth) terminate(s *groupStream, rep *sched.CycleReport) {
	if s.Terminated {
		return
	}
	s.Terminated = true
	e.terminations++
	rep.Terminated = append(rep.Terminated, s.ID)
	_ = e.releaseGroups(s.delivering, s.staged)
	s.delivering, s.staged = nil, nil
}
