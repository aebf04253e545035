package schemes

import (
	"errors"
	"fmt"
	"time"

	"ftmm/internal/buffer"
	"ftmm/internal/layout"
	"ftmm/internal/parity"
	"ftmm/internal/sched"
)

// TransitionPolicy selects how a Non-clustered cluster moves into
// degraded mode after a data-disk failure.
type TransitionPolicy int

const (
	// SimpleSwitchover (Figure 6): the cluster immediately shifts to
	// group-at-a-time reads; streams caught mid-group drop all remaining
	// tracks of their current group.
	SimpleSwitchover TransitionPolicy = iota
	// AlternateSwitchover (Figure 7): streams caught mid-group keep
	// their per-track schedule (losing only the failed disk's unread
	// track), and streams at a group boundary run an XOR accumulator,
	// delaying the extra reads until the cycle the missing track is
	// needed. Loses strictly fewer tracks than SimpleSwitchover.
	AlternateSwitchover
)

// String names the policy.
func (p TransitionPolicy) String() string {
	switch p {
	case SimpleSwitchover:
		return "simple"
	case AlternateSwitchover:
		return "alternate"
	default:
		return fmt.Sprintf("TransitionPolicy(%d)", int(p))
	}
}

// ncClusterMode is the operating mode of one cluster.
type ncClusterMode int

const (
	ncNormal ncClusterMode = iota
	// ncParityLost: the parity drive failed; normal operation continues
	// (parity is never read in normal mode) but protection is gone.
	ncParityLost
	// ncDegraded: a data drive failed and a buffer server carries the
	// cluster through group-at-a-time (or XOR-accumulator) operation.
	ncDegraded
	// ncUnprotected: a data drive failed and no buffer server was free —
	// the paper's degradation of service. The failed drive's track is
	// lost on every pass.
	ncUnprotected
)

type ncCluster struct {
	mode ncClusterMode
	// failedOffset is the in-cluster index of the failed data drive
	// (0..C-2), meaningful in ncDegraded/ncUnprotected.
	failedOffset int
	// down[o] marks the cluster's drives (offset C-1 is parity) failed and
	// not yet reported restored. Drive state cannot stand in for it: a
	// replaced drive reads Operational while its rebuild is still running.
	down []bool
}

type ncStaged struct {
	data          []byte
	reconstructed bool
}

type ncStream struct {
	sched.Stream
	// read is the absolute index of the next data track to read.
	read int
	// startCycle is the cycle of the stream's first read (-1 before);
	// delivery begins the following cycle.
	startCycle int
	// staged maps absolute track index -> buffered content.
	staged map[int]ncStaged
	// lost marks absolute track indices that will hiccup when due.
	lost map[int]bool
	// legacyGroup, when >= 0, is a group the stream finishes with plain
	// per-track reads even though its cluster is degraded (alternate
	// switchover for streams caught mid-group).
	legacyGroup int
	// xor is the running accumulator for the group being read on a
	// degraded cluster under the alternate policy.
	xor      []byte
	xorGroup int
}

func (s *ncStream) stream() *sched.Stream { return &s.Stream }

// NonClustered is the §3 engine: in normal mode each stream reads exactly
// the track it delivers next cycle (two buffers per stream). A data-disk
// failure sends that cluster through a short transition — losing a few
// tracks per Figures 6-7 — into a degraded mode backed by one of K shared
// buffer servers, after which service continues hiccup-free.
type NonClustered struct {
	engineCore
	policy   TransitionPolicy
	streams  []*ncStream
	servers  *buffer.Servers
	clusters []ncCluster
	// degradations counts failures that found no free buffer server.
	degradations int
}

// NewNonClustered builds the engine with K shared buffer servers.
func NewNonClustered(cfg Config, policy TransitionPolicy, k int) (*NonClustered, error) {
	if cfg.Layout != nil && cfg.Layout.Placement() != layout.DedicatedParity {
		return nil, fmt.Errorf("schemes: Non-clustered needs dedicated parity, got %v", cfg.Layout.Placement())
	}
	if policy != SimpleSwitchover && policy != AlternateSwitchover {
		return nil, fmt.Errorf("schemes: unknown transition policy %v", policy)
	}
	core, err := newEngineCore(cfg, 1)
	if err != nil {
		return nil, err
	}
	servers, err := buffer.NewServers(k)
	if err != nil {
		return nil, err
	}
	clusters := make([]ncCluster, cfg.Layout.Clusters())
	for i := range clusters {
		clusters[i].down = make([]bool, cfg.Farm.ClusterSize())
	}
	return &NonClustered{
		engineCore: core, policy: policy, servers: servers, clusters: clusters,
	}, nil
}

// Name implements Simulator.
func (e *NonClustered) Name() string { return "Non-clustered" }

// Policy returns the transition policy in use.
func (e *NonClustered) Policy() TransitionPolicy { return e.policy }

// CycleTime implements Simulator: Tcyc = B/b0 (k' = 1).
func (e *NonClustered) CycleTime() time.Duration {
	return e.cfg.Farm.Params().CycleTime(1, e.cfg.Rate)
}

// Active implements Simulator.
func (e *NonClustered) Active() int { return activeCount(e.streams) }

// StreamProgress reports the next track owed to the stream and its
// object's total tracks; ok is false for unknown streams.
func (e *NonClustered) StreamProgress(id int) (next, total int, ok bool) {
	return streamProgress(e.streams, id)
}

// Degradations counts data-disk failures that found every buffer server
// busy (the paper's degradation-of-service events).
func (e *NonClustered) Degradations() int { return e.degradations }

// ClusterDegraded reports whether the cluster is running degraded.
func (e *NonClustered) ClusterDegraded(cl int) bool {
	if cl < 0 || cl >= len(e.clusters) {
		return false
	}
	return e.clusters[cl].mode == ncDegraded || e.clusters[cl].mode == ncUnprotected
}

// ClusterUnprotected reports whether the cluster is in the paper's
// degradation-of-service mode: a data drive failed with every buffer
// server busy, so the failed drive's track is lost on every pass. The
// chaos harness's continuity checker exempts streams on unprotected
// clusters from the bounded-loss-window invariant, which only holds
// when a buffer server carries the cluster.
func (e *NonClustered) ClusterUnprotected(cl int) bool {
	if cl < 0 || cl >= len(e.clusters) {
		return false
	}
	return e.clusters[cl].mode == ncUnprotected
}

// width returns C-1.
func (e *NonClustered) width() int { return e.cfg.Layout.GroupWidth() }

// position splits an absolute track index into (group, offset).
func (e *NonClustered) position(r int) (g, o int) {
	return r / e.width(), r % e.width()
}

// AddStream implements Simulator. A Non-clustered stream reads one track
// per cycle, walking the drives of its current cluster in order; two
// streams conflict only when they sit at the same (cluster, offset), and
// they advance in lockstep, so admission checks the occupancy of the new
// stream's starting position.
func (e *NonClustered) AddStream(obj *layout.Object) (int, error) {
	return e.AddStreamAt(obj, 0)
}

// AddStreamAt admits a stream beginning at the given parity group — the
// session-resume seam. The stream's first read lands at the start
// group's offset 0, so the occupancy check moves with it; after that it
// advances in lockstep like any stream that reached the position
// naturally.
func (e *NonClustered) AddStreamAt(obj *layout.Object, startGroup int) (int, error) {
	if err := checkStartGroup(obj, startGroup); err != nil {
		return 0, err
	}
	start := obj.Groups[startGroup].Cluster
	load := 0
	for _, s := range e.streams {
		if s.Done || s.Terminated || s.read >= s.Obj.Tracks {
			continue
		}
		g, o := e.position(s.read)
		if o == 0 && s.Obj.Groups[g].Cluster == start {
			load++
		}
	}
	if load >= e.slotsPerDisk {
		return 0, fmt.Errorf("schemes: position (cluster %d, offset 0) is at its %d-stream capacity", start, e.slotsPerDisk)
	}
	startTrack := startGroup * e.width()
	id := e.allocStreamID()
	e.streams = append(e.streams, &ncStream{
		Stream: sched.Stream{ID: id, Obj: obj, NextDeliver: startTrack},
		read:   startTrack,
		staged: make(map[int]ncStaged), lost: make(map[int]bool),
		legacyGroup: -1, xorGroup: -1, startCycle: -1,
	})
	return id, nil
}

// CancelStream stops serving a stream immediately and returns its
// buffers (staged tracks and any XOR accumulator).
func (e *NonClustered) CancelStream(id int) error {
	s, err := findActive(e.streams, id)
	if err != nil {
		return err
	}
	s.Done = true
	return e.dropBuffers(s)
}

// dropBuffers returns everything an ended stream still holds: staged
// tracks and any XOR accumulator.
func (e *NonClustered) dropBuffers(s *ncStream) error {
	for r, st := range s.staged {
		delete(s.staged, r)
		e.arena.Put(st.data)
		if err := e.pool.Release(1); err != nil {
			return err
		}
	}
	e.dropXOR(s)
	return nil
}

// FailDisk implements Simulator: the drive fails at the upcoming cycle
// boundary, and the owning cluster transitions per the policy.
func (e *NonClustered) FailDisk(id int) error {
	drv, err := e.cfg.Farm.Drive(id)
	if err != nil {
		return err
	}
	if err := drv.Fail(); err != nil {
		return err
	}
	cl, err := e.cfg.Farm.ClusterOf(id)
	if err != nil {
		return err
	}
	offset := id % e.cfg.Farm.ClusterSize()
	st := &e.clusters[cl]
	st.down[offset] = true
	if offset == e.cfg.Farm.ClusterSize()-1 {
		// Dedicated parity drive: no operational impact in normal mode.
		if st.mode == ncNormal {
			st.mode = ncParityLost
		}
		return nil
	}
	st.failedOffset = offset
	if err := e.servers.Attach(cl); err != nil {
		if errors.Is(err, buffer.ErrExhausted) {
			st.mode = ncUnprotected
			e.degradations++
		} else {
			return err
		}
	} else {
		st.mode = ncDegraded
	}
	e.transition(cl, offset)
	return nil
}

// transition applies the policy to streams caught mid-group on the
// failed cluster.
func (e *NonClustered) transition(cl, failedOffset int) {
	width := e.width()
	for _, s := range e.streams {
		if s.Done || s.Terminated || s.read >= s.Obj.Tracks {
			continue
		}
		g, o := e.position(s.read)
		if s.Obj.Groups[g].Cluster != cl || o == 0 {
			continue
		}
		groupEnd := min((g+1)*width, s.Obj.Tracks)
		switch e.policy {
		case SimpleSwitchover:
			// Drop every remaining track of the current group.
			for r := s.read; r < groupEnd; r++ {
				s.lost[r] = true
			}
			s.read = groupEnd
		case AlternateSwitchover:
			// Keep the schedule; only the failed drive's unread track is
			// unrecoverable (earlier tracks have left the buffers).
			failedTrack := g*width + failedOffset
			if failedTrack >= s.read && failedTrack < groupEnd {
				s.lost[failedTrack] = true
			}
			s.legacyGroup = g
		}
	}
}

// OnDriveRebuilt tells the engine a drive's contents are whole again —
// rebuilt from parity, instantly or incrementally, or reloaded from tape.
// Restores arrive one drive at a time (tape reload is the paper's answer
// to two failures in one cluster), so the cluster's mode follows from
// what is still down: another data drive keeps it degraded on that
// offset, server and all; a lone parity drive costs it only its
// protection (ncParityLost); otherwise it returns to normal and frees its
// buffer server.
func (e *NonClustered) OnDriveRebuilt(id int) error {
	cl, err := e.cfg.Farm.ClusterOf(id)
	if err != nil {
		return err
	}
	st := &e.clusters[cl]
	st.down[id%len(st.down)] = false
	parity := len(st.down) - 1
	for o, down := range st.down[:parity] {
		if down {
			st.failedOffset = o
			return nil
		}
	}
	if st.mode == ncDegraded {
		if err := e.servers.Detach(cl); err != nil {
			return err
		}
	}
	st.mode = ncNormal
	if st.down[parity] {
		st.mode = ncParityLost
	}
	// Streams finishing a group in a special mode revert to plain reads.
	for _, s := range e.streams {
		if s.xorGroup >= 0 && s.Obj.Groups[s.xorGroup].Cluster == cl {
			e.dropXOR(s)
		}
		if s.legacyGroup >= 0 && s.Obj.Groups[s.legacyGroup].Cluster == cl {
			s.legacyGroup = -1
		}
	}
	return nil
}

// dropXOR releases a stream's accumulator buffer (accounting and bytes).
func (e *NonClustered) dropXOR(s *ncStream) {
	if s.xor != nil {
		_ = e.pool.Release(1)
		e.arena.Put(s.xor)
		s.xor = nil
	}
	s.xorGroup = -1
}

// Step implements Simulator.
func (e *NonClustered) Step() (*sched.CycleReport, error) {
	ctx, err := e.beginCycle()
	if err != nil {
		return nil, err
	}
	e.streams = dropEnded(e.streams)

	degraded := 0
	for _, c := range e.clusters {
		if c.mode == ncDegraded || c.mode == ncUnprotected {
			degraded++
		}
	}
	e.rec.DegradedClusterCycles.Add(int64(degraded))

	if degraded > 0 {
		// Degraded-mode work (group reads, XOR accumulators) releases
		// buffers mid-read and its slot priority depends on pass order,
		// so degraded cycles keep the engine's original serial two-pass
		// schedule: deadline-bound degraded reads take slots first.
		for _, s := range e.streams {
			if e.readable(s) && e.isDegradedWork(s) {
				if err := e.readForStream(s, ctx); err != nil {
					return nil, err
				}
			}
		}
		for _, s := range e.streams {
			if e.readable(s) && !e.isDegradedWork(s) {
				if err := e.readForStream(s, ctx); err != nil {
					return nil, err
				}
			}
		}
	} else {
		// Normal steady state: every read is a plain single-track read on
		// the stream's current cluster — acquire-only on the pool and
		// disjoint across clusters — so the pass fans out per cluster.
		readers := make([][]*ncStream, e.cfg.Layout.Clusters())
		for _, s := range e.streams {
			if !e.readable(s) {
				continue
			}
			g, _ := e.position(s.read)
			cl := s.Obj.Groups[g].Cluster
			readers[cl] = append(readers[cl], s)
		}
		if err := e.runClusters(ctx, func(shard *sched.CycleContext, cl int) error {
			for _, s := range readers[cl] {
				if err := e.readForStream(s, shard); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// Delivery pass.
	for _, s := range e.streams {
		if s.Done || s.Terminated || s.startCycle < 0 || e.cycle <= s.startCycle {
			continue
		}
		r := s.NextDeliver
		st, staged := s.staged[r]
		reason := "track not staged (overload)"
		if s.lost[r] {
			reason = "track lost in degraded-mode transition"
		}
		e.emit(ctx.Rep, &s.Stream, r, st.data, nil, st.reconstructed, reason)
		if staged {
			delete(s.staged, r)
			if err := e.pool.Release(1); err != nil {
				return nil, err
			}
		} else {
			delete(s.lost, r)
		}
		s.Advance(1)
		if s.Done {
			ctx.Rep.Finished = append(ctx.Rep.Finished, s.ID)
			// Early reads past the end cannot exist, but be defensive.
			if err := e.dropBuffers(s); err != nil {
				return nil, err
			}
		}
	}

	return e.endCycle(ctx), nil
}

// readable reports whether the stream has read work this cycle.
func (e *NonClustered) readable(s *ncStream) bool {
	if s.Done || s.Terminated || s.read >= s.Obj.Tracks {
		return false
	}
	// Before the first read the target is the delivery origin (track 0
	// for normal admissions, the resume point for AddStreamAt streams);
	// afterwards the stream reads one track ahead of delivery.
	target := s.NextDeliver
	if s.startCycle >= 0 {
		target = s.NextDeliver + 1
	}
	return s.read <= target
}

// isDegradedWork reports whether the stream's next read touches a
// degraded cluster in a mode that needs priority slots.
func (e *NonClustered) isDegradedWork(s *ncStream) bool {
	g, o := e.position(s.read)
	cl := s.Obj.Groups[g].Cluster
	if e.clusters[cl].mode != ncDegraded {
		return false
	}
	if s.legacyGroup == g {
		return false // finishing the group with plain reads
	}
	if e.policy == SimpleSwitchover {
		return o == 0
	}
	// Alternate: the reconstruction cycle (o == failedOffset) issues the
	// batched early reads.
	return o == e.clusters[cl].failedOffset
}

// readForStream performs the stream's reads for this cycle, recording
// into the given cycle context (a shard in parallel normal-mode passes).
func (e *NonClustered) readForStream(s *ncStream, ctx *sched.CycleContext) error {
	if s.startCycle < 0 {
		s.startCycle = e.cycle
	}
	r := s.read
	if _, already := s.staged[r]; already {
		s.read++
		return nil
	}
	if s.lost[r] {
		s.read++
		return nil
	}
	g, o := e.position(r)
	grp := &s.Obj.Groups[g]
	cl := grp.Cluster
	state := e.clusters[cl]

	switch {
	case state.mode == ncNormal || state.mode == ncParityLost || s.legacyGroup == g:
		return e.plainRead(s, grp, r, o, ctx)
	case state.mode == ncUnprotected:
		if o == state.failedOffset {
			s.lost[r] = true // recurring loss: the paper's degradation
			s.read++
			return nil
		}
		return e.plainRead(s, grp, r, o, ctx)
	case state.mode == ncDegraded && e.policy == SimpleSwitchover:
		if o != 0 {
			// Mid-group on a degraded cluster outside legacy mode should
			// not happen (transition drops remnants), but read plainly if
			// it does.
			return e.plainRead(s, grp, r, o, ctx)
		}
		return e.groupRead(s, grp, g, state.failedOffset, ctx)
	case state.mode == ncDegraded && e.policy == AlternateSwitchover:
		return e.xorRead(s, grp, g, o, state.failedOffset, ctx)
	}
	return fmt.Errorf("schemes: unhandled cluster mode %d", state.mode)
}

// plainRead reads a single track; on slot exhaustion or drive failure the
// track is lost.
func (e *NonClustered) plainRead(s *ncStream, grp *layout.Group, r, o int, ctx *sched.CycleContext) error {
	s.read++
	blk := e.readTrack(ctx, grp.Data[o], &ctx.Rep.DataReads)
	if blk == nil {
		s.lost[r] = true
		return nil
	}
	if err := e.pool.Acquire(1); err != nil {
		return err
	}
	s.staged[r] = ncStaged{data: blk}
	return nil
}

// groupRead stages an entire parity group at once (degraded steady state
// under the simple policy), reconstructing the failed drive's track.
func (e *NonClustered) groupRead(s *ncStream, grp *layout.Group, g, failedOffset int, ctx *sched.CycleContext) error {
	width := e.width()
	base := g * width
	groupEnd := min(base+width, s.Obj.Tracks)
	s.read = groupEnd

	// Every offset of the group is read, padding tracks included (they
	// exist on disk as zeros and are needed for reconstruction).
	gr := groupRead{data: make([][]byte, len(grp.Data))}
	for j, loc := range grp.Data {
		if j != failedOffset {
			gr.data[j] = e.readTrack(ctx, loc, &ctx.Rep.DataReads)
		}
	}
	reconstructedIdx := -1
	gr.par = e.readTrack(ctx, grp.Parity, &ctx.Rep.ParityReads)
	if gr.par != nil {
		// recoverGroup consumes the parity buffer on success (it becomes
		// the reconstructed track); otherwise recycle it below.
		if rec, err := gr.recoverGroup(); err == nil && rec >= 0 {
			reconstructedIdx = rec
			ctx.Rep.Reconstructions++
		}
		e.arena.Put(gr.par)
		// Parity occupied a buffer during the read; account and drop it.
		if err := e.holdBriefly(); err != nil {
			return err
		}
	}
	for r := base; r < groupEnd; r++ {
		j := r - base
		if gr.data[j] == nil {
			s.lost[r] = true
			continue
		}
		if err := e.pool.Acquire(1); err != nil {
			return err
		}
		s.staged[r] = ncStaged{data: gr.data[j], reconstructed: j == reconstructedIdx}
		gr.data[j] = nil
	}
	// Padding tracks of a short final group were read for reconstruction
	// but are never staged; recycle them.
	for _, d := range gr.data {
		e.arena.Put(d)
	}
	return nil
}

// xorRead handles the alternate policy on a degraded cluster: tracks
// before the failed offset are read normally while folding into the
// accumulator; at the failed offset the remaining tracks and parity are
// read early and the missing track reconstructed; tracks beyond are
// already staged.
func (e *NonClustered) xorRead(s *ncStream, grp *layout.Group, g, o, failedOffset int, ctx *sched.CycleContext) error {
	width := e.width()
	base := g * width
	if o > failedOffset {
		// Past the reconstruction point without staged data (possible
		// only after an unusual repair/re-fail interleaving): read
		// plainly; the drive at this offset is healthy.
		return e.plainRead(s, grp, s.read, o, ctx)
	}
	if o < failedOffset {
		if s.xorGroup != g {
			// Start the accumulator (one buffer).
			e.dropXOR(s)
			if err := e.pool.Acquire(1); err != nil {
				return err
			}
			s.xor = e.arena.GetZeroed()
			s.xorGroup = g
		}
		r := s.read
		if err := e.plainRead(s, grp, r, o, ctx); err != nil {
			return err
		}
		if st, ok := s.staged[r]; ok {
			if err := parity.XORInto(s.xor, st.data); err != nil {
				return err
			}
		} else {
			// The read failed; the accumulator is now useless for
			// reconstruction.
			e.dropXOR(s)
		}
		return nil
	}

	// o == failedOffset: the reconstruction cycle. Read every remaining
	// track of the group plus parity, reconstruct, stage the lot.
	groupEnd := min(base+width, s.Obj.Tracks)
	failedTrack := base + failedOffset
	s.read = groupEnd

	canRecon := s.xorGroup == g || failedOffset == 0
	if s.xorGroup != g && failedOffset == 0 {
		// Group starts at the failed drive: accumulator is trivially
		// empty.
		if err := e.pool.Acquire(1); err != nil {
			return err
		}
		s.xor = e.arena.GetZeroed()
		s.xorGroup = g
	}

	for r := failedTrack + 1; r < groupEnd; r++ {
		blk := e.readTrack(ctx, grp.Data[r-base], &ctx.Rep.DataReads)
		if blk == nil {
			s.lost[r] = true
			canRecon = false
			continue
		}
		if err := e.pool.Acquire(1); err != nil {
			return err
		}
		s.staged[r] = ncStaged{data: blk}
		if s.xor != nil {
			if err := parity.XORInto(s.xor, blk); err != nil {
				return err
			}
		}
	}
	par := e.readTrack(ctx, grp.Parity, &ctx.Rep.ParityReads)
	if canRecon && par != nil && s.xor != nil && failedTrack < s.Obj.Tracks {
		if err := parity.XORInto(s.xor, par); err != nil {
			return err
		}
		// Padding tracks of a short final group are zero, so the fold
		// above is complete even when groupEnd < base+width.
		rec := s.xor
		s.xor = nil // buffer ownership moves to the staged track
		s.xorGroup = -1
		s.staged[failedTrack] = ncStaged{data: rec, reconstructed: true}
		ctx.Rep.Reconstructions++
	} else {
		if failedTrack < s.Obj.Tracks {
			s.lost[failedTrack] = true
		}
		e.dropXOR(s)
	}
	e.arena.Put(par) // parity's only use is the fold above
	return nil
}
