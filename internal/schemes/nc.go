package schemes

import (
	"errors"
	"fmt"
	"time"

	"ftmm/internal/buffer"
	"ftmm/internal/disk"
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
}

// Why a Non-clustered track is lost, as its hiccup says: the switchover
// dropped it (Figures 6-7), it is the failed drive's on a cluster no
// buffer server carries, or its read got nothing (the member erased, or
// the drive's slots spent) and no reconstruction stood in.
const (
	lostTransition  = "track lost in degraded-mode transition"
	lostUnprotected = "failed drive's track lost on an unprotected cluster"
	lostUnread      = "track could not be read or rebuilt"
)

// ncStaged is one staged track. reconstructed is also its kind: a
// reconstructed track is an arena buffer the engine made (an XOR
// accumulator or a group recovery), any other is a platter view.
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
	// lost maps absolute track indices that will hiccup when due to the
	// reason they will give.
	lost map[int]string
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
	return &NonClustered{
		engineCore: core, policy: policy, servers: servers,
		clusters: make([]ncCluster, cfg.Layout.Clusters()),
	}, nil
}

// Name implements Simulator.
func (e *NonClustered) Name() string { return "Non-clustered" }

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
		staged: make(map[int]ncStaged), lost: make(map[int]string),
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
		if st.reconstructed {
			e.arena.Put(st.data)
		}
		if err := e.pool.Release(1); err != nil {
			return err
		}
	}
	return e.dropXOR(s)
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
				s.lost[r] = lostTransition
			}
			s.read = groupEnd
		case AlternateSwitchover:
			// Keep the schedule; only the failed drive's unread track is
			// unrecoverable (earlier tracks have left the buffers).
			failedTrack := g*width + failedOffset
			if failedTrack >= s.read && failedTrack < groupEnd {
				s.lost[failedTrack] = lostTransition
			}
			s.legacyGroup = g
		}
	}
}

// OnDriveRebuilt tells the engine a drive's contents are whole again —
// rebuilt from parity, instantly or incrementally, or reloaded from tape.
// Restores arrive one drive at a time (tape reload is the paper's answer
// to two failures in one cluster), so the cluster's mode follows from
// what the cluster's drives say is still down — Failed, or Restoring
// while a restore runs: another data drive keeps it degraded on that
// offset, server and all; a lone parity drive costs it only its
// protection (ncParityLost); otherwise it returns to normal and frees its
// buffer server.
func (e *NonClustered) OnDriveRebuilt(id int) error {
	cl, err := e.cfg.Farm.ClusterOf(id)
	if err != nil {
		return err
	}
	drives, err := e.cfg.Farm.Cluster(cl)
	if err != nil {
		return err
	}
	st := &e.clusters[cl]
	parity := len(drives) - 1
	for o, drv := range drives[:parity] {
		if drv.State() != disk.Operational {
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
	if drives[parity].State() != disk.Operational {
		st.mode = ncParityLost
	}
	// Streams finishing a group in a special mode revert to plain reads.
	for _, s := range e.streams {
		if s.xorGroup >= 0 && s.Obj.Groups[s.xorGroup].Cluster == cl {
			if err := e.dropXOR(s); err != nil {
				return err
			}
		}
		if s.legacyGroup >= 0 && s.Obj.Groups[s.legacyGroup].Cluster == cl {
			s.legacyGroup = -1
		}
	}
	return nil
}

// dropXOR releases a stream's accumulator buffer (accounting and bytes).
func (e *NonClustered) dropXOR(s *ncStream) error {
	s.xorGroup = -1
	if s.xor == nil {
		return nil
	}
	e.arena.Put(s.xor)
	s.xor = nil
	return e.pool.Release(1)
}

// Step implements Simulator.
func (e *NonClustered) Step() (*sched.CycleReport, error) {
	e.beginCycle()
	e.streams = dropEnded(e.streams)

	degraded := 0
	for _, c := range e.clusters {
		if c.mode == ncDegraded || c.mode == ncUnprotected {
			degraded++
		}
	}
	e.rec.DegradedClusterCycles.Add(int64(degraded))

	// Two read passes: deadline-bound degraded work (group reads, XOR
	// accumulators) takes slots first, then every other read. With no
	// cluster degraded the first pass is empty.
	for _, s := range e.streams {
		if e.readable(s) && e.isDegradedWork(s) {
			if err := e.readForStream(s); err != nil {
				return nil, err
			}
		}
	}
	for _, s := range e.streams {
		if e.readable(s) && !e.isDegradedWork(s) {
			if err := e.readForStream(s); err != nil {
				return nil, err
			}
		}
	}

	// Delivery pass.
	for _, s := range e.streams {
		if s.Done || s.Terminated || s.startCycle < 0 || e.cycle <= s.startCycle {
			continue
		}
		r := s.NextDeliver
		st, staged := s.staged[r]
		reason, lost := s.lost[r]
		if !lost {
			reason = "track not staged (overload)"
		}
		e.emit(&s.Stream, r, st.data, st.reconstructed, reason)
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
			e.rep.Finished = append(e.rep.Finished, s.ID)
			// Early reads past the end cannot exist, but be defensive.
			if err := e.dropBuffers(s); err != nil {
				return nil, err
			}
		}
	}

	return e.endCycle(), nil
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
// into the cycle's report.
func (e *NonClustered) readForStream(s *ncStream) error {
	if s.startCycle < 0 {
		s.startCycle = e.cycle
	}
	r := s.read
	if _, already := s.staged[r]; already {
		s.read++
		return nil
	}
	if _, lost := s.lost[r]; lost {
		s.read++
		return nil
	}
	g, o := e.position(r)
	grp := &s.Obj.Groups[g]
	cl := grp.Cluster
	state := e.clusters[cl]

	switch {
	case state.mode == ncNormal || state.mode == ncParityLost || s.legacyGroup == g:
		return e.plainRead(s, grp, r, o)
	case state.mode == ncUnprotected:
		if o == state.failedOffset {
			// Read for the record, as in groupRead. The track is lost
			// on every pass: the paper's degradation.
			_, _ = e.read(&s.Stream, grp, grp.Data[o], nil)
			s.lost[r] = lostUnprotected
			s.read++
			return nil
		}
		return e.plainRead(s, grp, r, o)
	case state.mode == ncDegraded && e.policy == SimpleSwitchover:
		if o != 0 {
			// Mid-group on a degraded cluster outside legacy mode should
			// not happen (transition drops remnants), but read plainly if
			// it does.
			return e.plainRead(s, grp, r, o)
		}
		return e.groupRead(s, grp, g, state.failedOffset)
	case state.mode == ncDegraded && e.policy == AlternateSwitchover:
		return e.xorRead(s, grp, g, o, state.failedOffset)
	}
	return fmt.Errorf("schemes: unhandled cluster mode %d", state.mode)
}

// plainRead reads a single track; on slot exhaustion or drive failure the
// track is lost.
func (e *NonClustered) plainRead(s *ncStream, grp *layout.Group, r, o int) error {
	s.read++
	blk := e.readTrack(&s.Stream, grp, grp.Data[o], &e.rep.DataReads)
	if blk == nil {
		s.lost[r] = lostUnread
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
func (e *NonClustered) groupRead(s *ncStream, grp *layout.Group, g, failedOffset int) error {
	width := e.width()
	base := g * width
	groupEnd := min(base+width, s.Obj.Tracks)
	s.read = groupEnd

	// Every offset of the group is read, padding tracks included (they
	// exist on disk as zeros and are needed for reconstruction).
	gr := groupRead{data: make([][]byte, len(grp.Data))}
	for j, loc := range grp.Data {
		if j != failedOffset {
			gr.data[j] = e.readTrack(&s.Stream, grp, loc, &e.rep.DataReads)
		} else {
			// The failed offset is read for its erasure alone, without a
			// slot: the cluster reads around that drive until its restore
			// ends, so a track already restored goes unused and uncounted.
			_, _ = e.read(&s.Stream, grp, loc, nil)
		}
	}
	reconstructedIdx := -1
	gr.par = e.readTrack(&s.Stream, grp, grp.Parity, &e.rep.ParityReads)
	if gr.par != nil {
		if rec, err := gr.recoverGroup(&e.engineCore); err == nil && rec >= 0 {
			reconstructedIdx = rec
			e.rep.Reconstructions++
		}
		// Parity occupied a buffer during the read; account and drop it.
		if err := e.holdBriefly(); err != nil {
			return err
		}
	}
	for r := base; r < groupEnd; r++ {
		j := r - base
		if gr.data[j] == nil {
			s.lost[r] = lostUnread
			continue
		}
		if err := e.pool.Acquire(1); err != nil {
			return err
		}
		s.staged[r] = ncStaged{data: gr.data[j], reconstructed: j == reconstructedIdx}
		gr.data[j] = nil
	}
	// Padding tracks of a short final group were read for reconstruction
	// but are never staged. They are views, dropped with gr — unless the
	// failed drive held one, whose reconstruction goes back to the arena.
	if reconstructedIdx >= 0 {
		e.arena.Put(gr.data[reconstructedIdx])
	}
	return nil
}

// xorRead handles the alternate policy on a degraded cluster: tracks
// before the failed offset are read normally while folding into the
// accumulator; at the failed offset the remaining tracks and parity are
// read early and the missing track reconstructed; tracks beyond are
// already staged.
func (e *NonClustered) xorRead(s *ncStream, grp *layout.Group, g, o, failedOffset int) error {
	width := e.width()
	base := g * width
	if o > failedOffset {
		// Past the reconstruction point without staged data (possible
		// only after an unusual repair/re-fail interleaving): read
		// plainly; the drive at this offset is healthy.
		return e.plainRead(s, grp, s.read, o)
	}
	if o < failedOffset {
		if s.xorGroup != g {
			// Start the accumulator (one buffer).
			if err := e.dropXOR(s); err != nil {
				return err
			}
			if err := e.pool.Acquire(1); err != nil {
				return err
			}
			s.xor = e.arena.GetZeroed()
			s.xorGroup = g
		}
		r := s.read
		if err := e.plainRead(s, grp, r, o); err != nil {
			return err
		}
		if st, ok := s.staged[r]; ok {
			if err := parity.XORInto(s.xor, st.data); err != nil {
				return err
			}
		} else {
			// The read failed; the accumulator is now useless for
			// reconstruction.
			return e.dropXOR(s)
		}
		return nil
	}

	// o == failedOffset: the reconstruction cycle. Read every remaining
	// track of the group plus parity, reconstruct, stage the lot.
	groupEnd := min(base+width, s.Obj.Tracks)
	failedTrack := base + failedOffset
	s.read = groupEnd
	_, _ = e.read(&s.Stream, grp, grp.Data[failedOffset], nil) // for the record, as in groupRead

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
		blk := e.readTrack(&s.Stream, grp, grp.Data[r-base], &e.rep.DataReads)
		if blk == nil {
			s.lost[r] = lostUnread
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
	par := e.readTrack(&s.Stream, grp, grp.Parity, &e.rep.ParityReads)
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
		e.rep.Reconstructions++
	} else {
		if failedTrack < s.Obj.Tracks {
			s.lost[failedTrack] = lostUnread
		}
		return e.dropXOR(s)
	}
	return nil
}
