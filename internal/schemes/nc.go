package schemes

import (
	"errors"
	"fmt"
	"slices"

	"ftmm/internal/buffer"
	"ftmm/internal/disk"
	"ftmm/internal/layout"
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

// degraded reports whether a failed data drive keeps the cluster degraded
// or unprotected.
func (c ncCluster) degraded() bool { return c.mode == ncDegraded || c.mode == ncUnprotected }

// Why a Non-clustered track is lost, as its hiccup says: the switchover
// dropped it (Figures 6-7), or it is a failed drive's on a cluster no
// buffer server carries, lost on every pass (LostUnprotected, the paper's
// degradation of service, which the chaos continuity checker reads). A
// read refused a slot says LostNoSlot, and one that found the member
// erased with no reconstruction standing in lostUnread.
const (
	lostTransition  = "track lost in degraded-mode transition"
	LostUnprotected = "failed drive's track lost on an unprotected cluster"
)

// ncStaged is one staged track, held in its stream's window until
// delivered. reconstructed is also its kind: a reconstructed track is an
// arena buffer the engine made (an XOR accumulator or a group recovery),
// any other is a platter view.
type ncStaged struct {
	data          []byte
	reconstructed bool
}

// errWindowFull is a stream window's refusal of a store: the track's
// slot still holds another track not yet delivered.
var errWindowFull = errors.New("schemes: Non-clustered stream window slot taken")

// ncSlot is one track's place in a stream's window. It is live while it
// holds the track's staged bytes or why (and to what failure) the track
// hiccups when due; a track staged after it was marked lost delivers.
type ncSlot struct {
	track int
	ncStaged
	lost    string
	failure sched.Failure
}

func (sl *ncSlot) live() bool { return sl.data != nil || sl.lost != "" }

// ncStream is one Non-clustered stream: where it reads and delivers,
// and in its window the tracks between the two.
type ncStream struct {
	sched.Stream
	// read is the absolute index of the next data track to read.
	read int
	// startCycle is the cycle of the stream's first read (-1 before);
	// delivery begins the following cycle.
	startCycle int
	// win is the stream's window: every track read or marked lost and
	// not yet delivered, track r in slot r mod C (C = width+1). C slots
	// are enough. Delivery lags reads by at most one track, and a group
	// read or a reconstruction cycle stages up to the end of its group,
	// so the live tracks run from the one due next to at most width
	// beyond it: width+1 tracks, no two in one slot. A store into a slot
	// that holds another live track is refused (errWindowFull), never
	// overwritten.
	win []ncSlot
	// legacyGroup, when >= 0, is a group the stream finishes with plain
	// per-track reads even though its cluster is degraded (alternate
	// switchover for streams caught mid-group).
	legacyGroup int
	// xor is the running accumulator for the group being read on a
	// degraded cluster under the alternate policy: the first track's
	// view until a second track folds in, then an arena buffer. While
	// xorGroup >= 0 the pool is charged one buffer for it.
	xor      ncStaged
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
	// failedAt is, per drive, the cycle its last failure took effect.
	failedAt []int
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
		failedAt: make([]int, cfg.Farm.Size()),
	}, nil
}

// Name implements Simulator.
func (e *NonClustered) Name() string { return "Non-clustered" }

// Active implements Simulator.
func (e *NonClustered) Active() int { return activeCount(e.streams) }

// StreamProgress reports the next track owed to the stream and its
// object's total tracks; ok is false for unknown streams.
func (e *NonClustered) StreamProgress(id int) (next, total int, ok bool) {
	return streamProgress(e.streams, id)
}

// ClusterDegraded reports whether the cluster is running degraded.
func (e *NonClustered) ClusterDegraded(cl int) bool {
	return cl >= 0 && cl < len(e.clusters) && e.clusters[cl].degraded()
}

// width returns C-1.
func (e *NonClustered) width() int { return e.cfg.Layout.GroupWidth() }

// position splits an absolute track index into (group, offset).
func (e *NonClustered) position(r int) (g, o int) {
	return r / e.width(), r % e.width()
}

// AddStreamAt admits a stream beginning at the given parity group — the
// session-resume seam — if its footprint fits (admit): its first read
// is the start group's offset 0.
func (e *NonClustered) AddStreamAt(obj *layout.Object, startGroup int) (int, error) {
	if err := checkStartGroup(obj, startGroup); err != nil {
		return 0, err
	}
	startTrack := startGroup * e.width()
	s := &ncStream{
		Stream:      sched.Stream{Obj: obj, NextDeliver: startTrack},
		read:        startTrack,
		legacyGroup: -1, xorGroup: -1, startCycle: -1,
	}
	id, err := enroll(&e.engineCore, &e.streams, e.footprint, s)
	if err == nil {
		s.win = make([]ncSlot, e.width()+1) // a refusal allocates no window
	}
	return id, err
}

// footprint is a Non-clustered stream's next read cycle: the drive
// under its read pointer. In normal mode every stream moves on one data
// drive a cycle, so streams that do not share a drive now never do.
func (e *NonClustered) footprint(s *ncStream) footprint {
	if s.read >= s.Obj.Tracks {
		return footprint{}
	}
	g, o := e.position(s.read)
	d := s.Obj.Groups[g].Data[o].Disk
	return footprint{lo: d, hi: d + 1, reads: 1}
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
	for i := range s.win {
		sl := &s.win[i]
		st := sl.ncStaged
		*sl = ncSlot{}
		if st.data == nil {
			continue
		}
		if st.reconstructed {
			e.put(st.data)
		}
		if err := e.pool.Release(1); err != nil {
			return err
		}
	}
	return e.dropXOR(s)
}

// slot returns track r's slot in the stream's window, claimed for r, or
// the window's refusal if it holds another live track.
func (s *ncStream) slot(r int) (*ncSlot, error) {
	sl := &s.win[r%len(s.win)]
	if sl.live() && sl.track != r {
		return nil, fmt.Errorf("%w: stream %d's track %d meets track %d", errWindowFull, s.ID, r, sl.track)
	}
	sl.track = r
	return sl, nil
}

// stage stores track r's buffered content in the window.
func (s *ncStream) stage(r int, st ncStaged) error {
	sl, err := s.slot(r)
	if err != nil {
		return err
	}
	sl.ncStaged = st
	return nil
}

// markLost notes that the stream's track r will hiccup when due, giving
// reason. A loss on a cluster a data drive's failure left degraded or
// unprotected names that failure, and an unprotected pass its own
// drive's; a member read erased with no reconstruction standing in is
// lost to more than one failure, and names none.
func (e *NonClustered) markLost(s *ncStream, r int, reason string) error {
	sl, err := s.slot(r)
	if err != nil {
		return err
	}
	sl.lost, sl.failure = reason, sched.Failure{}
	g := &s.Obj.Groups[r/e.width()]
	if st := e.clusters[g.Cluster]; st.degraded() && reason != lostUnread {
		d := g.Cluster*e.cfg.Farm.ClusterSize() + st.failedOffset
		if reason == LostUnprotected {
			d = g.Data[r%e.width()].Disk
		}
		sl.failure = sched.Failure{Drive: d, Cycle: e.failedAt[d], Named: true}
	}
	return nil
}

// held returns track r's slot if the window holds r, staged or lost,
// else nil.
func (s *ncStream) held(r int) *ncSlot {
	if sl := &s.win[r%len(s.win)]; sl.track == r && sl.live() {
		return sl
	}
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
	e.failedAt[id] = e.cycle
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
	st.mode = ncDegraded
	if err := e.servers.Attach(cl); errors.Is(err, buffer.ErrExhausted) {
		st.mode = ncUnprotected
	} else if err != nil {
		return err
	}
	return e.transition(cl, offset)
}

// transition applies the policy to streams caught mid-group on the
// failed cluster.
func (e *NonClustered) transition(cl, failedOffset int) error {
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
				if err := e.markLost(s, r, lostTransition); err != nil {
					return err
				}
			}
			s.read = groupEnd
		case AlternateSwitchover:
			// Keep the schedule; only the failed drive's unread track is
			// unrecoverable (earlier tracks have left the buffers).
			failedTrack := g*width + failedOffset
			if failedTrack >= s.read && failedTrack < groupEnd {
				if err := e.markLost(s, failedTrack, lostTransition); err != nil {
					return err
				}
			}
			s.legacyGroup = g
		}
	}
	return nil
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

// dropXOR releases a stream's accumulator (accounting, and the bytes
// if it made them).
func (e *NonClustered) dropXOR(s *ncStream) error {
	if s.xorGroup < 0 {
		return nil
	}
	if s.xor.reconstructed {
		e.put(s.xor.data)
	}
	s.xor, s.xorGroup = ncStaged{}, -1
	return e.pool.Release(1)
}

// Step implements Simulator.
func (e *NonClustered) Step() (*sched.CycleReport, error) {
	e.beginCycle()
	e.streams = dropEnded(e.streams)

	degraded := 0
	for _, c := range e.clusters {
		if c.degraded() {
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
		var st ncStaged
		reason, failure := "track not staged (overload)", sched.Failure{}
		if sl := s.held(r); sl != nil {
			st, failure = sl.ncStaged, sl.failure
			if sl.lost != "" {
				reason = sl.lost
			}
			*sl = ncSlot{}
		}
		e.emit(&s.Stream, r, st.data, st.reconstructed, reason, failure)
		if st.data != nil {
			if err := e.pool.Release(1); err != nil {
				return nil, err
			}
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

	return e.endCycle()
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
	if s.held(r) != nil {
		// Already staged or lost by an earlier group-wide step.
		s.read++
		return nil
	}
	g, o := e.position(r)
	grp := &s.Obj.Groups[g]
	cl := grp.Cluster
	state := e.clusters[cl]

	switch {
	case state.mode != ncDegraded || s.legacyGroup == g:
		return e.plainRead(s, grp, r, o)
	case e.policy == AlternateSwitchover:
		return e.xorRead(s, grp, g, o, state.failedOffset)
	case o != 0:
		// Mid-group on a degraded cluster outside legacy mode should not
		// happen under the simple policy (transition drops remnants), but
		// read plainly if it does.
		return e.plainRead(s, grp, r, o)
	}
	return e.groupRead(s, grp, g, state.failedOffset)
}

// plainRead reads a single track; on slot exhaustion or drive failure the
// track is lost. On a cluster no buffer server carries, a failed drive's
// track is lost on every pass until its restore writes it: the paper's
// degradation.
func (e *NonClustered) plainRead(s *ncStream, grp *layout.Group, r, o int) error {
	s.read++
	blk, why := e.readTrack(&s.Stream, grp, grp.Data[o], &e.rep.DataReads)
	if blk == nil {
		if why == lostUnread && e.clusters[grp.Cluster].mode == ncUnprotected {
			why = LostUnprotected
		}
		return e.markLost(s, r, why)
	}
	e.pool.Acquire(1)
	return s.stage(r, ncStaged{data: blk})
}

// groupRead stages an entire parity group at once (degraded steady state
// under the simple policy), reconstructing the failed drive's track.
func (e *NonClustered) groupRead(s *ncStream, grp *layout.Group, g, failedOffset int) error {
	width := e.width()
	base := g * width
	groupEnd := min(base+width, s.Obj.Tracks)
	s.read = groupEnd

	// Every offset of the group is read, padding tracks included (they
	// exist on disk as zeros and are needed for reconstruction), into the
	// core's survivors scratch: they are the fold's sources.
	e.survivors = slices.Grow(e.survivors[:0], len(grp.Data))[:len(grp.Data)]
	clear(e.survivors)
	gr := groupRead{data: e.survivors}
	var noSlot uint64 // bit j: data offset j's drive had no slot left
	for j, loc := range grp.Data {
		if j != failedOffset {
			var why string
			if gr.data[j], why = e.readTrack(&s.Stream, grp, loc, &e.rep.DataReads); why == LostNoSlot {
				noSlot |= 1 << j
			}
		} else {
			// The failed offset is read for its erasure alone, without a
			// slot: the cluster reads around that drive until its restore
			// ends, so a track already restored goes unused and uncounted.
			_, _ = e.read(&s.Stream, grp, loc, nil)
		}
	}
	reconstructedIdx := -1
	gr.par, _ = e.readTrack(&s.Stream, grp, grp.Parity, &e.rep.ParityReads)
	if gr.par != nil {
		if rec, err := gr.recoverGroup(&e.engineCore); err == nil && rec >= 0 {
			reconstructedIdx = rec
			e.rep.Reconstructions++
		}
		// Parity occupied a buffer during the read; account and drop it.
		e.holdBriefly()
	}
	for r := base; r < groupEnd; r++ {
		j := r - base
		if gr.data[j] == nil {
			why := lostUnread
			if noSlot&(1<<j) != 0 {
				why = LostNoSlot
			}
			if err := e.markLost(s, r, why); err != nil {
				return err
			}
			continue
		}
		e.pool.Acquire(1)
		if err := s.stage(r, ncStaged{data: gr.data[j], reconstructed: j == reconstructedIdx}); err != nil {
			return err
		}
		gr.data[j] = nil
	}
	// Padding tracks of a short final group were read for reconstruction
	// but are never staged. They are views, dropped with gr — unless the
	// failed drive held one, whose reconstruction goes back to the arena.
	if reconstructedIdx >= 0 {
		e.put(gr.data[reconstructedIdx])
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
	if s.xorGroup != g && (o < failedOffset || failedOffset == 0) {
		// Start the group's accumulator: one buffer, charged now.
		if err := e.dropXOR(s); err != nil {
			return err
		}
		e.pool.Acquire(1)
		s.xorGroup = g
	}
	if o < failedOffset {
		r := s.read
		if err := e.plainRead(s, grp, r, o); err != nil {
			return err
		}
		sl := s.held(r)
		if sl == nil || sl.data == nil {
			// The read failed: the accumulator cannot reconstruct.
			return e.dropXOR(s)
		}
		// A read track is an immutable platter view, so the first is held
		// as it is; the second folds with it into a buffer, and each later
		// one into that.
		acc := s.xor.data
		if acc == nil {
			s.xor.data = sl.data
			return nil
		}
		if !s.xor.reconstructed {
			s.xor = ncStaged{data: e.arena.Get(), reconstructed: true}
		}
		return e.folds.Add(s.xor.data, acc, sl.data)
	}

	// o == failedOffset: the reconstruction cycle. Read every remaining
	// track of the group plus parity, reconstruct, stage the lot.
	groupEnd := min(base+width, s.Obj.Tracks)
	failedTrack := base + failedOffset
	s.read = groupEnd
	_, _ = e.read(&s.Stream, grp, grp.Data[failedOffset], nil) // for the record, as in groupRead

	// The reconstruction is one fold: whatever the accumulator holds,
	// every remaining track of the group and parity.
	srcs := e.survivors[:0]
	canRecon := s.xorGroup == g
	if canRecon && s.xor.data != nil {
		srcs = append(srcs, s.xor.data)
	}

	for r := failedTrack + 1; r < groupEnd; r++ {
		blk, why := e.readTrack(&s.Stream, grp, grp.Data[r-base], &e.rep.DataReads)
		if blk == nil {
			if err := e.markLost(s, r, why); err != nil {
				return err
			}
			canRecon = false
			continue
		}
		e.pool.Acquire(1)
		if err := s.stage(r, ncStaged{data: blk}); err != nil {
			return err
		}
		srcs = append(srcs, blk)
	}
	e.survivors = srcs
	par, _ := e.readTrack(&s.Stream, grp, grp.Parity, &e.rep.ParityReads)
	if canRecon && par != nil && failedTrack < s.Obj.Tracks {
		// Padding tracks of a short final group are zero, so the fold
		// is complete even when groupEnd < base+width.
		e.survivors = append(srcs, par)
		if !s.xor.reconstructed {
			s.xor = ncStaged{data: e.arena.Get(), reconstructed: true}
		}
		rec := s.xor.data
		if err := e.folds.Add(rec, e.survivors...); err != nil {
			return err
		}
		// The buffer and its charge move to the staged track.
		s.xor, s.xorGroup = ncStaged{}, -1
		e.rep.Reconstructions++
		return s.stage(failedTrack, ncStaged{data: rec, reconstructed: true})
	}
	if failedTrack < s.Obj.Tracks {
		if err := e.markLost(s, failedTrack, lostUnread); err != nil {
			return err
		}
	}
	return e.dropXOR(s)
}
