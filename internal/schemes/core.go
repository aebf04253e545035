package schemes

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"ftmm/internal/buffer"
	"ftmm/internal/layout"
	"ftmm/internal/parity"
	"ftmm/internal/sched"
)

// ErrCapacity marks an admission-bound refusal — a rate change or
// admission that would push some drive past its per-cycle slot budget.
// Callers distinguish it from unknown-stream or validation errors to
// decide whether a retry later can succeed.
var ErrCapacity = errors.New("schemes: capacity")

// LostNoSlot is the hiccup reason of a track whose read was refused for
// want of a slot on its drive. The chaos continuity checker reads it:
// under Non-clustered's alternate switchover a reconstruction's early
// reads take the slots a stream caught mid-group still needs (Figure
// 7's Y3), a loss the transition may add to the failed drive's own
// track. Anywhere else it is an over-committed cycle.
const LostNoSlot = "track not read: drive out of slots"

// lostUnread is the hiccup reason of a track whose read found the member
// erased and that no reconstruction stood in for.
const lostUnread = "track could not be read or rebuilt"

// engineCore is the chassis shared by the five scheme engines: the
// validated configuration, the cycle time and per-disk slot budget, the
// cycle counter, stream-ID allocation, the buffer pool, the metrics
// recorder, the one track read (readTrack), the one reconstruction
// (reconstruct) and the one delivery (emit, per buffered track
// deliverTrack). Engines embed it and keep only their scheme-specific
// scheduling logic. A Step issues its reads serially, on its caller's
// goroutine; the folds that make its missing tracks run as one batch,
// handed to idle cores as the Step returns and finished when the next
// Step begins. A made track goes out the cycle after it was read, so
// its fold runs behind the caller's work between the two.
type engineCore struct {
	cfg          Config
	cycleTime    time.Duration // T_cyc = k′·B/b₀ for the engine's k′
	slotsPerDisk int
	cycle        int
	nextID       int
	pool         *buffer.Pool
	// reserve is the per-drive slot count admission holds back (the
	// headroom Improved-bandwidth's shift needs; 0 elsewhere), and load
	// admit's per-drive count, recomputed on every admission.
	reserve int
	load    []int
	// arena recycles the track-sized buffers the engine makes
	// (reconstructions, XOR accumulators) across cycles; tracks read off
	// a platter are views and never come from it. pool above remains the
	// paper's track-count accounting.
	arena *buffer.Arena
	rec   *sched.Recorder
	// slots are this cycle's per-disk read budgets, and rep the report
	// under assembly. Both are reset each Step, not reallocated — hence a
	// report's one-Step validity (sched.CycleReport.Clone).
	slots *sched.Slots
	rep   *sched.CycleReport
	// delivered holds the engine's own reference on every made track
	// shared into the last Step's report; beginCycle releases them.
	// Consumers that need a made track longer Retain its Delivery.Buf; a
	// read track has no Ref and needs none.
	delivered []*buffer.Ref
	// spare holds the headers of finished bufferedGroups for newGroup to
	// reuse.
	spare []*bufferedGroup
	// folds queues the cycle's folds; survivors gathers one fold's
	// sources.
	folds     *parity.Batch
	survivors [][]byte
}

// newEngineCore validates the config and builds the chassis for an
// engine whose cycle reads k' tracks per stream.
func newEngineCore(cfg Config, kPrime int) (engineCore, error) {
	if err := cfg.validate(); err != nil {
		return engineCore{}, err
	}
	cycleTime := cfg.Farm.Params().CycleTime(kPrime, cfg.Rate)
	perDisk, err := cfg.slotsFor(cycleTime)
	if err != nil {
		return engineCore{}, err
	}
	slots, err := sched.NewSlots(cfg.Farm.Size(), perDisk)
	if err != nil {
		return engineCore{}, err
	}
	// A fold reads a track this cycle: a cycle queues at most one per slot.
	folds, reads := new(parity.Batch), cfg.Farm.Size()*perDisk
	folds.Grow(reads, 2*reads)
	return engineCore{
		cfg:          cfg,
		cycleTime:    cycleTime,
		slotsPerDisk: perDisk,
		pool:         buffer.NewPool(),
		arena:        buffer.NewArena(int(cfg.Farm.Params().TrackSize)),
		rec:          sched.NewRecorder(cfg.Metrics),
		load:         make([]int, cfg.Farm.Size()),
		slots:        slots,
		rep:          &sched.CycleReport{},
		folds:        folds,
	}, nil
}

// Cycle implements Simulator.
func (c *engineCore) Cycle() int { return c.cycle }

// CycleTime implements Simulator: T_cyc = k′·B/b₀, k′ being C-1 for the
// whole-group engines and 1 for Staggered-group and Non-clustered.
func (c *engineCore) CycleTime() time.Duration { return c.cycleTime }

// SlotsPerDisk returns the per-disk per-cycle track budget in use.
func (c *engineCore) SlotsPerDisk() int { return c.slotsPerDisk }

// BufferPeak implements Simulator.
func (c *engineCore) BufferPeak() int { return c.pool.Peak() }

// BufferInUse returns the current buffer occupancy in tracks.
func (c *engineCore) BufferInUse() int { return c.pool.InUse() }

// Arena implements Simulator, exposing the byte-buffer recycler for
// refcount leak accounting.
func (c *engineCore) Arena() *buffer.Arena { return c.arena }

// FailDisk implements Simulator for engines with no extra failure
// bookkeeping (the Non-clustered engine overrides this).
func (c *engineCore) FailDisk(id int) error {
	drv, err := c.cfg.Farm.Drive(id)
	if err != nil {
		return err
	}
	return drv.Fail()
}

// readTrack is the one scheduled track read: a slot on the track's drive,
// then read. It returns nil and why when it got nothing: LostNoSlot when
// the drive's budget is spent, lostUnread (slot kept, as the arm was
// scheduled) when the read found the track erased.
func (c *engineCore) readTrack(st *sched.Stream, g *layout.Group, loc layout.Location, reads *int) ([]byte, string) {
	if !c.slots.Take(loc.Disk) {
		return nil, LostNoSlot
	}
	if view, err := c.read(st, g, loc, reads); err == nil {
		return view, ""
	}
	return nil, lostUnread
}

// read is readTrack's second half, for stageGroup, which takes a whole
// group's slots first. It reads group g's member at loc for stream st:
// the drive's own slice (disk.Drive.View), which nothing in the engine
// may write into or Put, counted in reads unless that is nil. A member
// found erased is the one place an erasure enters the cycle's report.
func (c *engineCore) read(st *sched.Stream, g *layout.Group, loc layout.Location, reads *int) ([]byte, error) {
	drv, err := c.cfg.Farm.Drive(loc.Disk)
	if err != nil {
		return nil, err
	}
	view, err := drv.View(loc.Track)
	if err != nil {
		c.rep.Erasures = append(c.rep.Erasures, sched.Erasure{StreamID: st.ID, Group: g.Index, Loc: loc, Err: err})
		return nil, err
	}
	if reads != nil {
		*reads++
	}
	return view, nil
}

// reconstruct makes a group's missing track: a fresh arena buffer, into
// which the fold of survivors (the parity block and every other data
// block of the group) is queued. Until the queue runs the buffer holds
// no track and must not be read or Put. The survivors are only read.
func (c *engineCore) reconstruct(survivors [][]byte) ([]byte, error) {
	dst := c.arena.Get()
	if err := c.folds.Add(dst, survivors...); err != nil {
		c.put(dst)
		return nil, err
	}
	return dst, nil
}

// put is the one return of a made track to the arena. It runs the
// queued folds first, waiting for a started batch: buf may be a
// destination still to be folded.
func (c *engineCore) put(buf []byte) {
	c.folds.Run()
	c.arena.Put(buf)
}

// holdBriefly accounts a buffer that lives only within this cycle (a
// parity block folded into a reconstruction): it counts toward the
// pool's peak but not its occupancy.
func (c *engineCore) holdBriefly() {
	c.pool.Acquire(1)
	_ = c.pool.Release(1) // cannot fail: the track was just acquired
}

// emit is the one delivery: the stream's track goes into the cycle's
// report, and a nil buf hiccups for the given reason, naming the drive
// failure f it belongs to (the zero Failure where none). The reconstructed
// flag is also the buffer's kind. A made track is an arena buffer: it
// goes out in a Ref (Arena.Share), which now owns buf, and the engine
// keeps its own reference until the next Step's beginCycle. A read track
// is a platter view and goes out with a nil Buf.
func (c *engineCore) emit(st *sched.Stream, track int, buf []byte, reconstructed bool, reason string, f sched.Failure) {
	if buf == nil {
		c.rep.Hiccups = append(c.rep.Hiccups, sched.Hiccup{
			StreamID: st.ID, ObjectID: st.Obj.ID, Track: track, Reason: reason, Failure: f,
		})
		return
	}
	var ref *buffer.Ref
	if reconstructed {
		ref = c.arena.Share(buf)
		c.delivered = append(c.delivered, ref)
	}
	c.rep.Delivered = append(c.rep.Delivered, sched.Delivery{
		StreamID: st.ID, ObjectID: st.Obj.ID, Track: track,
		Data: buf, Buf: ref, Reconstructed: reconstructed,
	})
}

// beginCycle opens the cycle: it waits for the folds the last cycle
// started (on a healthy farm there are none), then clears the slot
// budgets, the report and the record of the farm's erased lookups.
func (c *engineCore) beginCycle() {
	c.folds.Run()
	// Drop the engine's references on last cycle's delivered tracks;
	// buffers with no other holders return to the arena here, before
	// this cycle's reads can reuse them.
	for i, ref := range c.delivered {
		ref.Release()
		c.delivered[i] = nil
	}
	c.delivered = c.delivered[:0]
	c.slots.Reset()
	c.rep.Reset(c.cycle)
	c.cfg.Farm.BeginCycle()
}

// endCycle closes the cycle: it stamps buffer occupancy, feeds the
// metrics recorder, advances the clock, starts the queued folds behind
// the caller and returns the assembled report. A made track in the
// report must have been folded in an earlier cycle: one still queued
// would go out unmade, so the Step fails instead. A report with no made
// track (delivered is empty), such as every healthy one, is not walked.
func (c *engineCore) endCycle() (*sched.CycleReport, error) {
	if len(c.delivered) > 0 {
		for _, d := range c.rep.Delivered {
			if d.Reconstructed && c.folds.Queued(d.Data) {
				return nil, fmt.Errorf("schemes: stream %d's track %d goes out in the cycle its fold was queued", d.StreamID, d.Track)
			}
		}
	}
	c.rep.BufferInUse = c.pool.InUse()
	c.rec.ObserveCycle(c.rep, c.slots)
	c.cycle++
	c.folds.Start()
	return c.rep, nil
}

// releaseGroups ends the given buffered groups (nils are fine): their
// pooled tracks return to the pool and the groups are recycled.
func (c *engineCore) releaseGroups(bgs ...*bufferedGroup) error {
	for _, bg := range bgs {
		if bg != nil && bg.pooled > 0 {
			if err := c.pool.Release(bg.pooled); err != nil {
				return err
			}
		}
		c.recycleGroup(bg)
	}
	return nil
}

// newGroup returns the staging record for group g with nothing read yet:
// a recycled header when one is spare, else a fresh one.
func (c *engineCore) newGroup(g *layout.Group) *bufferedGroup {
	// Every group of a layout has the same width, so any spare fits.
	if n := len(c.spare); n > 0 {
		bg := c.spare[n-1]
		c.spare[n-1] = nil
		c.spare = c.spare[:n-1]
		bg.group = g
		return bg
	}
	return &bufferedGroup{
		group:         g,
		data:          make([][]byte, len(g.Data)),
		reconstructed: make([]bool, len(g.Data)),
	}
}

// recycleGroup ends a buffered group: the tracks it still holds that the
// engine made go back to the arena, the read ones (views) are dropped,
// and the cleared header goes on the spare list. A made track handed to
// a delivery has already left bg.data (its Ref owns it), so nothing a
// live report references is recycled here.
func (c *engineCore) recycleGroup(bg *bufferedGroup) {
	if bg == nil {
		return
	}
	for i, d := range bg.data {
		if d != nil && bg.reconstructed[i] {
			c.put(d)
		}
	}
	clear(bg.data)
	clear(bg.reconstructed)
	*bg = bufferedGroup{data: bg.data, reconstructed: bg.reconstructed}
	c.spare = append(c.spare, bg)
}

// engineStream lets generic helpers reach the embedded sched.Stream of
// any engine's stream type.
type engineStream interface {
	stream() *sched.Stream
}

// streamProgress reports a stream's delivery progress: the next track
// owed to the client and the object's total tracks. ok is false for
// streams the engine never knew or has forgotten: an ended stream still
// reports (next pinned at total for finished) until the next Step's
// dropEnded.
func streamProgress[S engineStream](streams []S, id int) (next, total int, ok bool) {
	for _, s := range streams {
		if st := s.stream(); st.ID == id {
			return st.NextDeliver, st.Obj.Tracks, true
		}
	}
	return 0, 0, false
}

// dropEnded forgets, order preserved, every stream that finished, was
// cancelled or was terminated, so the per-cycle walks over the stream
// list — and the list itself — stay proportional to the streams being
// served, not to every stream ever admitted. An ended stream holds no
// buffers (delivery, cancel and terminate all release them on the way
// to setting the flag) and every walk already skips it, so reports are
// unchanged. Engines call it at the top of Step: a stream that ended in
// one cycle stays visible to StreamProgress until the next.
func dropEnded[S engineStream](streams []S) []S {
	kept := streams[:0]
	for _, s := range streams {
		if st := s.stream(); !st.Done && !st.Terminated {
			kept = append(kept, s)
		}
	}
	clear(streams[len(kept):])
	return kept
}

// checkStartGroup validates an AddStreamAt origin: it must index an
// existing parity group of the object.
func checkStartGroup(obj *layout.Object, startGroup int) error {
	if startGroup < 0 || startGroup >= len(obj.Groups) {
		return fmt.Errorf("schemes: start group %d outside [0,%d) of %s", startGroup, len(obj.Groups), obj.ID)
	}
	return nil
}

// footprint is where a stream reads in its next read cycle: reads
// track reads on each drive of [lo, hi), in the cycles of the given
// phase (cycle mod the engine's read period; 0 for the engines that
// read every cycle). A stream with nothing left to read has none.
type footprint struct {
	lo, hi, phase, reads int
}

// groupFootprint is a whole-group read of obj's group g in phase: one
// read on every drive of its farm cluster (the G drives of its
// declustering group under dc, of which its block touches C).
func (c *engineCore) groupFootprint(obj *layout.Object, g, phase int) footprint {
	if g >= len(obj.Groups) {
		return footprint{}
	}
	size := c.cfg.Layout.ClusterSize()
	lo := obj.Groups[g].Cluster * size
	return footprint{lo: lo, hi: lo + size, phase: phase, reads: 1}
}

// admit is the one admission rule, for a new stream and a rate rise
// alike. It counts per drive the reads the other active streams make in
// cand's phase, as foot states them, and fits cand only if no drive of
// its footprint then exceeds the budget less the reserve; a refusal
// wraps ErrCapacity. The count is recomputed on each call, so nothing
// follows streams as they end or jump. A fit now fits in every later
// cycle: streams of one phase advance in lockstep, and a fast-forward
// footprint covers every drive at its worst draw.
func admit[S engineStream](c *engineCore, streams []S, foot func(S) footprint, cand S) error {
	self, want := cand.stream(), foot(cand)
	clear(c.load)
	for _, s := range streams {
		if st := s.stream(); st == self || st.Done || st.Terminated {
			continue
		}
		if f := foot(s); f.phase == want.phase {
			for d := f.lo; d < f.hi; d++ {
				c.load[d] += f.reads
			}
		}
	}
	limit := c.slotsPerDisk - c.reserve
	for d := want.lo; d < want.hi; d++ {
		if c.load[d]+want.reads > limit {
			return fmt.Errorf("%w: drive %d has %d of %d reads taken in phase %d", ErrCapacity, d, c.load[d], limit, want.phase)
		}
	}
	return nil
}

// enroll admits the new stream s (admit) and, if it fits, gives it the
// next stream ID and appends it to streams.
func enroll[S engineStream](c *engineCore, streams *[]S, foot func(S) footprint, s S) (int, error) {
	if err := admit(c, *streams, foot, s); err != nil {
		return 0, err
	}
	st := s.stream()
	st.ID = c.nextID
	c.nextID++
	*streams = append(*streams, s)
	return st.ID, nil
}

// activeCount counts streams still being served.
func activeCount[S engineStream](streams []S) int {
	n := 0
	for _, s := range streams {
		if st := s.stream(); !st.Done && !st.Terminated {
			n++
		}
	}
	return n
}

// findActive locates an active stream by ID.
func findActive[S engineStream](streams []S, id int) (S, error) {
	var zero S
	for _, s := range streams {
		st := s.stream()
		if st.ID != id {
			continue
		}
		if st.Done || st.Terminated {
			return zero, fmt.Errorf("schemes: stream %d is not active", id)
		}
		return s, nil
	}
	return zero, fmt.Errorf("schemes: no stream %d", id)
}

// groupStream is the double-buffered stream state shared by the
// whole-group engines (Streaming RAID, Declustered and
// Improved-bandwidth): the groups read this cycle are staged; the groups
// read last cycle are delivering. Each list is in group order and holds
// one group at rate 1, up to r under fast-forward.
type groupStream struct {
	sched.Stream
	// nextGroup is the next parity-group index to read.
	nextGroup  int
	staged     []*bufferedGroup
	delivering []*bufferedGroup
	// rate is the playback multiplier: 0 and 1 mean normal playback (one
	// group per cycle), r > 1 means fast-forward — r groups staged and
	// delivered per cycle.
	rate int
}

func (s *groupStream) stream() *sched.Stream { return &s.Stream }

// ffRate normalizes a stream's playback multiplier (0 means 1).
func ffRate(s *groupStream) int {
	if s.rate > 1 {
		return s.rate
	}
	return 1
}

// groupEngine is the whole-group chassis: every active stream reads one
// entire parity group per cycle and delivers the group read the cycle
// before. Streaming RAID, Declustered and Improved-bandwidth embed it and
// differ only in how a cycle's reads are scheduled and what a failure
// costs; admission, cancellation and progress are the same for all.
type groupEngine struct {
	engineCore
	streams []*groupStream
}

// Active implements Simulator.
func (e *groupEngine) Active() int { return activeCount(e.streams) }

// StreamProgress implements Simulator.
func (e *groupEngine) StreamProgress(id int) (next, total int, ok bool) {
	return streamProgress(e.streams, id)
}

// AddStreamAt implements Simulator: the stream is admitted if its
// footprint fits (admit).
func (e *groupEngine) AddStreamAt(obj *layout.Object, startGroup int) (int, error) {
	if err := checkStartGroup(obj, startGroup); err != nil {
		return 0, err
	}
	return enroll(&e.engineCore, &e.streams, e.footprint, &groupStream{
		Stream:    sched.Stream{Obj: obj, NextDeliver: startGroup * e.cfg.Layout.GroupWidth()},
		nextGroup: startGroup,
	})
}

// footprint is a whole-group stream's next read cycle: at rate 1 the
// cluster of its next group. A rate-r stream reads its next r groups,
// on r consecutive clusters mod N (layout places group g on cluster
// (start+g) mod N), so any one drive at most ceil(r/N) times a cycle
// wherever it is: its footprint is every drive at that draw.
func (e *groupEngine) footprint(s *groupStream) footprint {
	if r := ffRate(s); r > 1 && s.nextGroup < len(s.Obj.Groups) {
		n := e.cfg.Layout.Clusters()
		return footprint{hi: e.cfg.Farm.Size(), reads: (r + n - 1) / n}
	}
	return e.groupFootprint(s.Obj, s.nextGroup, 0)
}

// setStreamRate changes a stream's playback multiplier (1 = normal,
// r > 1 = fast-forward reading r groups per cycle). Only the engines
// that read parity with every group export it: Improved-bandwidth's shift
// has no fast-forward story. Dropping the rate (or holding it) always
// succeeds — it only releases draw. Raising it is admission again at
// the new rate: a refusal wraps ErrCapacity (worth a retry once capacity
// frees up) and keeps the old rate.
func (e *groupEngine) setStreamRate(id, rate int) error {
	if rate < 1 {
		return fmt.Errorf("schemes: rate %d must be at least 1", rate)
	}
	s, err := findActive(e.streams, id)
	if err != nil {
		return err
	}
	if rate <= ffRate(s) {
		s.rate = rate
		return nil
	}
	old := s.rate
	s.rate = rate
	if err := admit(&e.engineCore, e.streams, e.footprint, s); err != nil {
		s.rate = old
		return err
	}
	return nil
}

// weightedActive sums max(rate, 1) over active streams: the per-cycle
// k′ draw the farm is actually committed to, which is what the paper's
// N_p bound constrains once fast-forward multiplies a viewer's draw.
func (e *groupEngine) weightedActive() int {
	n := 0
	for _, s := range e.streams {
		if s.Done || s.Terminated {
			continue
		}
		n += ffRate(s)
	}
	return n
}

// CancelStream implements Simulator: the stream stops immediately (a
// client hanging up, not a degradation event) and its buffers are
// returned.
func (e *groupEngine) CancelStream(id int) error {
	s, err := findActive(e.streams, id)
	if err != nil {
		return err
	}
	s.Done = true
	return e.dropGroups(&s.staged, &s.delivering)
}

// dropGroups ends every group on the given lists (releaseGroups) and
// empties the lists, keeping their backing arrays.
func (c *engineCore) dropGroups(lists ...*[]*bufferedGroup) error {
	for _, l := range lists {
		if err := c.releaseGroups(*l...); err != nil {
			return err
		}
		clear(*l)
		*l = (*l)[:0]
	}
	return nil
}

// stageReads is the whole-group read phase: every active stream stages
// its next group, and a rate-r stream its next r (capped at the
// object's end), in group order. Streams staging the same group this
// cycle (the Zipf head: many viewers of one hot title) each read it, and
// every read returns the platter's one slice, so the bytes are shared
// without the engine knowing.
func (e *groupEngine) stageReads() error {
	for _, s := range e.streams {
		if s.Done || s.Terminated || s.nextGroup >= len(s.Obj.Groups) {
			continue
		}
		for range min(ffRate(s), len(s.Obj.Groups)-s.nextGroup) {
			g := &s.Obj.Groups[s.nextGroup]
			s.nextGroup++
			staged, err := e.stageGroup(&s.Stream, g)
			if err != nil {
				return err
			}
			s.staged = append(s.staged, staged)
		}
	}
	return nil
}

// stageGroup schedules and reads one whole parity group for stream st's
// later delivery, tolerating failed drives: one slot is taken on every drive
// of the group's cluster (failed drives keep their slot — the arm is
// still scheduled — but yield nothing), a single missing track is
// rebuilt from parity, and the group's buffers are acquired. When a
// drive's slot budget is spent the group stays empty and its tracks
// hiccup at delivery with LostNoSlot; admission keeps that from
// happening on a healthy farm.
func (c *engineCore) stageGroup(st *sched.Stream, g *layout.Group) (*bufferedGroup, error) {
	ok := true
	for _, loc := range g.Data {
		if !c.slots.Take(loc.Disk) {
			ok = false
		}
	}
	if !c.slots.Take(g.Parity.Disk) {
		ok = false
	}
	staged := c.newGroup(g)
	if !ok {
		staged.lost = LostNoSlot
		return staged, nil
	}
	gr := groupRead{data: staged.data}
	for i, loc := range g.Data {
		gr.data[i], _ = c.read(st, g, loc, &c.rep.DataReads)
	}
	// The parity view's only use is the recovery below; it is dropped
	// with gr.
	gr.par, _ = c.read(st, g, g.Parity, &c.rep.ParityReads)
	if rec, recErr := gr.recoverGroup(c); recErr == nil && rec >= 0 {
		staged.reconstructed[rec] = true
		c.rep.Reconstructions++
	}
	staged.pooled = len(g.Data) + 1
	c.pool.Acquire(staged.pooled)
	return staged, nil
}

// deliverDouble runs the delivery phase for double-buffered engines:
// groups read in the previous cycle go out now, in group order, so a
// fast-forward stream's tracks on the wire stay consecutive, hiccuping
// tracks that could not be read or rebuilt (hiccupReason labels the
// loss). Each group's pool hold is released after its tracks.
func (e *groupEngine) deliverDouble(hiccupReason string) error {
	for _, s := range e.streams {
		if s.Terminated || s.Done {
			continue
		}
		groups := s.delivering
		s.delivering, s.staged = s.staged, groups[:0]
		for i, bg := range groups {
			groups[i] = nil
			for off := 0; off < bg.group.ValidTracks; off++ {
				e.deliverTrack(&s.Stream, bg, off, hiccupReason)
			}
			if err := e.releaseGroups(bg); err != nil {
				return err
			}
		}
		if len(groups) > 0 && s.Done {
			e.rep.Finished = append(e.rep.Finished, s.ID)
		}
	}
	return nil
}

// deliverTrack ships the track at in-group offset off of stream st's
// buffered group bg — out, or a hiccup giving why the group read nothing
// or else reason — and advances the stream past it.
func (c *engineCore) deliverTrack(st *sched.Stream, bg *bufferedGroup, off int, reason string) {
	c.emit(st, bg.group.Index*len(bg.group.Data)+off, bg.data[off], bg.reconstructed[off], cmp.Or(bg.lost, reason), bg.failure)
	// A made track now belongs to its Ref (released at the next Step's
	// beginCycle): clear the slot so recycleGroup Puts only the leftovers
	// (padding past ValidTracks), not a buffer behind the report's back.
	bg.data[off] = nil
	st.Advance(1)
}
