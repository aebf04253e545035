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

// ErrCapacity marks an admission-bound refusal — a rate change or
// admission that would push some cluster past its per-disk slot budget.
// Callers distinguish it from unknown-stream or validation errors to
// decide whether a retry later can succeed.
var ErrCapacity = errors.New("schemes: capacity")

// engineCore is the chassis shared by the five scheme engines: the
// validated configuration, the per-disk slot budget, the cycle counter,
// stream-ID allocation, the buffer pool, the metrics recorder, the
// bounded per-cluster worker pool, the one track read (readTrack) and the
// one delivery (emit). Engines embed it and keep only their
// scheme-specific scheduling logic.
type engineCore struct {
	cfg          Config
	slotsPerDisk int
	cycle        int
	nextID       int
	pool         *buffer.Pool
	// arena recycles the track-sized buffers the engine makes
	// (reconstructions, XOR accumulators) across cycles; tracks read off
	// a platter are lent views and never come from it. pool above
	// remains the paper's track-count accounting.
	arena   *buffer.Arena
	rec     *sched.Recorder
	workers int
	// ctx and shards are the persistent cycle context and per-cluster
	// shards, reset each Step instead of reallocated — hence a report's
	// one-Step validity (sched.CycleReport.Clone).
	ctx    *sched.CycleContext
	shards []*sched.CycleContext
	// delivered holds the engine's own reference on every track buffer
	// shared into the last Step's report; beginCycle releases them.
	// Consumers that need a track longer Retain its Delivery.Buf.
	delivered []*buffer.Ref
	// stageCaches[cl] maps group → staged bufferedGroup for same-title
	// read merging within one cycle's read phase. One map per cluster:
	// a group lives on exactly one cluster, and the read phase shards by
	// cluster, so each map is touched by a single goroutine.
	stageCaches []map[*layout.Group]*bufferedGroup
	// spare[cl] holds the headers of finished bufferedGroups of cluster
	// cl for newGroup to reuse. One list per cluster for the same reason
	// as stageCaches: the read phase pops only its own cluster's list, and
	// every release runs outside the read phase.
	spare [][]*bufferedGroup
}

// newEngineCore validates the config and builds the chassis for an
// engine whose cycle reads k' tracks per stream.
func newEngineCore(cfg Config, kPrime int) (engineCore, error) {
	if err := cfg.validate(); err != nil {
		return engineCore{}, err
	}
	slots, err := cfg.slotsFor(kPrime)
	if err != nil {
		return engineCore{}, err
	}
	return engineCore{
		cfg:          cfg,
		slotsPerDisk: slots,
		pool:         newPool(),
		arena:        buffer.NewArena(int(cfg.Farm.Params().TrackSize)),
		rec:          sched.NewRecorder(cfg.Metrics),
		workers:      cfg.Workers,
		spare:        make([][]*bufferedGroup, cfg.Layout.Clusters()),
	}, nil
}

// Cycle implements Simulator.
func (c *engineCore) Cycle() int { return c.cycle }

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

// allocStreamID hands out the next stream ID.
func (c *engineCore) allocStreamID() int {
	id := c.nextID
	c.nextID++
	return id
}

// readTrack is the one scheduled track read: a slot on the track's drive,
// the platter's view of the track, the report counter (DataReads or
// ParityReads) bumped. It returns nil — slot kept, as the arm was
// scheduled — when the drive's budget is spent or the drive has failed.
func (c *engineCore) readTrack(ctx *sched.CycleContext, loc layout.Location, reads *int) []byte {
	if !ctx.Slots.Take(loc.Disk) {
		return nil
	}
	return c.read(loc, reads)
}

// read is readTrack's second half, for stageGroup, which takes a whole
// group's slots before it reads any of them. The track comes back as
// the drive's own slice (disk.Drive.View), not a copy: a read track is a
// view, and nothing in the engine may write into it or Put it.
func (c *engineCore) read(loc layout.Location, reads *int) []byte {
	drv, err := c.cfg.Farm.Drive(loc.Disk)
	if err != nil {
		return nil
	}
	view, err := drv.View(loc.Track)
	if err != nil {
		return nil
	}
	*reads++
	return view
}

// reconstruct makes a group's missing track: the fold of survivors (the
// parity block and every other data block of the group) into a fresh
// arena buffer, in one pass. The survivors are views and are only read.
func (c *engineCore) reconstruct(survivors [][]byte) ([]byte, error) {
	dst := c.arena.Get()
	if err := parity.ReconstructInto(dst, survivors); err != nil {
		c.arena.Put(dst)
		return nil, err
	}
	return dst, nil
}

// holdBriefly accounts a buffer that lives only within this cycle (a
// parity block folded into a reconstruction): it counts toward the
// pool's peak but not its occupancy.
func (c *engineCore) holdBriefly() error {
	if err := c.pool.Acquire(1); err != nil {
		return err
	}
	return c.pool.Release(1)
}

// emit is the one delivery: the stream's track goes out in a handle on
// buf — or on ref, when an earlier sharer of a merged read already
// minted it (a second handle on one buffer would double-free it) — and a
// track with neither hiccups for the given reason. The reconstructed
// flag is also the buffer's kind: a made track is an arena buffer and is
// Shared, a read track is a platter view and is Lent. It returns the
// handle delivered, which now owns buf; the engine keeps its own
// reference on it until the next Step's beginCycle.
func (c *engineCore) emit(rep *sched.CycleReport, st *sched.Stream, track int, buf []byte, ref *buffer.Ref, reconstructed bool, reason string) *buffer.Ref {
	switch {
	case ref != nil:
		ref.Retain()
		buf = ref.Bytes()
	case buf != nil && reconstructed:
		ref = c.arena.Share(buf)
	case buf != nil:
		ref = c.arena.Lend(buf)
	default:
		rep.Hiccups = append(rep.Hiccups, sched.Hiccup{
			StreamID: st.ID, ObjectID: st.Obj.ID, Track: track, Reason: reason,
		})
		return nil
	}
	c.delivered = append(c.delivered, ref)
	rep.Delivered = append(rep.Delivered, sched.Delivery{
		StreamID: st.ID, ObjectID: st.Obj.ID, Track: track,
		Data: buf, Buf: ref, Reconstructed: reconstructed,
	})
	return ref
}

// beginCycle opens the cycle's context: cleared slot budgets, the shared
// pool, an emptied report, and the recorder. The context is persistent —
// reset, not reallocated.
func (c *engineCore) beginCycle() (*sched.CycleContext, error) {
	// Drop the engine's references on last cycle's delivered tracks;
	// buffers with no other holders return to the arena here, before
	// this cycle's reads can reuse them.
	for i, ref := range c.delivered {
		ref.Release()
		c.delivered[i] = nil
	}
	c.delivered = c.delivered[:0]
	if c.ctx == nil {
		slots, err := sched.NewSlots(c.cfg.Farm.Size(), c.slotsPerDisk)
		if err != nil {
			return nil, err
		}
		c.ctx = sched.NewCycleContext(c.cycle, slots, c.pool, c.rec)
		return c.ctx, nil
	}
	c.ctx.Reset(c.cycle)
	return c.ctx, nil
}

// endCycle closes the cycle: stamps buffer occupancy, feeds the metrics
// recorder, and advances the clock.
func (c *engineCore) endCycle(ctx *sched.CycleContext) *sched.CycleReport {
	rep := ctx.Finish()
	c.cycle++
	return rep
}

// runClusters fans one cycle phase out across clusters on the bounded
// worker pool. Each cluster's work records into a private shard of ctx;
// shards merge back in cluster-index order, so the assembled report is
// bit-identical at any worker count. Correct only for phases whose
// per-cluster work touches disjoint disks (true for every scheme here:
// a stream's reads stay within its current cluster).
func (c *engineCore) runClusters(ctx *sched.CycleContext, fn func(shard *sched.CycleContext, cl int) error) error {
	n := c.cfg.Layout.Clusters()
	if c.shards == nil {
		c.shards = make([]*sched.CycleContext, n)
	}
	if err := sched.RunClusters(n, c.workers, func(cl int) error {
		shard := c.shards[cl]
		if shard == nil {
			shard = ctx.Shard()
			c.shards[cl] = shard
		} else {
			// Rewind only the shard's private report; slot budgets are
			// shared with ctx and were reset in beginCycle.
			shard.Cycle = ctx.Cycle
			shard.Rep.Reset(ctx.Cycle)
		}
		return fn(shard, cl)
	}); err != nil {
		return err
	}
	ctx.MergeShards(c.shards...)
	return nil
}

// ensureStageCaches sizes the per-cluster stage-cache table. Called
// before the parallel read phase so workers only ever write their own
// cluster's slot.
func (c *engineCore) ensureStageCaches() {
	if c.stageCaches == nil {
		c.stageCaches = make([]map[*layout.Group]*bufferedGroup, c.cfg.Layout.Clusters())
	}
}

// stageCacheFor returns cluster cl's same-title stage cache, emptied for
// this cycle. Callers must have run ensureStageCaches first and must be
// the (single) goroutine working cluster cl.
func (c *engineCore) stageCacheFor(cl int) map[*layout.Group]*bufferedGroup {
	m := c.stageCaches[cl]
	if m == nil {
		m = make(map[*layout.Group]*bufferedGroup, 4)
		c.stageCaches[cl] = m
	}
	clear(m)
	return m
}

// releaseGroups drops one sharer's hold on the given buffered groups
// (nils are fine): the sharer's pooled tracks return to the pool, and
// when the last sharer lets go the group is recycled.
func (c *engineCore) releaseGroups(bgs ...*bufferedGroup) error {
	for _, bg := range bgs {
		if bg == nil {
			continue
		}
		if bg.pooled > 0 {
			if err := c.pool.Release(bg.pooled); err != nil {
				return err
			}
		}
		if bg.shares > 1 {
			bg.shares--
			continue
		}
		c.recycleGroup(bg)
	}
	return nil
}

// newGroup returns the staging record for group g with nothing read yet,
// held by one stream: a recycled header of g's cluster when one is
// spare, else a fresh one. Only the goroutine working g's cluster may
// call it during the read phase.
func (c *engineCore) newGroup(g *layout.Group) *bufferedGroup {
	// Every group of a layout has the same width, so any spare fits.
	spare := c.spare[g.Cluster]
	if n := len(spare); n > 0 {
		bg := spare[n-1]
		spare[n-1] = nil
		c.spare[g.Cluster] = spare[:n-1]
		bg.group, bg.shares = g, 1
		return bg
	}
	return &bufferedGroup{
		group:         g,
		data:          make([][]byte, len(g.Data)),
		reconstructed: make([]bool, len(g.Data)),
		shares:        1,
	}
}

// recycleGroup ends a buffered group whose last holder let go: the
// tracks it still holds that the engine made go back to the arena, the
// read ones (views) are dropped, and the cleared header goes on its
// cluster's spare list. A track handed to a delivery has already left
// bg.data (its Ref owns it), so nothing a live report references is
// recycled here.
func (c *engineCore) recycleGroup(bg *bufferedGroup) {
	if bg == nil {
		return
	}
	for i, d := range bg.data {
		if d != nil && bg.reconstructed[i] {
			c.arena.Put(d)
		}
	}
	clear(bg.data)
	clear(bg.reconstructed)
	clear(bg.refs)
	cl := bg.group.Cluster
	*bg = bufferedGroup{data: bg.data, reconstructed: bg.reconstructed, refs: bg.refs}
	c.spare[cl] = append(c.spare[cl], bg)
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
// Improved-bandwidth): the group read this cycle is staged; the group
// read last cycle is delivering.
type groupStream struct {
	sched.Stream
	// nextGroup is the next parity-group index to read.
	nextGroup  int
	staged     *bufferedGroup
	delivering *bufferedGroup
	// rate is the playback multiplier: 0 and 1 mean normal playback (one
	// group per cycle), r > 1 means fast-forward — r groups staged and
	// delivered per cycle. The extra groups beyond the first live in
	// stagedExtra/deliveringExtra, in group order, so the rate-1 fields
	// above keep their exact pre-VCR behaviour.
	rate            int
	stagedExtra     []*bufferedGroup
	deliveringExtra []*bufferedGroup
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
	// reserve is the per-drive slot count admission holds back (the
	// headroom Improved-bandwidth's shift needs; 0 elsewhere).
	reserve int
	// plan is groupReadPlan's per-cluster table, reset each Step.
	plan [][]groupReadEntry
}

// CycleTime implements Simulator: Tcyc = (C-1)·B/b0, C being the parity
// group size.
func (e *groupEngine) CycleTime() time.Duration {
	return e.cfg.Farm.Params().CycleTime(e.cfg.Layout.GroupWidth(), e.cfg.Rate)
}

// Active implements Simulator.
func (e *groupEngine) Active() int { return activeCount(e.streams) }

// StreamProgress implements Simulator.
func (e *groupEngine) StreamProgress(id int) (next, total int, ok bool) {
	return streamProgress(e.streams, id)
}

// AddStream implements Simulator.
func (e *groupEngine) AddStream(obj *layout.Object) (int, error) {
	return e.AddStreamAt(obj, 0)
}

// AddStreamAt implements Simulator. A stream consumes one track read on
// every drive of its current cluster each cycle, and every active stream
// advances one cluster per cycle, so per-cluster stream counts are
// invariant over time: admission only needs the start cluster's current
// count to be under the per-disk budget less the reserve. A stream
// started at group g is indistinguishable from one admitted earlier that
// has advanced to g, so only the start cluster moves.
//
// Under declustered parity the "cluster" is the declustering group: a
// stream's reads land on the C drives of one block within it, and which
// block varies per group, so in the worst case every stream of the
// declustering group reads the same drive in the same cycle. The same
// cap keeps that worst case schedulable — a deliberately conservative
// floor under the analytic N, which assumes the design spreads load
// evenly.
func (e *groupEngine) AddStreamAt(obj *layout.Object, startGroup int) (int, error) {
	if err := checkStartGroup(obj, startGroup); err != nil {
		return 0, err
	}
	start := obj.Groups[startGroup].Cluster
	if limit := e.slotsPerDisk - e.reserve; e.clusterLoad(nil)[start] >= limit {
		return 0, fmt.Errorf("schemes: cluster %d is at its %d-stream capacity", start, limit)
	}
	id := e.allocStreamID()
	e.streams = append(e.streams, &groupStream{
		Stream:    sched.Stream{ID: id, Obj: obj, NextDeliver: startGroup * e.cfg.Layout.GroupWidth()},
		nextGroup: startGroup,
	})
	return id, nil
}

// ffClusterDraw bounds the extra per-cluster slot draw of every active
// fast-forward stream (excluding skip). Consecutive parity groups of an
// object land on consecutive clusters mod N (layout places group g on
// cluster (start+g) mod N), so the r groups a rate-r stream reads in
// one cycle spread over r consecutive clusters and hit any single
// cluster at most ceil(r/N) times. Summing that ceiling over all FF
// streams gives a per-cluster draw bound that holds on every cluster in
// every future cycle, which is what lets admission treat FF draw as a
// position-independent surcharge on top of the rotating rate-1 loads.
func (e *groupEngine) ffClusterDraw(skip *groupStream) int {
	n := e.cfg.Layout.Clusters()
	draw := 0
	for _, s := range e.streams {
		if s == skip || s.Done || s.Terminated || s.nextGroup >= len(s.Obj.Groups) {
			continue
		}
		if r := ffRate(s); r > 1 {
			draw += (r + n - 1) / n
		}
	}
	return draw
}

// setStreamRate changes a stream's playback multiplier (1 = normal,
// r > 1 = fast-forward reading r groups per cycle). Only the engines
// that read parity with every group export it: Improved-bandwidth's shift
// has no fast-forward story. Dropping the rate (or holding it) always
// succeeds — it only releases draw. Raising it re-runs the admission
// argument: the worst-case cluster must absorb the stream's new
// ceil(rate/N) draw on top of every other stream's, or the change is
// refused wrapping ErrCapacity (the caller can retry after capacity
// frees up). The stream's current seat — one rate-1 slot or its old FF
// draw — is excluded from the check, since the new draw replaces it.
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
	n := e.cfg.Layout.Clusters()
	maxLoad := 0
	for _, l := range e.clusterLoad(s) {
		if l > maxLoad {
			maxLoad = l
		}
	}
	need := (rate + n - 1) / n
	if maxLoad+e.ffClusterDraw(s)+need > e.slotsPerDisk {
		return fmt.Errorf("%w: rate %d needs %d slots over the worst cluster's %d-of-%d budget",
			ErrCapacity, rate, need, maxLoad+e.ffClusterDraw(s), e.slotsPerDisk)
	}
	s.rate = rate
	return nil
}

// clusterLoad counts the normal-rate streams whose next group read lands
// on each cluster, leaving out skip — the stream whose seat a rate change
// is re-pricing (nil at admission). Fast-forward streams are excluded:
// their draw is not tied to one cluster (a rate-r stream touches up to r
// clusters per cycle) and is accounted separately by ffClusterDraw.
func (e *groupEngine) clusterLoad(skip *groupStream) []int {
	load := make([]int, e.cfg.Layout.Clusters())
	for _, s := range e.streams {
		if s == skip || s.Done || s.Terminated || s.nextGroup >= len(s.Obj.Groups) || ffRate(s) > 1 {
			continue
		}
		load[s.Obj.Groups[s.nextGroup].Cluster]++
	}
	return load
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
	if err := e.releaseGroups(s.staged, s.delivering); err != nil {
		return err
	}
	s.staged, s.delivering = nil, nil
	if err := e.releaseGroups(s.stagedExtra...); err != nil {
		return err
	}
	if err := e.releaseGroups(s.deliveringExtra...); err != nil {
		return err
	}
	s.stagedExtra, s.deliveringExtra = s.stagedExtra[:0], s.deliveringExtra[:0]
	return nil
}

// groupReadEntry is one group read of this cycle's plan: stream s reads
// group g into its primary staged slot (slot == -1) or stagedExtra[slot]
// (a fast-forward stream's extra group).
type groupReadEntry struct {
	s    *groupStream
	g    *layout.Group
	slot int
}

// groupReadPlan lays out this cycle's group reads by cluster,
// fast-forward aware: a rate-r stream contributes its next r groups
// (capped at the object's end), the first to its primary slot and the
// rest to stagedExtra in group order. nextGroup advances here, in the
// single-threaded planning pass, so the parallel read phase only writes
// each entry's private slot — two entries of one stream can land on the
// same cluster (rate > cluster count) and are then staged serially by
// that cluster's one worker, while entries on different clusters write
// disjoint slots.
func (e *groupEngine) groupReadPlan() [][]groupReadEntry {
	if e.plan == nil {
		e.plan = make([][]groupReadEntry, e.cfg.Layout.Clusters())
	}
	plan := e.plan
	for cl := range plan {
		plan[cl] = plan[cl][:0]
	}
	for _, s := range e.streams {
		if s.Done || s.Terminated || s.nextGroup >= len(s.Obj.Groups) {
			continue
		}
		rate := ffRate(s)
		if remaining := len(s.Obj.Groups) - s.nextGroup; rate > remaining {
			rate = remaining
		}
		if need := rate - 1; cap(s.stagedExtra) < need {
			s.stagedExtra = make([]*bufferedGroup, need)
		} else {
			s.stagedExtra = s.stagedExtra[:need]
			for i := range s.stagedExtra {
				s.stagedExtra[i] = nil
			}
		}
		for j := 0; j < rate; j++ {
			g := &s.Obj.Groups[s.nextGroup]
			s.nextGroup++
			plan[g.Cluster] = append(plan[g.Cluster], groupReadEntry{s: s, g: g, slot: j - 1})
		}
	}
	return plan
}

// stageGroup schedules and reads one whole parity group for later
// delivery, tolerating failed drives: one slot is taken on every drive
// of the group's cluster (failed drives keep their slot — the arm is
// still scheduled — but yield nothing), a single missing track is
// rebuilt from parity, and the group's buffers are acquired. When the
// slot budget is exceeded (over-admission under a manual SlotsPerDisk
// override) the group stays empty and hiccups at delivery.
//
// cache, when non-nil, merges same-title reads: a group already staged
// this cycle on this cluster is shared instead of re-read. Sharing is
// physical only — every sharer still takes its slots first, Acquires the
// same pooled track count, and adds the recorded read/reconstruction
// counters to its shard report — so a merged run's CycleReports are
// bit-identical to an unmerged run's. Slot exhaustion is monotone within
// a cycle, so a sharer that would have failed admission unmerged fails
// here too, before the cache is consulted.
func (c *engineCore) stageGroup(ctx *sched.CycleContext, g *layout.Group, cache map[*layout.Group]*bufferedGroup) (*bufferedGroup, error) {
	ok := true
	for _, loc := range g.Data {
		if !ctx.Slots.Take(loc.Disk) {
			ok = false
		}
	}
	if !ctx.Slots.Take(g.Parity.Disk) {
		ok = false
	}
	if !ok {
		return c.newGroup(g), nil
	}
	if bg := cache[g]; bg != nil {
		bg.shares++
		ctx.Rep.DataReads += bg.dataReads
		ctx.Rep.ParityReads += bg.parityReads
		if bg.recovered {
			ctx.Rep.Reconstructions++
		}
		if err := c.pool.Acquire(bg.pooled); err != nil {
			return nil, err
		}
		return bg, nil
	}
	staged := c.newGroup(g)
	gr := groupRead{data: staged.data}
	for i, loc := range g.Data {
		gr.data[i] = c.read(loc, &staged.dataReads)
	}
	// The parity view's only use is the recovery below; it is dropped
	// with gr.
	gr.par = c.read(g.Parity, &staged.parityReads)
	ctx.Rep.DataReads += staged.dataReads
	ctx.Rep.ParityReads += staged.parityReads
	if rec, recErr := gr.recoverGroup(c); recErr == nil && rec >= 0 {
		staged.reconstructed[rec] = true
		staged.recovered = true
		ctx.Rep.Reconstructions++
	}
	staged.pooled = len(g.Data) + 1
	if err := c.pool.Acquire(staged.pooled); err != nil {
		return nil, err
	}
	if cache != nil {
		cache[g] = staged
	}
	return staged, nil
}

// deliverDouble runs the delivery phase for double-buffered engines:
// groups read in the previous cycle go out now, hiccuping tracks that
// could not be read or rebuilt (hiccupReason labels the loss). A
// fast-forward stream delivers its primary group and then its extras in
// group order, so the tracks on the wire stay consecutive.
func (e *groupEngine) deliverDouble(ctx *sched.CycleContext, hiccupReason string) error {
	for _, s := range e.streams {
		if s.Terminated || s.Done {
			continue
		}
		bg := s.delivering
		extras := s.deliveringExtra
		s.delivering, s.staged = s.staged, nil
		s.deliveringExtra, s.stagedExtra = s.stagedExtra, extras[:0]
		if bg != nil {
			if err := e.deliverGroup(ctx, s, bg, hiccupReason); err != nil {
				return err
			}
		}
		for i, ebg := range extras {
			extras[i] = nil
			if ebg == nil {
				continue
			}
			if err := e.deliverGroup(ctx, s, ebg, hiccupReason); err != nil {
				return err
			}
		}
		if bg == nil && len(extras) == 0 {
			continue
		}
		if s.Done {
			ctx.Rep.Finished = append(ctx.Rep.Finished, s.ID)
		}
	}
	return nil
}

// deliverGroup ships one buffered group of one stream: tracks out (or
// hiccups), the sharer's pool hold released, the stream advanced. The
// caller appends Finished once after all of the stream's groups.
func (c *engineCore) deliverGroup(ctx *sched.CycleContext, s *groupStream, bg *bufferedGroup, hiccupReason string) error {
	width := len(bg.group.Data)
	base := bg.group.Index * width
	for off := 0; off < bg.group.ValidTracks; off++ {
		var ref *buffer.Ref
		if bg.refs != nil {
			ref = bg.refs[off]
		}
		ref = c.emit(ctx.Rep, &s.Stream, base+off, bg.data[off], ref, bg.reconstructed[off], hiccupReason)
		if bg.data[off] == nil {
			continue
		}
		// Ownership moved to the Ref; clear the slot so recycleGroup
		// below does not Put the buffer behind the report's back, and
		// leave the handle for the group's other sharers.
		bg.data[off] = nil
		if bg.shares > 1 {
			if bg.refs == nil {
				bg.refs = make([]*buffer.Ref, len(bg.data))
			}
			bg.refs[off] = ref
		}
	}
	// Delivered slots were handed to refs above; the last sharer recycles
	// only the leftovers (failed reads, padding past ValidTracks) and the
	// header, so bg is not touched after the release.
	s.Advance(bg.group.ValidTracks)
	return c.releaseGroups(bg)
}
