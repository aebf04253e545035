package chaos

import (
	"fmt"
	"sort"

	"ftmm/internal/analytic"
	"ftmm/internal/disk"
	"ftmm/internal/layout"
	"ftmm/internal/rebuild"
	"ftmm/internal/sched"
	"ftmm/internal/schemes"
	"ftmm/internal/server"
	"ftmm/internal/trace"
)

// DefaultCheckers returns a fresh instance of every standard invariant
// checker. Checkers carry per-run state, so each Run needs its own set.
func DefaultCheckers() []Checker {
	return []Checker{
		NewContinuityChecker(),
		NewParityChecker(),
		NewLeakChecker(),
		NewAdmissionChecker(),
		NewRetentionChecker(),
	}
}

// ----------------------------------------------------------------------
// Continuity: the paper's central claim per scheme.

// lossKey attributes a Non-clustered hiccup to one (stream, cluster
// failure) pair for bounding the transition's track loss.
type lossKey struct {
	stream, cluster, failCycle int
}

// ContinuityChecker enforces delivery continuity: SR, SG and IB mask
// boundary failures with zero hiccups (IB may terminate streams when
// its reserve runs out — that is degradation, not discontinuity; the
// other schemes must never terminate). Non-clustered hiccups must fall
// inside the bounded transition window after a data-disk failure on the
// track's cluster, lose at most one parity group's worth of tracks per
// stream per transition (Figures 6-7), or hit a cluster running
// unprotected (K exhausted — the paper's degradation of service, whose
// recurring loss is legitimate). Under every scheme the guarantee ends
// at the paper's catastrophe boundary: a hiccup on a parity group that
// had two or more member drives failed when it was read is data parity
// cannot rebuild, and is accepted.
type ContinuityChecker struct {
	isNC, isIB bool
	// lossCap is the per-stream per-transition hiccup bound: C-1 for the
	// simple switchover (the rest of the current group), 1 for the
	// alternate switchover (only the failed drive's unread track).
	lossCap int
	// window is how many cycles past a failure (or past leaving
	// unprotected mode) a hiccup may still surface: marking happens at
	// read time, delivery up to a group's width later, plus slack.
	window int
	// lastFailed maps a drive to the last cycle it was seen failed.
	lastFailed      map[int]int
	dataFail        map[int][]int
	lastUnprotected map[int]int
	losses          map[lossKey]int
}

// NewContinuityChecker builds the checker.
func NewContinuityChecker() *ContinuityChecker { return &ContinuityChecker{} }

// Name implements Checker.
func (c *ContinuityChecker) Name() string { return "continuity" }

// Begin implements Checker.
func (c *ContinuityChecker) Begin(rc *RunContext) error {
	scheme, policy, err := server.ParseScheme(rc.Schedule.Scheme)
	if err != nil {
		return err
	}
	c.isNC = scheme == analytic.NonClustered
	c.isIB = scheme == analytic.ImprovedBandwidth
	c.lossCap = rc.Schedule.ClusterSize - 1
	if c.isNC && policy == schemes.AlternateSwitchover {
		c.lossCap = 1
	}
	c.window = rc.Schedule.ClusterSize + 4
	c.lastFailed = make(map[int]int)
	c.dataFail = make(map[int][]int)
	c.lastUnprotected = make(map[int]int)
	c.losses = make(map[lossKey]int)
	return nil
}

// OnEvent implements EventObserver: it records data-disk failures per
// cluster, which open Non-clustered loss windows.
func (c *ContinuityChecker) OnEvent(rc *RunContext, ev Event) error {
	if !c.isNC || ev.Kind != EventFail {
		return nil
	}
	csz := rc.Schedule.ClusterSize
	if ev.Drive%csz == csz-1 {
		return nil // dedicated parity drive: no delivery impact
	}
	cl := ev.Drive / csz
	c.dataFail[cl] = append(c.dataFail[cl], ev.Cycle)
	return nil
}

// AfterStep implements Checker.
func (c *ContinuityChecker) AfterStep(rc *RunContext, rep *sched.CycleReport) error {
	if !c.isIB && len(rep.Terminated) > 0 {
		return fmt.Errorf("stream %d terminated by a scheme that must never degrade service", rep.Terminated[0])
	}
	// Events apply before the Step, so the farm still shows the drive
	// states this cycle's reads met.
	farm := rc.Srv.Farm()
	for d := 0; d < farm.Size(); d++ {
		if drv, err := farm.Drive(d); err == nil && drv.State() == disk.Failed {
			c.lastFailed[d] = rc.Cycle
		}
	}
	if c.isNC {
		// Refresh the unprotected-cluster trail before attributing hiccups.
		if unprot, ok := rc.Srv.Engine().(interface{ ClusterUnprotected(int) bool }); ok {
			for cl := 0; cl < rc.Schedule.Disks/rc.Schedule.ClusterSize; cl++ {
				if unprot.ClusterUnprotected(cl) {
					c.lastUnprotected[cl] = rc.Cycle
				}
			}
		}
	}
	width := rc.Schedule.ClusterSize - 1
	lay := rc.Srv.Catalog().Layout()
	for _, h := range rep.Hiccups {
		obj, ok := lay.Object(h.ObjectID)
		if !ok {
			return fmt.Errorf("hiccup on stream %d references unknown object %q", h.StreamID, h.ObjectID)
		}
		g := &obj.Groups[h.Track/width]
		if c.catastrophic(rc.Cycle, g) {
			continue
		}
		if !c.isNC {
			return fmt.Errorf("hiccup on stream %d track %d (%s): scheme must mask failures with zero hiccups",
				h.StreamID, h.Track, h.Reason)
		}
		cl := g.Cluster
		if last, saw := c.lastUnprotected[cl]; saw && rc.Cycle-last <= c.window {
			continue // degradation of service: recurring loss is legitimate
		}
		failCycle, open := -1, false
		for _, f := range c.dataFail[cl] {
			if f <= rc.Cycle && rc.Cycle-f <= c.window && f > failCycle {
				failCycle, open = f, true
			}
		}
		if !open {
			return fmt.Errorf("hiccup on stream %d track %d (%s) at cycle %d with no data-disk failure on cluster %d within the last %d cycles",
				h.StreamID, h.Track, h.Reason, rc.Cycle, cl, c.window)
		}
		key := lossKey{stream: h.StreamID, cluster: cl, failCycle: failCycle}
		c.losses[key]++
		if c.losses[key] > c.lossCap {
			return fmt.Errorf("stream %d lost %d tracks in the transition after cluster %d's failure at cycle %d; bound is %d",
				h.StreamID, c.losses[key], cl, failCycle, c.lossCap)
		}
	}
	return nil
}

// catastrophic reports whether two or more of the parity group's member
// drives were failed inside the window a hiccup delivered now could
// have been read in.
func (c *ContinuityChecker) catastrophic(cycle int, g *layout.Group) bool {
	wasDown := func(drive int) bool {
		last, saw := c.lastFailed[drive]
		return saw && cycle-last <= c.window
	}
	down := 0
	if wasDown(g.Parity.Disk) {
		down++
	}
	for _, loc := range g.Data {
		if wasDown(loc.Disk) {
			down++
		}
	}
	return down >= 2
}

// End implements Checker.
func (c *ContinuityChecker) End(*RunContext) error { return nil }

// ----------------------------------------------------------------------
// Parity consistency after repair and rebuild.

// ParityChecker audits the parity equation of every group a repaired
// drive touches — immediately after an instant repair or a tape
// reload, and at the cycle an online rebuild completes — and the whole
// farm once the run drains.
// A rebuild that skips a write leaves an unreadable (never-written)
// track in a fully-operational group, which the strict check flags.
type ParityChecker struct {
	pending []int
}

// NewParityChecker builds the checker.
func NewParityChecker() *ParityChecker { return &ParityChecker{} }

// Name implements Checker.
func (p *ParityChecker) Name() string { return "parity" }

// Begin implements Checker.
func (p *ParityChecker) Begin(*RunContext) error {
	p.pending = nil
	return nil
}

// OnEvent implements EventObserver.
func (p *ParityChecker) OnEvent(rc *RunContext, ev Event) error {
	switch ev.Kind {
	case EventRepair, EventTertiary:
		return rebuild.CheckDrive(rc.Srv.Farm(), rc.Srv.Catalog().Layout(), ev.Drive)
	case EventRebuild:
		p.pending = append(p.pending, ev.Drive)
	}
	return nil
}

// AfterStep implements Checker: when the in-flight online rebuild
// finishes, its drive must be parity-consistent.
func (p *ParityChecker) AfterStep(rc *RunContext, _ *sched.CycleReport) error {
	if len(p.pending) == 0 || rc.Srv.RebuildRemaining() != 0 {
		return nil
	}
	for _, drive := range p.pending {
		if err := rebuild.CheckDrive(rc.Srv.Farm(), rc.Srv.Catalog().Layout(), drive); err != nil {
			return err
		}
	}
	p.pending = nil
	return nil
}

// End implements Checker: with no rebuild left hanging, the whole farm
// must satisfy the parity equation (failed-member groups are skipped
// inside CheckAll).
func (p *ParityChecker) End(rc *RunContext) error {
	if len(p.pending) > 0 {
		return nil // rebuild still running at MaxCycles; drive is legitimately partial
	}
	return rebuild.CheckAll(rc.Srv.Farm(), rc.Srv.Catalog().Layout())
}

// ----------------------------------------------------------------------
// Buffer accounting.

// LeakChecker asserts that a run leaves nothing held. A drained server
// holds no buffers: every refcounted arena buffer was Released and the
// track-accounting pool is back to zero (only checked when the run
// actually drained — a schedule truncated by MaxCycles with streams still
// playing legitimately holds buffers). And a farm restored to health
// holds no degraded state: with every drive operational and no rebuild
// running, no cluster may still run degraded — a restore path that forgot
// to tell the engine leaks the cluster's buffer server and keeps it
// reconstructing tracks that sit whole on disk.
type LeakChecker struct{}

// NewLeakChecker builds the checker.
func NewLeakChecker() *LeakChecker { return &LeakChecker{} }

// Name implements Checker.
func (l *LeakChecker) Name() string { return "leak" }

// Begin implements Checker.
func (l *LeakChecker) Begin(*RunContext) error { return nil }

// AfterStep implements Checker.
func (l *LeakChecker) AfterStep(*RunContext, *sched.CycleReport) error { return nil }

// End implements Checker.
func (l *LeakChecker) End(rc *RunContext) error {
	eng := rc.Srv.Engine()
	farm := rc.Srv.Farm()
	if deg, ok := eng.(interface{ ClusterDegraded(int) bool }); ok &&
		len(farm.FailedDrives()) == 0 && rc.Srv.RebuildRemaining() == 0 {
		for cl := 0; cl < farm.Clusters(); cl++ {
			if deg.ClusterDegraded(cl) {
				return fmt.Errorf("cluster %d still degraded with every drive restored", cl)
			}
		}
	}
	if eng.Active() != 0 {
		return nil
	}
	if n := eng.Arena().Outstanding(); n != 0 {
		return fmt.Errorf("%d arena buffers still checked out after drain", n)
	}
	if n := eng.BufferInUse(); n != 0 {
		return fmt.Errorf("%d pool tracks still in use after drain", n)
	}
	return nil
}

// ----------------------------------------------------------------------
// Admission bound.

// AdmissionChecker asserts the engine never serves more simultaneous
// k′-weighted streams than the analytic N_p of equations (8)-(11)
// allows for the run's design point: a fast-forwarding stream at rate r
// counts r times, because it draws r tracks per cycle. The engines'
// per-cluster slot caps floor earlier than the analytic bound
// (⌊x⌋·m <= ⌊x·m⌋), so exceeding N_p is always an engine bug, never
// rounding.
type AdmissionChecker struct {
	bound int
}

// NewAdmissionChecker builds the checker.
func NewAdmissionChecker() *AdmissionChecker { return &AdmissionChecker{} }

// Name implements Checker.
func (a *AdmissionChecker) Name() string { return "admission" }

// Begin implements Checker.
func (a *AdmissionChecker) Begin(rc *RunContext) error {
	scheme, _, err := server.ParseScheme(rc.Schedule.Scheme)
	if err != nil {
		return err
	}
	cfg := analytic.Config{
		Disk:       rc.Srv.Farm().Params(),
		ObjectRate: rc.Srv.Rate(),
		D:          rc.Schedule.Disks,
		C:          rc.Schedule.ClusterSize,
		G:          rc.Schedule.DeclusterGroup,
		K:          rc.Schedule.K,
	}
	bound, err := cfg.MaxStreamsInt(scheme)
	if err != nil {
		return fmt.Errorf("computing analytic stream bound: %w", err)
	}
	a.bound = bound
	return nil
}

// AfterStep implements Checker.
func (a *AdmissionChecker) AfterStep(rc *RunContext, _ *sched.CycleReport) error {
	if active := rc.Srv.WeightedActive(); active > a.bound {
		return fmt.Errorf("%d k′-weighted active streams exceed the analytic bound N=%d", active, a.bound)
	}
	return nil
}

// End implements Checker.
func (a *AdmissionChecker) End(*RunContext) error { return nil }

// ----------------------------------------------------------------------
// Report retention and delivery integrity.

// RetentionChecker audits the report contract: a Clone taken inside the
// validity window equals the live report; the report's buffer gauge
// matches the engine's; every delivered track's bytes are exactly the
// archived content (a recycled-too-early buffer delivers plausible but
// wrong bytes — the failure mode the ownership rules exist to prevent);
// and each stream's deliveries and hiccups together advance one
// consecutive track run per cycle, with no duplicates or skips.
type RetentionChecker struct {
	nextTrack map[int]int
	perStream map[int][]int
	// rebuildActive tracks whether an online rebuild could have advanced
	// inside the Step being audited. The server advances rebuilds after
	// the engine's end-of-cycle snapshot, and completion may release
	// buffers (Non-clustered drops XOR accumulators), so on those steps
	// the live gauge may legitimately run below the report's.
	rebuildActive bool
}

// NewRetentionChecker builds the checker.
func NewRetentionChecker() *RetentionChecker { return &RetentionChecker{} }

// Name implements Checker.
func (r *RetentionChecker) Name() string { return "retention" }

// Begin implements Checker.
func (r *RetentionChecker) Begin(*RunContext) error {
	r.nextTrack = make(map[int]int)
	r.perStream = make(map[int][]int)
	r.rebuildActive = false
	return nil
}

// OnEvent implements EventObserver: a rebuild started this cycle may
// also complete inside the same Step (large budgets), so the gauge
// exemption must cover it.
func (r *RetentionChecker) OnEvent(_ *RunContext, ev Event) error {
	if ev.Kind == EventRebuild {
		r.rebuildActive = true
	}
	return nil
}

// AfterStep implements Checker.
func (r *RetentionChecker) AfterStep(rc *RunContext, rep *sched.CycleReport) error {
	if !rep.Clone().Equal(rep) {
		return fmt.Errorf("cycle %d: Clone diverges from the live report inside its validity window", rep.Cycle)
	}
	live := rc.Srv.Engine().BufferInUse()
	if rep.BufferInUse != live && !(r.rebuildActive && live < rep.BufferInUse) {
		return fmt.Errorf("cycle %d: report says %d buffers in use, engine says %d",
			rep.Cycle, rep.BufferInUse, live)
	}
	r.rebuildActive = rc.Srv.RebuildRemaining() > 0
	for id := range r.perStream {
		delete(r.perStream, id)
	}
	for _, d := range rep.Delivered {
		content, ok := rc.Content[d.ObjectID]
		if !ok {
			return fmt.Errorf("cycle %d: delivery for unknown object %q", rep.Cycle, d.ObjectID)
		}
		if err := trace.CheckTrack(content, rc.TrackSize, d.Track, d.Data); err != nil {
			return fmt.Errorf("cycle %d: stream %d: %w", rep.Cycle, d.StreamID, err)
		}
		r.perStream[d.StreamID] = append(r.perStream[d.StreamID], d.Track)
	}
	for _, h := range rep.Hiccups {
		r.perStream[h.StreamID] = append(r.perStream[h.StreamID], h.Track)
	}
	ids := make([]int, 0, len(r.perStream))
	for id := range r.perStream {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		tracks := r.perStream[id]
		sort.Ints(tracks)
		expect, seen := r.nextTrack[id]
		if !seen && rc.ResumeStart != nil {
			expect = rc.ResumeStart[id] // failed-over stream: starts at its resume boundary
		}
		for i, t := range tracks {
			if t != expect+i {
				return fmt.Errorf("cycle %d: stream %d advanced to track %d, expected %d (skipped or duplicated delivery)",
					rep.Cycle, id, t, expect+i)
			}
		}
		r.nextTrack[id] = expect + len(tracks)
	}
	return nil
}

// End implements Checker.
func (r *RetentionChecker) End(*RunContext) error { return nil }
