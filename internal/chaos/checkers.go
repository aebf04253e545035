package chaos

import (
	"errors"
	"fmt"

	"ftmm/internal/analytic"
	"ftmm/internal/disk"
	"ftmm/internal/layout"
	"ftmm/internal/rebuild"
	"ftmm/internal/sched"
	"ftmm/internal/schemes"
	"ftmm/internal/server"
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
// had two or more members down when it was read is data parity cannot
// rebuild, and is accepted. A member is down when its drive was Failed,
// or Restoring with that member's track not yet restored.
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
	lastFailed map[int]int
	// lastBlank maps a Restoring drive's track to the last cycle whose
	// reads met it not yet restored.
	lastBlank       map[layout.Location]int
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
	c.lastBlank = make(map[layout.Location]int)
	c.dataFail = make(map[int][]int)
	c.lastUnprotected = make(map[int]int)
	c.losses = make(map[lossKey]int)
	return nil
}

// OnEvent implements EventObserver: it notes the blank tracks of a
// drive an online rebuild just replaced, which this cycle's reads meet,
// and records data-disk failures per cluster, which open Non-clustered
// loss windows.
func (c *ContinuityChecker) OnEvent(rc *RunContext, ev Event) error {
	if ev.Kind == EventRebuild {
		c.noteBlank(rc, ev.Cycle)
	}
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
	// failures this cycle's reads met. A restore may have written tracks
	// after the reads, so the tracks still blank now are the ones the
	// next cycle's reads will meet.
	farm := rc.Srv.Farm()
	for d := 0; d < farm.Size(); d++ {
		if drv, err := farm.Drive(d); err == nil && drv.State() == disk.Failed {
			c.lastFailed[d] = rc.Cycle
		}
	}
	c.noteBlank(rc, rc.Cycle+1)
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

// noteBlank stamps every not-yet-restored track of a Restoring drive
// with the cycle whose reads meet it. Restored tracks stay restored
// until the drive fails again, which lastFailed records.
func (c *ContinuityChecker) noteBlank(rc *RunContext, cycle int) {
	farm := rc.Srv.Farm()
	restoring := make(map[int]*disk.Drive)
	for d := 0; d < farm.Size(); d++ {
		if drv, err := farm.Drive(d); err == nil && drv.State() == disk.Restoring {
			restoring[d] = drv
		}
	}
	if len(restoring) == 0 {
		return
	}
	note := func(loc layout.Location) {
		if drv, ok := restoring[loc.Disk]; ok {
			if _, err := drv.View(loc.Track); errors.Is(err, disk.ErrEmptyTrack) {
				c.lastBlank[loc] = cycle
			}
		}
	}
	for _, obj := range rc.Srv.Catalog().Layout().AllObjects() {
		for gi := range obj.Groups {
			g := &obj.Groups[gi]
			for _, loc := range g.Data {
				note(loc)
			}
			note(g.Parity)
		}
	}
}

// catastrophic reports whether two or more of the parity group's
// members were down inside the window a hiccup delivered now could have
// been read in.
func (c *ContinuityChecker) catastrophic(cycle int, g *layout.Group) bool {
	wasDown := func(loc layout.Location) bool {
		if last, saw := c.lastFailed[loc.Disk]; saw && cycle-last <= c.window {
			return true
		}
		last, saw := c.lastBlank[loc]
		return saw && cycle-last <= c.window
	}
	down := 0
	if wasDown(g.Parity) {
		down++
	}
	for _, loc := range g.Data {
		if wasDown(loc) {
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
// playing legitimately holds buffers). Every restore ends: a drive left
// Restoring must have an online rebuild of it still running or
// abandoned — a restore path that skipped its tail leaves it Restoring
// with neither. And a farm restored to health holds no degraded state:
// with every drive operational, no cluster may still run degraded — a
// restore path that forgot to tell the engine leaks the cluster's buffer
// server and keeps it reconstructing tracks that sit whole on disk.
type LeakChecker struct {
	// rebuilding is the drive of the online rebuild in flight, or -1.
	rebuilding int
	// abandoned marks drives whose last online rebuild was abandoned.
	abandoned map[int]bool
}

// NewLeakChecker builds the checker.
func NewLeakChecker() *LeakChecker { return &LeakChecker{} }

// Name implements Checker.
func (l *LeakChecker) Name() string { return "leak" }

// Begin implements Checker.
func (l *LeakChecker) Begin(*RunContext) error {
	l.rebuilding, l.abandoned = -1, make(map[int]bool)
	return nil
}

// OnEvent implements EventObserver.
func (l *LeakChecker) OnEvent(_ *RunContext, ev Event) error {
	if ev.Kind == EventRebuild {
		l.rebuilding = ev.Drive
		delete(l.abandoned, ev.Drive)
	}
	return nil
}

// AfterStep implements Checker: it notes how the online rebuild in
// flight ended, once it has.
func (l *LeakChecker) AfterStep(rc *RunContext, _ *sched.CycleReport) error {
	if l.rebuilding >= 0 && rc.Srv.RebuildRemaining() == 0 {
		if rc.Srv.TakeRebuildAbort() != nil {
			l.abandoned[l.rebuilding] = true
		}
		l.rebuilding = -1
	}
	return nil
}

// End implements Checker.
func (l *LeakChecker) End(rc *RunContext) error {
	eng := rc.Srv.Engine()
	farm := rc.Srv.Farm()
	whole := true
	for d := 0; d < farm.Size(); d++ {
		drv, err := farm.Drive(d)
		if err != nil {
			return err
		}
		switch drv.State() {
		case disk.Failed:
			whole = false
		case disk.Restoring:
			if d != l.rebuilding && !l.abandoned[d] {
				return fmt.Errorf("drive %d still restoring with no rebuild of it running or abandoned", d)
			}
			whole = false
		}
	}
	if deg, ok := eng.(interface{ ClusterDegraded(int) bool }); ok && whole {
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
// Report retention.

// RetentionChecker audits the report contract: a Clone taken inside the
// validity window equals the live report, and the report's buffer gauge
// matches the engine's. Delivered bytes and per-stream track order are
// the cross-node continuity checker's to audit, on every run, single-node
// included.
type RetentionChecker struct {
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
	return nil
}

// End implements Checker.
func (r *RetentionChecker) End(*RunContext) error { return nil }
