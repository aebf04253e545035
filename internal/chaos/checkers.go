package chaos

import (
	"bytes"
	"fmt"
	"slices"

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

// readKey names one stream's read of one parity group of its object.
type readKey struct{ stream, group int }

// ContinuityChecker enforces delivery continuity: SR, SG and IB mask
// boundary failures with zero hiccups (IB may terminate streams when
// its reserve runs out — that is degradation, not discontinuity; the
// other schemes must never terminate). An IB drive failing mid-cycle
// costs each stream at most its one in-flight track (§4's isolated
// hiccup), delivered the cycle after. Non-clustered hiccups must fall
// inside the bounded transition window after a data-disk failure on the
// track's cluster, or hit a cluster running unprotected (K exhausted —
// the paper's degradation of service, whose recurring loss is
// legitimate). Inside the window a stream loses per transition at most
// the rest of its current group (C-1 tracks) under the simple
// switchover, and at most the failed drive's one unread track under the
// alternate (Figures 6-7); reads refused for want of a slot
// (schemes.LostNoSlot, Figure 7's Y3) come on top of that cap. Under
// every scheme the guarantee ends
// at the paper's catastrophe boundary: a hiccup on a parity group whose
// read by that stream found two or more members erased is data parity
// cannot rebuild, and is accepted. The engine reports each erasure its
// reads met (sched.CycleReport.Erasures), and the checker holds every
// one to the farm's own record of the cycle (disk.Farm.Missed). The
// failures come from the server's drive log.
type ContinuityChecker struct {
	isNC, isIB bool
	// lossCap is the per-stream per-transition bound on hiccups other
	// than slot refusals: C-1 for the simple switchover (the rest of the
	// current group), 1 for the alternate switchover (only the failed
	// drive's unread track).
	lossCap int
	// window is how many cycles past a failure (or past leaving
	// unprotected mode) a Non-clustered hiccup may still surface:
	// marking happens at read time, delivery up to a group's width
	// later, plus slack.
	window int
	// erased holds, per stream's read of a group, the distinct members
	// that read found erased, each confirmed by the farm's record.
	erased          map[readKey][]layout.Location
	dataFail        map[int][]int
	lastUnprotected map[int]int
	losses          map[lossKey]int
	// midFail holds the cycles of IB mid-cycle failures; midLosses
	// counts each stream's isolated hiccups per such failure.
	midFail   []int
	midLosses map[lossKey]int
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
	c.erased = make(map[readKey][]layout.Location)
	c.dataFail = make(map[int][]int)
	c.lastUnprotected = make(map[int]int)
	c.losses = make(map[lossKey]int)
	c.midFail = nil
	c.midLosses = make(map[lossKey]int)
	return nil
}

// AfterStep implements Checker. The cycle's drive log opens the
// windows: a data-disk failure opens a Non-clustered loss window on its
// cluster (a parity drive's has no delivery impact), and an IB mid-cycle
// failure allows one isolated hiccup per stream.
func (c *ContinuityChecker) AfterStep(rc *RunContext, rep *sched.CycleReport) error {
	lay := rc.Srv.Catalog().Layout()
	for _, e := range rc.Srv.DriveLog() {
		switch {
		case e.Kind == server.FaultFailMidCycle:
			c.midFail = append(c.midFail, e.Cycle)
		case c.isNC && e.Kind == server.FaultFail && lay.Role(e.Drive) != layout.RoleParity:
			cl := e.Drive / rc.Schedule.ClusterSize
			c.dataFail[cl] = append(c.dataFail[cl], e.Cycle)
		}
	}
	if !c.isIB && len(rep.Terminated) > 0 {
		return fmt.Errorf("stream %d terminated by a scheme that must never degrade service", rep.Terminated[0])
	}
	farm := rc.Srv.Farm()
	for _, e := range rep.Erasures {
		if got := farm.Missed(e.Loc.Disk, e.Loc.Track); got != e.Err {
			return fmt.Errorf("stream %d read of group %d: engine reports drive %d track %d erased (%v), drive did not record it (%v)",
				e.StreamID, e.Group, e.Loc.Disk, e.Loc.Track, e.Err, got)
		}
		k := readKey{stream: e.StreamID, group: e.Group}
		if !slices.Contains(c.erased[k], e.Loc) {
			c.erased[k] = append(c.erased[k], e.Loc)
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
	for _, h := range rep.Hiccups {
		obj, ok := lay.Object(h.ObjectID)
		if !ok {
			return fmt.Errorf("hiccup on stream %d references unknown object %q", h.StreamID, h.ObjectID)
		}
		g := &obj.Groups[h.Track/width]
		if len(c.erased[readKey{stream: h.StreamID, group: g.Index}]) >= 2 {
			continue
		}
		if !c.isNC {
			if c.isolated(rc.Cycle, h.StreamID) {
				continue
			}
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
		if h.Reason == schemes.LostNoSlot {
			continue // a transition's slot conflict, outside the cap
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

// isolated reports whether a hiccup on stream at cycle is the one
// in-flight track an IB mid-cycle failure may cost it: the failure came
// during this cycle's reads or the last's (whose groups deliver now),
// and the stream has not had its one yet. It counts the hiccup it
// admits.
func (c *ContinuityChecker) isolated(cycle, stream int) bool {
	for _, f := range c.midFail {
		key := lossKey{stream: stream, failCycle: f}
		if cycle-f <= 1 && c.midLosses[key] == 0 {
			c.midLosses[key]++
			return true
		}
	}
	return false
}

// End implements Checker.
func (c *ContinuityChecker) End(*RunContext) error { return nil }

// ----------------------------------------------------------------------
// Parity consistency after repair and rebuild.

// ParityChecker audits the parity equation of every group a restored
// drive touches, in the cycle its restore ended (an instant repair, a
// tape reload, an online rebuild's last step), and the whole farm once
// the run drains. A rebuild that skips a write leaves an unreadable
// (never-written) track in a fully-operational group, which the strict
// check flags.
type ParityChecker struct{}

// NewParityChecker builds the checker.
func NewParityChecker() *ParityChecker { return &ParityChecker{} }

// Name implements Checker.
func (p *ParityChecker) Name() string { return "parity" }

// Begin implements Checker.
func (p *ParityChecker) Begin(*RunContext) error { return nil }

// AfterStep implements Checker: every drive whose restore ended this
// cycle must be parity-consistent.
func (p *ParityChecker) AfterStep(rc *RunContext, _ *sched.CycleReport) error {
	for _, e := range rc.Srv.DriveLog() {
		if e.Kind != server.RestoreEnded {
			continue
		}
		if err := rebuild.CheckDrive(rc.Srv.Farm(), rc.Srv.Catalog().Layout(), e.Drive); err != nil {
			return err
		}
	}
	return nil
}

// End implements Checker: with no rebuild left hanging, the whole farm
// must satisfy the parity equation (failed-member groups are skipped
// inside CheckAll).
func (p *ParityChecker) End(rc *RunContext) error {
	if rc.Srv.RebuildRemaining() > 0 {
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
// playing legitimately holds buffers). Every restore ends: an online
// rebuild that stops must log its drive's restore or its abandon, and a
// drive left Restoring must have an online rebuild of it still running
// or abandoned — a restore path that skipped its tail leaves it
// Restoring with neither. And a farm restored to health holds no
// degraded state:
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

// AfterStep implements Checker: it follows the online rebuilds through
// the drive log, and fails one the server stopped without logging how
// it ended.
func (l *LeakChecker) AfterStep(rc *RunContext, _ *sched.CycleReport) error {
	for _, e := range rc.Srv.DriveLog() {
		switch e.Kind {
		case server.FaultRebuild:
			l.rebuilding = e.Drive
			delete(l.abandoned, e.Drive)
		case server.RebuildAbandoned:
			l.rebuilding = -1
			l.abandoned[e.Drive] = true
		case server.RestoreEnded:
			if e.Drive == l.rebuilding {
				l.rebuilding = -1
			}
		}
	}
	if l.rebuilding >= 0 && rc.Srv.RebuildRemaining() == 0 {
		return fmt.Errorf("online rebuild of drive %d stopped with neither its restore nor its abandon logged", l.rebuilding)
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
// one admission rule caps each drive's reads per cycle at its slot
// budget, which floors earlier than the analytic bound
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

// RetentionChecker audits the report contract: a track the engine read
// is delivered as the platter's own slice (Buf == nil), and platters are
// replaced, never mutated, so those bytes stay what they were after the
// next Step and whatever events ran before it; and the report's buffer
// gauge matches the engine's. Delivered bytes and per-stream track order
// are the cross-node continuity checker's to audit, on every run,
// single-node included.
type RetentionChecker struct {
	// rebuildActive tracks whether an online rebuild could have advanced
	// inside the Step being audited: one ran after the last Step, or the
	// cycle's drive log starts one (large budgets may complete it inside
	// the same Step). The server advances rebuilds after the engine's
	// end-of-cycle snapshot, and completion may release buffers
	// (Non-clustered drops XOR accumulators), so on those steps the live
	// gauge may legitimately run below the report's.
	rebuildActive bool
	// views are the previous cycle's read tracks as delivered, and kept
	// their bytes at that cycle's end, one after another.
	views []sched.Delivery
	kept  []byte
}

// NewRetentionChecker builds the checker.
func NewRetentionChecker() *RetentionChecker { return &RetentionChecker{} }

// Name implements Checker.
func (r *RetentionChecker) Name() string { return "retention" }

// Begin implements Checker.
func (r *RetentionChecker) Begin(*RunContext) error {
	r.rebuildActive = false
	r.views, r.kept = r.views[:0], r.kept[:0]
	return nil
}

// AfterStep implements Checker: it holds the previous cycle's read
// tracks to their kept bytes, then keeps this cycle's.
func (r *RetentionChecker) AfterStep(rc *RunContext, rep *sched.CycleReport) error {
	if err := r.checkViews(); err != nil {
		return err
	}
	r.views, r.kept = r.views[:0], r.kept[:0]
	for _, d := range rep.Delivered {
		if d.Buf == nil {
			r.views = append(r.views, d)
			r.kept = append(r.kept, d.Data...)
		}
	}
	if slices.ContainsFunc(rc.Srv.DriveLog(), func(e server.DriveEvent) bool { return e.Kind == server.FaultRebuild }) {
		r.rebuildActive = true
	}
	live := rc.Srv.Engine().BufferInUse()
	if rep.BufferInUse != live && !(r.rebuildActive && live < rep.BufferInUse) {
		return fmt.Errorf("cycle %d: report says %d buffers in use, engine says %d",
			rep.Cycle, rep.BufferInUse, live)
	}
	r.rebuildActive = rc.Srv.RebuildRemaining() > 0
	return nil
}

// End implements Checker: the last cycle's read tracks face the events
// after it.
func (r *RetentionChecker) End(*RunContext) error { return r.checkViews() }

// checkViews fails if any kept read track's bytes changed.
func (r *RetentionChecker) checkViews() error {
	kept := r.kept
	for _, d := range r.views {
		if !bytes.Equal(d.Data, kept[:len(d.Data)]) {
			return fmt.Errorf("stream %d's read of %s track %d changed after delivery: a platter view was written into",
				d.StreamID, d.ObjectID, d.Track)
		}
		kept = kept[len(d.Data):]
	}
	return nil
}
