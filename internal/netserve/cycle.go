package netserve

import (
	"fmt"
	"time"

	"ftmm/internal/sched"
)

// ---- the cycle loop ----

// paceLoop drives cycles on the configured clock, idling (no busy spin)
// while nothing is admitted or scheduled. Leaving idle restarts the
// clock's deadline grid, so the first cycle after an admission comes one
// full cycle later.
func (ns *NetServer) paceLoop() {
	defer ns.wg.Done()
	restart := true
	for {
		ns.mu.Lock()
		for !ns.closed && ns.idleLocked() {
			restart = true
			ns.cond.Wait()
		}
		closed := ns.closed
		ns.mu.Unlock()
		if closed {
			return
		}
		tick, ok := ns.opts.Clock.Pace(ns.cycleTime, restart, ns.stop)
		if !ok {
			return
		}
		restart = false
		ns.stepMu.Lock()
		err := ns.step(&tick)
		ns.stepMu.Unlock()
		if err != nil {
			ns.logf("netserve: step: %v", err)
			return
		}
	}
}

// cycleRingLen is how many paced cycles /cyclez remembers.
const cycleRingLen = 64

// cycleRecord is one paced cycle on /cyclez.
type cycleRecord struct {
	Cycle int `json:"cycle"`
	// LateUs is how far past its deadline the cycle started.
	LateUs  int64 `json:"late_us"`
	StepUs  int64 `json:"step_us"`
	StageUs int64 `json:"stage_us"`
	// SlackUs is the time left before the next deadline when the cycle's
	// work ended, 0 when it overran (or the clock keeps no deadlines).
	SlackUs  int64 `json:"slack_us"`
	Sessions int   `json:"sessions"`
}

// recordCycle files a paced cycle, the caller holding stepMu: on the
// /cyclez ring and, when the clock keeps deadlines, in cycle_slack_us
// and cycle_overruns. A late episode — cycles overrunning, or a release
// late enough to move the grid — logs its first overrun and its first
// grid move once each; a cycle that meets its deadline ends it.
func (ns *NetServer) recordCycle(cycle int, tick Tick, step, stage time.Duration) {
	var slack time.Duration
	if !tick.Next.IsZero() {
		slack = time.Until(tick.Next)
		if tick.Moved && !ns.loggedMove {
			ns.loggedMove = true
			ns.logf("netserve: node=%s cycle=%d: started %v late, a whole cycle or more; deadline grid moved to now", ns.opts.NodeID, cycle, tick.Late)
		}
		if slack < 0 {
			ns.cycleOverruns.Inc()
			if !ns.loggedOverrun {
				ns.loggedOverrun = true
				ns.logf("netserve: node=%s cycle=%d: work overran the next deadline by %v", ns.opts.NodeID, cycle, -slack)
			}
			slack = 0
		} else {
			ns.loggedOverrun, ns.loggedMove = false, false
		}
		ns.cycleSlack.Observe(slack.Microseconds())
	}
	ns.cycles[ns.cycleN%cycleRingLen] = cycleRecord{
		Cycle:    cycle,
		LateUs:   tick.Late.Microseconds(),
		StepUs:   step.Microseconds(),
		StageUs:  stage.Microseconds(),
		SlackUs:  slack.Microseconds(),
		Sessions: ns.sessions.len(),
	}
	ns.cycleN++
}

// recentCycles returns the /cyclez ring, oldest cycle first.
func (ns *NetServer) recentCycles() []cycleRecord {
	ns.stepMu.Lock()
	defer ns.stepMu.Unlock()
	n := min(ns.cycleN, cycleRingLen)
	out := make([]cycleRecord, 0, n)
	for i := ns.cycleN - n; i < ns.cycleN; i++ {
		out = append(out, ns.cycles[i%cycleRingLen])
	}
	return out
}

// idleLocked gates the pacer: with no sessions, no live streams, and no
// parked flash-crowd waiters there is nothing to transmit, so cycles
// stop (and with them the cycle counter scheduled fault events compare
// against — a failure scheduled for cycle 40 lands forty cycles into
// service, not into an idle farm). Parked waiters keep the pacer
// running: their batch flushes at a cycle boundary, so cycles must keep
// coming for the window to close. A batch exists only while it holds a
// waiter.
func (ns *NetServer) idleLocked() bool {
	return ns.sessions.len() == 0 && ns.srv.Engine().Active() == 0 && len(ns.batches) == 0
}

// StepCycle runs one transmission cycle on the caller's goroutine. Under
// the engine lock it applies due scheduled events and steps the engine
// (the read/XOR phase); outside it, it stages the cycle's deliveries,
// hiccups, and completions into the sessions' send queues. The report
// expires at the next Step, and staging has retained every made track
// it ships by then (a read track is an immutable platter view and needs
// no hold); the socket flush overlaps that Step on the writers.
//
// In manual mode (no Clock) this is the only way cycles happen; with a
// Clock it also serves as a test hook.
func (ns *NetServer) StepCycle() error {
	ns.stepMu.Lock()
	defer ns.stepMu.Unlock()
	return ns.step(nil)
}

// step is StepCycle's cycle, run under stepMu. The pacer passes the
// cycle's tick, and the cycle is recorded (recordCycle) once its work
// is done.
func (ns *NetServer) step(tick *Tick) error {
	ns.mu.Lock()
	if ns.closed {
		ns.mu.Unlock()
		return nil
	}
	cycle := ns.srv.Engine().Cycle()
	ns.flushBatchesLocked(cycle)
	kept := ns.schedule[:0]
	for _, ev := range ns.schedule {
		if ev.cycle > cycle {
			kept = append(kept, ev)
			continue
		}
		if err := ev.apply(); err != nil {
			ns.logf("netserve: scheduled %s at cycle %d: %v", ev.desc, cycle, err)
		}
	}
	ns.schedule = kept

	start := time.Now()
	rep, err := ns.srv.Step()
	if err != nil {
		ns.mu.Unlock()
		return err
	}
	stepDur := time.Since(start)
	abort := ns.srv.TakeRebuildAbort()
	ns.mu.Unlock()
	if abort != nil {
		ns.logf("netserve: node=%s: %v", ns.opts.NodeID, abort)
	}

	ns.phaseRead.Observe(stepDur.Microseconds())
	if ns.reportHook != nil {
		ns.reportHook(rep.Clone())
	}
	// Idle cycles (common while a cohort drains its queues) skip the
	// stage histogram so they don't dilute the phase mean with zeros.
	var stageDur time.Duration
	if len(rep.Delivered)+len(rep.Hiccups)+len(rep.Finished)+len(rep.Terminated) > 0 {
		start = time.Now()
		ns.stage(rep)
		stageDur = time.Since(start)
		ns.phaseStage.Observe(stageDur.Microseconds())
	}
	// Sessions may have finished or shed this cycle.
	ns.mu.Lock()
	ns.checkDrainedLocked()
	ns.mu.Unlock()
	if tick != nil {
		ns.recordCycle(rep.Cycle, *tick, stepDur, stageDur)
	}
	return nil
}

// stage stages one cycle's deliveries, hiccups, and completions, hands
// every touched session's burst to its writer, and drops the cycle's
// holds on its shared runs. Delivered is in stream order, so one
// stream's tracks form one contiguous run.
func (ns *NetServer) stage(rep *sched.CycleReport) {
	for i := 0; i < len(rep.Delivered); {
		id := rep.Delivered[i].StreamID
		j := i + 1
		for j < len(rep.Delivered) && rep.Delivered[j].StreamID == id {
			j++
		}
		if sess := ns.sessions.get(id); sess != nil {
			ns.stageRun(sess, rep.Delivered[i:j])
		}
		i = j
	}
	for _, h := range rep.Hiccups {
		if sess := ns.sessions.get(h.StreamID); sess != nil {
			ns.stageCtrl(sess, mustCtrlFrame(frameHiccup, HiccupNote{Track: h.Track, Reason: h.Reason}))
			ns.hiccupsSent.Inc()
		}
	}
	for _, id := range rep.Finished {
		ns.stageFinish(id, byeFinished)
	}
	for _, id := range rep.Terminated {
		ns.stageFinish(id, byeTerminated)
	}
	for _, sess := range ns.touched {
		ns.flushStaged(sess)
	}
	clear(ns.touched)
	ns.touched = ns.touched[:0]
	for key, sf := range ns.shared {
		ns.releaseShared(sf)
		delete(ns.shared, key)
	}
}

// BeginDrain stops admitting new sessions without waiting: in-flight
// streams keep running to completion (watch Drained, or use Drain to
// block). A live reconfiguration drains a node this way — the
// coordinator flips the node to draining in a view, the node stops
// taking placements, and once its last stream finishes it leaves the
// cluster with nothing dropped.
func (ns *NetServer) BeginDrain() {
	ns.mu.Lock()
	ns.beginDrainLocked()
	ns.mu.Unlock()
	ns.cond.Broadcast()
}

func (ns *NetServer) beginDrainLocked() {
	if ns.draining {
		return
	}
	ns.draining = true
	ns.srv.BeginDrain()
	// Parked flash-crowd waiters would need a fresh admission; refuse
	// them now rather than strand them until shutdown.
	for title, tb := range ns.batches {
		delete(ns.batches, title)
		for _, w := range tb.waiters {
			w.reject = Reject{Reason: "draining"}
			close(w.done)
		}
	}
	ns.expelPausedLocked()
	ns.checkDrainedLocked()
}

// expelPausedLocked ends every paused session with a BYE: a paused
// session holds no engine stream and would otherwise never finish, so a
// drain would wait on it forever. Its position is lost — a client that
// wants to continue resumes on another node (or re-admits later).
func (ns *NetServer) expelPausedLocked() {
	var expelled []*session
	ns.sessions.forEach(func(sess *session) {
		if sess.paused {
			expelled = append(expelled, sess)
		}
	})
	for _, sess := range expelled {
		if !ns.sessions.remove(sess) {
			continue
		}
		ns.sendCtrl(sess, byeShutdown)
		sess.closeQueue()
	}
	if len(expelled) > 0 {
		ns.gaugeSessions()
		ns.gaugePaused()
	}
}

// Drain stops admitting new sessions and waits until every in-flight
// stream finishes (the graceful half of shutdown; Close is the hard
// half). In manual mode the caller must keep stepping cycles for the
// drain to make progress.
func (ns *NetServer) Drain(timeout time.Duration) error {
	ns.BeginDrain()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-ns.drained:
		return nil
	case <-t.C:
		return fmt.Errorf("netserve: drain timed out after %v with %d sessions live", timeout, ns.Sessions())
	}
}

// Draining reports whether admissions have stopped (Drain/BeginDrain,
// or a view push that marked this node draining).
func (ns *NetServer) Draining() bool {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.draining
}

// Drained reports whether a drain has completed.
func (ns *NetServer) Drained() bool {
	select {
	case <-ns.drained:
		return true
	default:
		return false
	}
}

func (ns *NetServer) checkDrainedLocked() {
	if !ns.draining {
		return
	}
	if ns.sessions.len() == 0 && ns.srv.Engine().Active() == 0 {
		select {
		case <-ns.drained:
		default:
			close(ns.drained)
		}
	}
}
