package netserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"ftmm/internal/cluster"
	"ftmm/internal/metrics"
	"ftmm/internal/sched"
	"ftmm/internal/server"
)

// Default tuning knobs.
const (
	defaultSendQueue    = 64
	defaultWriteTimeout = 10 * time.Second
	helloTimeout        = 30 * time.Second
)

// Options configures a NetServer.
type Options struct {
	// Server is the cycle-engine back end. NetServer serializes all
	// access to it behind one mutex — server.Server itself is not
	// concurrency-safe.
	Server *server.Server
	// NodeID names this node in a cluster. It rides in ADMIT-OK and on
	// the HTTP status surface; empty for a standalone server.
	NodeID string
	// Addr is the TCP listen address; empty means loopback with an
	// OS-assigned port (the usual test setting).
	Addr string
	// Clock paces transmission cycles. nil selects manual mode: the
	// owner drives cycles through StepCycle, nothing runs on a timer.
	Clock Clock
	// SendQueue bounds the per-session outbound queue, counted in
	// per-cycle bursts. A session whose queue overflows is shed (its
	// stream cancelled, connection closed) so one stalled client cannot
	// delay the cycle loop or other streams.
	SendQueue int
	// WriteTimeout bounds one burst's socket write: each vectored write
	// runs under a write deadline, and a write that misses it drops the
	// session.
	WriteTimeout time.Duration
	// WriteBufferBytes shrinks the kernel send buffer on accepted
	// connections when > 0. Shedding tests use a small value so a
	// non-reading client exerts backpressure quickly.
	WriteBufferBytes int
	// EnablePprof mounts net/http/pprof profiling handlers under
	// /debug/pprof/ on Handler's mux. Opt-in: profile endpoints can
	// stall a loaded server and should not be exposed by default.
	EnablePprof bool
	// BatchCycles, when > 0, batches flash-crowd starts: a fresh ADMIT
	// parks for up to this many engine cycles so that same-title arrivals
	// inside the window admit together at one cycle boundary — their
	// engine streams then run in lockstep, reading the platter's same
	// slices, so one staged run of shared frames serves the whole cohort.
	// 0 (the default) admits immediately. RESUME admissions never batch:
	// a failover client is already mid-title.
	BatchCycles int
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// scheduledEvent is a fault-injection action bound to a cycle number.
type scheduledEvent struct {
	cycle int
	desc  string
	apply func() error
}

// NetServer accepts framed TCP sessions and paces admitted streams'
// tracks out at playback rate, one burst per transmission cycle.
type NetServer struct {
	opts       Options
	srv        *server.Server
	ln         net.Listener
	cycleTime  time.Duration
	burst      int
	trackSize  int
	groupWidth int

	// sessions has its own lock so admission, teardown from reader/writer
	// goroutines, and the HTTP surface do not serialize on the engine
	// lock.
	sessions sessionTable

	// burstPool recycles burst containers; sharedPool recycles run
	// containers (each carries its own reusable TRACK-header slab).
	// Together with payloads shipped by reference (platter views, and
	// made tracks under their Refs) they make the steady-state write path
	// allocation-free.
	burstPool  sync.Pool
	sharedPool sync.Pool

	// mu is the engine lock, shrunk to control-plane work: it guards
	// srv (admit/cancel/step), schedule, view, drain state, VCR session
	// state (paused/rate/resumeTrack) and the batch table. Delivery
	// staging runs outside it, under stepMu.
	mu       sync.Mutex
	cond     *sync.Cond
	schedule []scheduledEvent
	view     *cluster.View
	// batches parks flash-crowd ADMITs per title until their window
	// closes (Options.BatchCycles).
	batches map[string]*titleBatch
	// hbConns tracks live coordinator heartbeat channels so Close can
	// cut them (their goroutines otherwise sit in a long read).
	hbConns  map[net.Conn]struct{}
	draining bool
	drained  chan struct{}
	closed   bool

	// stepMu serializes cycle drivers (the pacer, tests, the chaos
	// harness) and VCR verbs, and guards the staging state below. Staging
	// runs under it but outside mu, so HELLO/ADMIT only ever queue behind
	// the engine's read phase. Lock order: stepMu before mu.
	stepMu sync.Mutex
	// shared maps a run's first payload address to its staged frames
	// within the cycle being staged: sessions whose delivered run is the
	// same payloads (lockstep viewers of one title read the platter's one
	// slice) attach the same sharedFrames instead of re-staging it.
	shared map[*byte]*sharedFrames
	// touched lists the sessions with a burst staged this cycle.
	touched []*session

	// Cached hot-path instruments (no registry lookup per track).
	tracksSent, bytesSent, hiccupsSent, mergedTracks *metrics.Counter
	// Flash-crowd batching instruments: admitted-through-a-batch count,
	// flush count, and per-waiter wait time (ms) whose percentiles ride
	// /metricsz.
	batchedStarts, batchRuns *metrics.Counter
	batchWaitMs              *metrics.Histogram
	// Cycle phase histograms: engine read time, staging time of a cycle
	// that staged anything, and per-burst socket write time (all µs).
	phaseRead, phaseStage, phaseFlush *metrics.Histogram
	// Deadline instruments of paced cycles: each cycle's slack (µs left
	// before the next deadline when its work ended, 0 when it overran)
	// and the count of cycles that overran.
	cycleSlack    *metrics.Histogram
	cycleOverruns *metrics.Counter

	// The pacer's record, guarded by stepMu: the /cyclez ring of the last
	// paced cycles (cycleN counts every record ever written), and whether
	// the current late episode has logged its overrun and its grid move.
	cycles                    [cycleRingLen]cycleRecord
	cycleN                    int
	loggedOverrun, loggedMove bool

	// reportHook, when non-nil, receives a Clone of every stepped
	// cycle's report before it is staged. Tests use it to compare the
	// front end report-for-report against a directly stepped server; set
	// it before the first StepCycle and leave it alone after.
	reportHook func(*sched.CycleReport)

	stop chan struct{}
	wg   sync.WaitGroup
}

// New starts listening and, when a Clock is configured, begins pacing.
func New(opts Options) (*NetServer, error) {
	if opts.Server == nil {
		return nil, errors.New("netserve: Options.Server is required")
	}
	if opts.SendQueue <= 0 {
		opts.SendQueue = defaultSendQueue
	}
	if opts.WriteTimeout <= 0 {
		opts.WriteTimeout = defaultWriteTimeout
	}
	addr := opts.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netserve: listen: %w", err)
	}
	srv := opts.Server
	cycle := srv.CycleTime()
	trackSize := int(srv.Farm().Params().TrackSize)
	burstN := int(math.Round(cycle.Seconds() * srv.Rate().BytesPerSecond() / float64(trackSize)))
	if burstN < 1 {
		burstN = 1
	}
	ns := &NetServer{
		opts:       opts,
		srv:        srv,
		ln:         ln,
		cycleTime:  cycle,
		burst:      burstN,
		trackSize:  trackSize,
		groupWidth: srv.GroupWidth(),
		sessions:   sessionTable{m: make(map[int]*session)},
		hbConns:    make(map[net.Conn]struct{}),
		batches:    make(map[string]*titleBatch),
		shared:     make(map[*byte]*sharedFrames),
		drained:    make(chan struct{}),
		stop:       make(chan struct{}),
	}
	ns.burstPool.New = func() any { return new(burst) }
	ns.sharedPool.New = func() any { return new(sharedFrames) }
	ns.cond = sync.NewCond(&ns.mu)
	m := srv.Metrics()
	ns.tracksSent = m.Counter("net_tracks_sent")
	ns.bytesSent = m.Counter("net_bytes_sent")
	ns.hiccupsSent = m.Counter("net_hiccups_sent")
	ns.mergedTracks = m.Counter("net_merged_tracks")
	ns.batchedStarts = m.Counter("net_batched_starts")
	ns.batchRuns = m.Counter("net_batch_runs")
	ns.batchWaitMs = m.Histogram("net_batch_wait_ms", 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000)
	usBounds := []int64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000}
	ns.phaseRead = m.Histogram("pipe_read_us", usBounds...)
	ns.phaseStage = m.Histogram("pipe_stage_us", usBounds...)
	ns.phaseFlush = m.Histogram("pipe_flush_us", usBounds...)
	// Slack runs up to a whole cycle, which is 0.8–1.1 s at real time.
	ns.cycleSlack = m.Histogram("cycle_slack_us", append(usBounds, 100000, 250000, 500000, 1000000, 2500000)...)
	ns.cycleOverruns = m.Counter("cycle_overruns")
	ns.wg.Add(1)
	go ns.acceptLoop()
	if opts.Clock != nil {
		ns.wg.Add(1)
		go ns.paceLoop()
	}
	return ns, nil
}

// Addr returns the bound listen address.
func (ns *NetServer) Addr() net.Addr { return ns.ln.Addr() }

// CycleTime returns the transmission cycle length.
func (ns *NetServer) CycleTime() time.Duration { return ns.cycleTime }

// Burst returns k′: tracks shipped to each stream per transmission
// cycle.
func (ns *NetServer) Burst() int { return ns.burst }

// Sessions returns the number of connected, admitted sessions.
func (ns *NetServer) Sessions() int { return ns.sessions.len() }

// PendingStarts reports connections parked in flash-crowd admission
// batches, waiting for their title's window to flush at a cycle
// boundary (Options.BatchCycles).
func (ns *NetServer) PendingStarts() int {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	n := 0
	for _, tb := range ns.batches {
		n += len(tb.waiters)
	}
	return n
}

// NodeID returns this node's cluster identity (empty standalone).
func (ns *NetServer) NodeID() string { return ns.opts.NodeID }

// SetView installs a membership view. Stale views (number at or below
// the held one) are ignored, so out-of-order heartbeats cannot roll the
// node backward; the freshest view wins regardless of arrival order. If
// the new view marks this node draining, the node stops admitting.
func (ns *NetServer) SetView(v *cluster.View) {
	if v == nil {
		return
	}
	ns.mu.Lock()
	if ns.view != nil && v.Number <= ns.view.Number {
		ns.mu.Unlock()
		return
	}
	ns.view = v.Clone()
	m, ok := ns.view.Member(ns.opts.NodeID)
	startDrain := ok && m.State == cluster.StateDraining && !ns.draining
	if startDrain {
		ns.beginDrainLocked()
	}
	ns.mu.Unlock()
	if startDrain {
		ns.cond.Broadcast()
	}
}

// View returns a copy of the node's current membership view, or nil if
// none has been installed (standalone operation).
func (ns *NetServer) View() *cluster.View {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.view == nil {
		return nil
	}
	return ns.view.Clone()
}

// heartbeatConn serves a coordinator's persistent VIEW channel: install
// each pushed view, answer with this node's load. The first frame's
// payload arrives already read by handleConn.
func (ns *NetServer) heartbeatConn(conn net.Conn, payload []byte) {
	for {
		var v cluster.View
		if err := json.Unmarshal(payload, &v); err != nil {
			return
		}
		ns.SetView(&v)
		ack := ViewAck{NodeID: ns.opts.NodeID, Sessions: ns.Sessions()}
		ns.mu.Lock()
		ack.Active = ns.srv.Engine().Active()
		if ns.view != nil {
			ack.View = ns.view.Number
		}
		ns.mu.Unlock()
		if err := writeJSONFrame(conn, frameView, ack); err != nil {
			return
		}
		conn.SetReadDeadline(time.Now().Add(helloTimeout))
		typ, p, err := readFrame(conn)
		if err != nil || typ != frameView {
			return
		}
		payload = p
	}
}

// StreamProgress reports the back end's delivery progress for a stream.
func (ns *NetServer) StreamProgress(id int) (next, total int, ok bool) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.srv.StreamProgress(id)
}

// FailDisk injects a drive failure at the next cycle boundary.
func (ns *NetServer) FailDisk(id int) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.srv.FailDisk(id)
}

// RepairDisk replaces a failed drive (offline rebuild).
func (ns *NetServer) RepairDisk(id int) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.srv.RepairDisk(id)
}

// StartOnlineRebuild begins a budgeted online rebuild of a drive.
func (ns *NetServer) StartOnlineRebuild(id, readBudget int) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.srv.StartOnlineRebuild(id, readBudget)
}

// ScheduleFailure arranges for drive id to fail at the start of the
// given engine cycle.
func (ns *NetServer) ScheduleFailure(cycle, id int) {
	ns.scheduleEvent(cycle, fmt.Sprintf("fail disk %d", id), func() error { return ns.srv.FailDisk(id) })
}

// ScheduleRepair arranges an offline repair of drive id at the given
// cycle.
func (ns *NetServer) ScheduleRepair(cycle, id int) {
	ns.scheduleEvent(cycle, fmt.Sprintf("repair disk %d", id), func() error { return ns.srv.RepairDisk(id) })
}

// ScheduleRebuild arranges an online rebuild of drive id at the given
// cycle.
func (ns *NetServer) ScheduleRebuild(cycle, id, readBudget int) {
	ns.scheduleEvent(cycle, fmt.Sprintf("rebuild disk %d", id), func() error { return ns.srv.StartOnlineRebuild(id, readBudget) })
}

func (ns *NetServer) scheduleEvent(cycle int, desc string, apply func() error) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.schedule = append(ns.schedule, scheduledEvent{cycle: cycle, desc: desc, apply: apply})
	ns.cond.Broadcast()
}

// Close tears everything down: the listener, the pacer, every live
// connection. Pending frames are not flushed — call Drain first for a
// graceful exit.
func (ns *NetServer) Close() error {
	ns.mu.Lock()
	if ns.closed {
		ns.mu.Unlock()
		return nil
	}
	ns.closed = true
	close(ns.stop)
	err := ns.ln.Close()
	for conn := range ns.hbConns {
		conn.Close()
		delete(ns.hbConns, conn)
	}
	ns.mu.Unlock()
	ns.sessions.drainAll(func(sess *session) { sess.kill() })
	ns.gaugeSessions()
	ns.cond.Broadcast()
	ns.wg.Wait()
	return err
}

func (ns *NetServer) logf(format string, args ...any) {
	if ns.opts.Logf != nil {
		ns.opts.Logf(format, args...)
	}
}
