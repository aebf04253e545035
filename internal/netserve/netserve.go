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
	// access to it behind its one lock — server.Server itself, and the
	// farm and buffer pool it owns, are not concurrency-safe.
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
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// faultAt is a drive fault bound to the engine cycle it applies at.
type faultAt struct {
	cycle int
	fault server.Fault
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

	// burstPool recycles burst containers, each with its own TRACK-header
	// slab and iovec. Together with payloads shipped by reference
	// (platter views, and made tracks under their Refs) it makes the
	// steady-state write path allocation-free.
	burstPool sync.Pool

	// mu is the node's one lock. A cycle holds it from the due faults
	// through Step, staging and the /cyclez record; admission,
	// teardown, the VCR verbs and the HTTP surface take it between
	// cycles. It guards srv, the fields from here to the pacer's record,
	// and each session's VCR state, staged burst and queue state.
	mu     sync.Mutex
	cond   *sync.Cond
	faults []faultAt
	view   *cluster.View
	// sessions maps stream ID to session, one entry per admitted
	// session; a resumed session's entry moves to its new stream's ID.
	sessions map[int]*session
	// hbConns tracks live coordinator heartbeat channels so Close can
	// cut them (their goroutines otherwise sit in a long read).
	hbConns  map[net.Conn]struct{}
	draining bool
	drained  chan struct{}
	closed   bool

	// touched lists the sessions with a burst staged this cycle.
	touched []*session

	// Cached hot-path instruments (no registry lookup per track).
	tracksSent, bytesSent, hiccupsSent *metrics.Counter
	// Cycle phase histograms: engine read time, staging time of a cycle
	// that staged anything, and per-burst socket write time (all µs).
	phaseRead, phaseStage, phaseFlush *metrics.Histogram
	// Deadline instruments of paced cycles: each cycle's slack (µs left
	// before the next deadline when its work ended, 0 when it overran)
	// and the count of cycles that overran.
	cycleSlack    *metrics.Histogram
	cycleOverruns *metrics.Counter

	// The pacer's record: the /cyclez ring of the last paced cycles
	// (cycleN counts every record ever written), and whether the current
	// late episode has logged its overrun and its grid move.
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
		sessions:   make(map[int]*session),
		hbConns:    make(map[net.Conn]struct{}),
		drained:    make(chan struct{}),
		stop:       make(chan struct{}),
	}
	// A new burst comes sized for a rate-1 cycle: k′ TRACK frames of two
	// iovec entries each, and one control frame.
	ns.burstPool.New = func() any {
		return &burst{hdrs: make([]byte, 0, burstN*trackHeaderLen), bufs: make(net.Buffers, 0, 2*burstN+1)}
	}
	ns.cond = sync.NewCond(&ns.mu)
	m := srv.Metrics()
	ns.tracksSent = m.Counter("net_tracks_sent")
	ns.bytesSent = m.Counter("net_bytes_sent")
	ns.hiccupsSent = m.Counter("net_hiccups_sent")
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
func (ns *NetServer) Sessions() int {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return len(ns.sessions)
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
		ack := ViewAck{NodeID: ns.opts.NodeID}
		ns.mu.Lock()
		ack.Sessions = len(ns.sessions)
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

// Schedule arranges for the drive fault to be applied (server.Server.
// Apply, best-effort) at the start of the given engine cycle, or of the
// next cycle if that one has passed.
func (ns *NetServer) Schedule(cycle int, f server.Fault) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.faults = append(ns.faults, faultAt{cycle: cycle, fault: f})
	ns.cond.Broadcast()
}

// ScheduleFailure schedules drive id to fail at the given cycle.
func (ns *NetServer) ScheduleFailure(cycle, id int) {
	ns.Schedule(cycle, server.Fault{Kind: server.FaultFail, Drive: id})
}

// ScheduleRebuild schedules an online rebuild of drive id at the given
// cycle.
func (ns *NetServer) ScheduleRebuild(cycle, id, readBudget int) {
	ns.Schedule(cycle, server.Fault{Kind: server.FaultRebuild, Drive: id, Budget: readBudget})
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
	for id, sess := range ns.sessions {
		delete(ns.sessions, id)
		sess.kill()
	}
	ns.gaugeSessions()
	ns.mu.Unlock()
	ns.cond.Broadcast()
	ns.wg.Wait()
	return err
}

func (ns *NetServer) logf(format string, args ...any) {
	if ns.opts.Logf != nil {
		ns.opts.Logf(format, args...)
	}
}
