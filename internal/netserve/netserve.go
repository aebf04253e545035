package netserve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ftmm/internal/buffer"
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
	// engine streams then run in lockstep, so the merged-read/shared-
	// frame machinery serves the whole cohort with one physical staging
	// run. 0 (the default) admits immediately. RESUME admissions never
	// batch: a failover client is already mid-title.
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
	// Together with refcounted track payloads they make the steady-state
	// write path allocation-free.
	burstPool  sync.Pool
	sharedPool sync.Pool

	// mu is the engine lock, shrunk to control-plane work: it guards
	// srv (admit/cancel/step), schedule, view, drain state, VCR session
	// state (paused/rate/resumeTrack), the batch table, and the alias
	// table. Delivery staging runs outside it, under stepMu.
	mu       sync.Mutex
	cond     *sync.Cond
	schedule []scheduledEvent
	view     *cluster.View
	// batches parks flash-crowd ADMITs per title until their window
	// closes (Options.BatchCycles); pendingWaiters counts parked
	// connections so the pacer keeps stepping toward the flush.
	batches        map[string]*titleBatch
	pendingWaiters int
	// aliases holds resumed sessions' old stream IDs, still registered in
	// sessions until the next StepCycle (see resumeSessionLocked).
	aliases map[int]*session
	// pausedSessions counts sessions parked by PAUSE (no engine stream);
	// the net_sessions_paused gauge mirrors it.
	pausedSessions int
	// hbConns tracks live coordinator heartbeat channels so Close can
	// cut them (their goroutines otherwise sit in a long read).
	hbConns  map[net.Conn]struct{}
	draining bool
	drained  chan struct{}
	closed   bool

	// stepMu serializes cycle drivers (the pacer, tests, the chaos
	// harness) and guards the staging state below. Staging runs under it
	// but outside mu, so HELLO/ADMIT only ever queue behind the engine's
	// read phase. Lock order: stepMu before mu.
	stepMu sync.Mutex
	// shared maps a run's first payload ref to its staged frames within
	// the cycle being staged: sessions whose delivered run is
	// pointer-identical (the engine merged their reads) attach the same
	// sharedFrames instead of re-staging it.
	shared map[*buffer.Ref]*sharedFrames
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

// sessionTable is the stream-ID → session map. count follows sessions,
// not entries: a session resumed from pause briefly lives under two IDs,
// the new stream's (sess.id from here on) and its pre-pause stream's,
// kept as an alias until the next StepCycle.
type sessionTable struct {
	mu    sync.RWMutex
	m     map[int]*session
	count int
}

func (t *sessionTable) get(id int) *session {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.m[id]
}

// put registers a newly admitted session under its stream ID.
func (t *sessionTable) put(sess *session) {
	t.mu.Lock()
	t.m[sess.id] = sess
	t.count++
	t.mu.Unlock()
}

// putID maps an alias stream ID to the session without counting it.
func (t *sessionTable) putID(id int, sess *session) {
	t.mu.Lock()
	t.m[id] = sess
	t.mu.Unlock()
}

// remove unregisters the session, reporting whether this call was the
// one that removed it (teardown can race from reader, writer, and cycle
// loop; exactly one caller wins and does the back-end cancel).
func (t *sessionTable) remove(sess *session) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m[sess.id] != sess {
		return false
	}
	delete(t.m, sess.id)
	t.count--
	return true
}

// removeID deletes one alias entry, count untouched, pointer-checked so a
// reused stream ID belonging to a different session is never evicted.
func (t *sessionTable) removeID(id int, sess *session) {
	t.mu.Lock()
	if t.m[id] == sess {
		delete(t.m, id)
	}
	t.mu.Unlock()
}

// forEach visits every registered session (aliased sessions may be
// visited twice). Callers must not re-enter the table from f.
func (t *sessionTable) forEach(f func(*session)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, sess := range t.m {
		f(sess)
	}
}

func (t *sessionTable) len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.count
}

// drainAll empties the table, invoking f on each removed entry's session.
func (t *sessionTable) drainAll(f func(*session)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, sess := range t.m {
		delete(t.m, id)
		f(sess)
	}
	t.count = 0
}

// sharedFrames is one delivered run's TRACK frames, staged once and
// written by every session whose delivery this cycle is the same run
// (same refcounted buffers, in order — the engine's same-title read
// merging makes these pointer-identical across sessions). iov holds each
// frame as its header, carved from the hdrs slab, then its payload; refs
// holds the run's one Retain per track. holders counts the cycle (which
// holds one reference from creation until every session is staged) plus
// the bursts that still owe a release; the last one to let go releases
// the refs and recycles the container, slab and all.
type sharedFrames struct {
	refs    []*buffer.Ref
	iov     [][]byte
	hdrs    []byte // TRACK-header slab, reused across cycles
	nbytes  int    // payload bytes in the run
	holders atomic.Int32
}

// burst is one cycle's worth of frames for one session, written with a
// single vectored write: its delivered runs' TRACK frames (normally one
// run), then its control frames, preserving track-before-control order.
type burst struct {
	runs  []*sharedFrames
	ctrls [][]byte
	bufs  net.Buffers
}

// appendTrackHeader carves the next TRACK header out of slab, returning
// the grown slab and the header slice. When append moves the slab to a
// bigger backing array, headers carved earlier stay valid — their
// frames keep the old array alive — so only the final backing is kept
// for reuse and steady-state cycles never allocate here.
func appendTrackHeader(slab []byte, track, dataLen int) ([]byte, []byte) {
	var zero [trackHeaderLen]byte
	n := len(slab)
	slab = append(slab, zero[:]...)
	h := slab[n : n+trackHeaderLen : n+trackHeaderLen]
	h[0] = frameTrack
	binary.BigEndian.PutUint32(h[1:frameHeaderLen], uint32(4+dataLen))
	binary.BigEndian.PutUint32(h[frameHeaderLen:], uint32(track))
	return slab, h
}

// session is one admitted client connection.
type session struct {
	id    int
	title string
	// tracks is the title's length, the bound every seek clamps to.
	tracks int
	conn   net.Conn

	// sendq carries one burst per cycle from the cycle loop to the
	// write loop. The cycle loop closes it on graceful finish so the
	// writer flushes the tail and hangs up.
	sendq chan *burst
	// done is closed when the session is shed or the server shuts down;
	// the writer exits after releasing whatever is still queued.
	done chan struct{}
	once sync.Once

	// sendMu orders enqueue against kill: once dead is observed no new
	// burst can enter sendq, so the writer's final drain is complete.
	sendMu   sync.Mutex
	dead     bool
	finished bool

	// cur accumulates the current cycle's frames; cycle loop only.
	cur *burst

	// VCR state, guarded by ns.mu. A paused session keeps its connection
	// and table entry but holds no engine stream — its cycle bandwidth is
	// back in the admission pool; resumeTrack is the first track owed when
	// it re-admits. rate is the playback multiplier the engine currently
	// grants this session (0/1 = normal).
	paused      bool
	rate        int
	resumeTrack int
}

// batchWaiter is one connection parked in a flash-crowd batch. The
// flusher admits it at the window boundary, fills sess/reject, and
// closes done; handleConn blocks on done.
type batchWaiter struct {
	conn    net.Conn
	arrival time.Time
	sess    *session
	reject  Reject
	done    chan struct{}
}

// titleBatch collects same-title ADMITs arriving within one batching
// window; due is the engine cycle at which the batch flushes.
type titleBatch struct {
	due     int
	waiters []*batchWaiter
}

// abort closes the connection and releases the writer immediately.
func (s *session) abort() {
	s.once.Do(func() {
		close(s.done)
		s.conn.Close()
	})
}

// kill marks the session dead (no further enqueues) and aborts it.
func (s *session) kill() {
	s.sendMu.Lock()
	s.dead = true
	s.sendMu.Unlock()
	s.abort()
}

// enqueue hands a burst to the writer without blocking. queued=false
// with overflow=true means the queue is full (shed the session);
// queued=false with overflow=false means the session is already dead or
// finished and the caller should just release the burst.
func (s *session) enqueue(b *burst) (queued, overflow bool) {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if s.dead || s.finished {
		return false, false
	}
	select {
	case s.sendq <- b:
		return true, false
	default:
		return false, true
	}
}

// closeQueue ends the graceful-finish path: after the final burst is
// enqueued the queue closes, the writer flushes and hangs up. Dead
// sessions skip the close — their writer exits via done and drains.
func (s *session) closeQueue() {
	s.sendMu.Lock()
	if !s.dead && !s.finished {
		s.finished = true
		close(s.sendq)
	} else {
		s.finished = true
	}
	s.sendMu.Unlock()
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
		aliases:    make(map[int]*session),
		shared:     make(map[*buffer.Ref]*sharedFrames),
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
	return ns.pendingWaiters
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
			ns.pendingWaiters--
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
		sess.paused = false
		ns.pausedSessions--
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

// ---- burst staging and recycling ----

func (ns *NetServer) newBurst() *burst { return ns.burstPool.Get().(*burst) }

// releaseBurst drops the burst's holds on its runs and recycles the
// container.
func (ns *NetServer) releaseBurst(b *burst) {
	for _, sf := range b.runs {
		ns.releaseShared(sf)
	}
	clear(b.runs)
	b.runs = b.runs[:0]
	clear(b.ctrls)
	b.ctrls = b.ctrls[:0]
	clear(b.bufs)
	b.bufs = b.bufs[:0]
	ns.burstPool.Put(b)
}

// releaseShared drops one holder of a run. The cycle holds a reference
// from the moment the run is created until every session is staged, and
// every burst's hold is counted before that release, so the decrement
// that reaches zero is genuinely the last one; it releases the run's refs
// and recycles the container with its header slab. Called from writer
// goroutines and the cycle driver, hence the atomic.
func (ns *NetServer) releaseShared(sf *sharedFrames) {
	if sf.holders.Add(-1) != 0 {
		return
	}
	for _, ref := range sf.refs {
		ref.Release()
	}
	clear(sf.refs)
	sf.refs = sf.refs[:0]
	clear(sf.iov)
	sf.iov = sf.iov[:0]
	sf.hdrs = sf.hdrs[:0]
	sf.nbytes = 0
	ns.sharedPool.Put(sf)
}

// runMatches verifies a delivered run is frame-for-frame the same
// physical payloads as an already-staged run. Pointer equality on the
// refs is exact: the engine's read merging hands sharers the same buffers
// in the same order, and distinct reads never alias a live ref.
func runMatches(sf *sharedFrames, run []sched.Delivery) bool {
	if len(sf.refs) != len(run) {
		return false
	}
	for i := range run {
		if sf.refs[i] != run[i].Buf {
			return false
		}
	}
	return true
}

// sharedFor finds or stages the cycle's frames for a delivered run. A
// newly created run starts with one holder — the cycle's own, released
// once every session is staged — so a writer finishing early can never
// tear the run down while a later session is still to attach.
func (ns *NetServer) sharedFor(run []sched.Delivery) (sf *sharedFrames, merged bool) {
	key := run[0].Buf
	if sf := ns.shared[key]; sf != nil {
		if runMatches(sf, run) {
			return sf, true
		}
		// A different run under the same first buffer cannot happen with
		// the engine's merging; if it ever does, drop the cycle's hold on
		// the superseded entry rather than leak it.
		ns.releaseShared(sf)
	}
	sf = ns.sharedPool.Get().(*sharedFrames)
	for i := range run {
		d := &run[i]
		var h []byte
		sf.hdrs, h = appendTrackHeader(sf.hdrs, d.Track, len(d.Data))
		d.Buf.Retain()
		sf.refs = append(sf.refs, d.Buf)
		sf.iov = append(sf.iov, h, d.Data)
		sf.nbytes += len(d.Data)
	}
	sf.holders.Store(1)
	ns.shared[key] = sf
	return sf, false
}

// stageRun stages one stream's contiguous delivered run for this cycle.
// Every delivery carries its refcounted buffer, so a run is staged once
// and attached to every session delivering the same buffers — one set of
// headers, retains, and frame bookkeeping for a whole merged title group
// instead of O(sessions) copies of it. Cycle driver only, like every
// stage* function below.
func (ns *NetServer) stageRun(sess *session, run []sched.Delivery) {
	sf, merged := ns.sharedFor(run)
	if merged {
		ns.mergedTracks.Add(int64(len(run)))
	}
	sf.holders.Add(1)
	b := ns.burstFor(sess)
	b.runs = append(b.runs, sf)
}

// burstFor returns the session's in-progress burst for this cycle,
// opening one (and remembering the session for the flush sweep) on
// first use.
func (ns *NetServer) burstFor(sess *session) *burst {
	if sess.cur == nil {
		sess.cur = ns.newBurst()
		ns.touched = append(ns.touched, sess)
	}
	return sess.cur
}

// stageCtrl adds a control frame to the session's cycle burst.
func (ns *NetServer) stageCtrl(sess *session, frame []byte) {
	b := ns.burstFor(sess)
	b.ctrls = append(b.ctrls, frame)
}

// flushStaged hands the session's staged burst to its writer. Overflow
// sheds the session; a dead session's burst is simply released. Runs
// outside the engine lock — only the shed path takes it.
func (ns *NetServer) flushStaged(sess *session) {
	b := sess.cur
	if b == nil {
		return
	}
	sess.cur = nil
	// Tally before the hand-off: the writer may release b immediately.
	// A merged run counts once per holder — each session really does send
	// it on its own socket.
	tracks, nbytes := 0, 0
	for _, sf := range b.runs {
		tracks += len(sf.refs)
		nbytes += sf.nbytes
	}
	queued, overflow := sess.enqueue(b)
	switch {
	case queued:
		ns.tracksSent.Add(int64(tracks))
		ns.bytesSent.Add(int64(nbytes))
	case overflow:
		ns.releaseBurst(b)
		ns.mu.Lock()
		ns.shedLocked(sess)
		ns.mu.Unlock()
	default:
		ns.releaseBurst(b)
	}
}

// ---- accept / per-connection handling ----

func (ns *NetServer) acceptLoop() {
	defer ns.wg.Done()
	for {
		conn, err := ns.ln.Accept()
		if err != nil {
			select {
			case <-ns.stop:
			default:
				ns.logf("netserve: accept: %v", err)
			}
			return
		}
		ns.srv.Metrics().Counter("net_conns_accepted").Inc()
		ns.wg.Add(1)
		go ns.handleConn(conn)
	}
}

// handleConn runs the HELLO/ADMIT handshake, then becomes the
// connection's reader until the client hangs up.
func (ns *NetServer) handleConn(conn net.Conn) {
	defer ns.wg.Done()
	if ns.opts.WriteBufferBytes > 0 {
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetWriteBuffer(ns.opts.WriteBufferBytes)
		}
	}
	conn.SetReadDeadline(time.Now().Add(helloTimeout))
	typ, payload, err := readFrame(conn)
	if err != nil || typ != frameHello || string(payload) != protocolMagic {
		conn.Close()
		return
	}
	if err := writeFrame(conn, frameHello, []byte(protocolMagic)); err != nil {
		conn.Close()
		return
	}
	typ, payload, err = readFrame(conn)
	if err != nil {
		conn.Close()
		return
	}
	var title string
	var startGroup int
	switch typ {
	case frameAdmit:
		title = string(payload)
	case frameResume:
		var req ResumeReq
		if err := json.Unmarshal(payload, &req); err != nil {
			conn.Close()
			return
		}
		title = req.Title
		if w := ns.groupWidth; w > 0 && req.NextTrack > 0 {
			// Resume at the enclosing parity-group boundary: a stream
			// admitted at group g is indistinguishable from one that
			// aged there, so every per-cluster invariant holds.
			startGroup = req.NextTrack / w
		}
	case frameView:
		// This connection is a coordinator heartbeat channel, not a
		// session: consume views until the coordinator hangs up (or
		// Close cuts the channel).
		ns.mu.Lock()
		closed := ns.closed
		if !closed {
			ns.hbConns[conn] = struct{}{}
		}
		ns.mu.Unlock()
		if !closed {
			ns.heartbeatConn(conn, payload)
			ns.mu.Lock()
			delete(ns.hbConns, conn)
			ns.mu.Unlock()
		}
		conn.Close()
		return
	default:
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})

	var sess *session
	var reject Reject
	if typ == frameAdmit && ns.opts.BatchCycles > 0 {
		sess, reject = ns.admitBatched(conn, title)
	} else {
		sess, reject = ns.admit(conn, title, startGroup)
	}
	if sess == nil {
		_ = writeJSONFrame(conn, frameReject, reject)
		conn.Close()
		return
	}
	ns.wg.Add(1)
	go ns.writeLoop(sess)

	// Reader: after admission the client speaks BYE and the VCR verbs;
	// any read error means it hung up. Either way the session (and its
	// back-end stream, if still live) is torn down on exit.
	for {
		typ, payload, err := readFrame(conn)
		if err != nil || typ == frameBye {
			ns.dropSession(sess, "client gone")
			return
		}
		switch typ {
		case framePause:
			ns.handlePause(sess)
		case frameResumePlay:
			ns.handleResumePlay(sess)
		case frameFF:
			rate, perr := parseFFRate(payload)
			if perr != nil {
				ns.dropSession(sess, "malformed FF")
				return
			}
			ns.handleFF(sess, rate)
		case frameRewind:
			track, perr := parseRewindTrack(payload)
			if perr != nil {
				ns.dropSession(sess, "malformed REWIND")
				return
			}
			ns.handleRewind(sess, track)
		}
	}
}

// sendCtrl enqueues one prebuilt control frame as its own burst — the
// ADMIT-OK, VCR replies and a drain's BYE ride the session's ordered send
// queue rather than racing the writer on the socket. Overflow just drops
// the frame (the session is SendQueue cycles behind; its data bursts will
// shed it).
func (ns *NetServer) sendCtrl(sess *session, frame []byte) {
	b := ns.newBurst()
	b.ctrls = append(b.ctrls, frame)
	if queued, _ := sess.enqueue(b); !queued {
		ns.releaseBurst(b)
	}
}

// vcrOKCtrl builds a VCR-OK control frame.
func vcrOKCtrl(verb string, id, next, rate int) []byte {
	return mustCtrlFrame(frameVcrOK, VcrOK{Verb: verb, StreamID: id, NextTrack: next, Rate: rate})
}

// rejectFor builds the REJECT for a refused admission or re-admission.
// Capacity frees up at cycle granularity, so a capacity refusal
// (server.ErrRejected) carries one cycle of real time, at least a
// millisecond, as its Retry-After hint.
func (ns *NetServer) rejectFor(err error) Reject {
	rej := Reject{Reason: err.Error()}
	if errors.Is(err, server.ErrRejected) {
		rej.RetryAfterMillis = max(ns.cycleTime.Milliseconds(), 1)
	}
	return rej
}

// vcrRejectCtrl builds a post-admission REJECT control frame.
func (ns *NetServer) vcrRejectCtrl(err error) []byte {
	return mustCtrlFrame(frameReject, ns.rejectFor(err))
}

// handlePause parks a playing session: its engine stream is cancelled
// (the slot returns to the admission pool) and its next owed track is
// recorded for re-admission on resume. Pausing while paused re-acks.
func (ns *NetServer) handlePause(sess *session) {
	ns.mu.Lock()
	if ns.closed {
		ns.mu.Unlock()
		return
	}
	if ns.draining {
		// A paused session could never resume here; keep it playing.
		ns.mu.Unlock()
		ns.sendCtrl(sess, ns.vcrRejectCtrl(errors.New("draining")))
		return
	}
	if sess.paused {
		next := sess.resumeTrack
		ns.mu.Unlock()
		ns.sendCtrl(sess, vcrOKCtrl("pause", 0, next, 1))
		return
	}
	next, _, ok := ns.srv.StreamProgress(sess.id)
	if !ok {
		// The stream already finished or terminated; the BYE is on its
		// way to the client and there is nothing to pause.
		ns.mu.Unlock()
		return
	}
	_ = ns.srv.Cancel(sess.id)
	sess.paused = true
	sess.rate = 1
	sess.resumeTrack = next
	ns.pausedSessions++
	ns.srv.Metrics().Counter("net_vcr_pauses").Inc()
	ns.gaugePaused()
	ns.mu.Unlock()
	ns.sendCtrl(sess, vcrOKCtrl("pause", 0, next, 1))
}

// resumeSessionLocked re-admits a paused session at the parity-group
// floor of track, rekeying its table entry to the new stream ID. The
// old ID stays registered as an alias until the next StepCycle: the
// stage call that may be running right now (it holds stepMu, not mu)
// can still be looking up pre-pause deliveries under it, and dropping
// the key early would strand those tracks. Returns the VCR-OK to send,
// or the REJECT when the farm cannot take the stream back (the session
// stays paused; Retry-After rides the refusal).
func (ns *NetServer) resumeSessionLocked(sess *session, verb string, track, rate int) []byte {
	startGroup := 0
	if ns.groupWidth > 0 {
		startGroup = track / ns.groupWidth
	}
	id, _, err := ns.srv.RequestAt(sess.title, startGroup)
	if err == nil && rate > 1 {
		if rerr := ns.srv.SetStreamRate(id, rate); rerr != nil {
			_ = ns.srv.Cancel(id)
			err = rerr
		}
	}
	if err != nil {
		ns.srv.Metrics().Counter("net_vcr_rejects").Inc()
		return ns.vcrRejectCtrl(err)
	}
	oldID := sess.id
	sess.id = id
	ns.sessions.putID(id, sess)
	ns.aliases[oldID] = sess
	if sess.paused {
		ns.pausedSessions--
	}
	sess.paused = false
	sess.rate = rate
	sess.resumeTrack = 0
	ns.gaugePaused()
	ns.cond.Broadcast() // the pacer may be idling on a paused-only farm
	return vcrOKCtrl(verb, id, startGroup*ns.groupWidth, rate)
}

// handleResumePlay resumes a paused session at its held position
// (re-admission, Retry-After on refusal) or drops a fast-forwarding
// session back to normal rate.
func (ns *NetServer) handleResumePlay(sess *session) {
	ns.mu.Lock()
	if ns.closed {
		ns.mu.Unlock()
		return
	}
	var reply []byte
	if sess.paused {
		if ns.draining {
			reply = ns.vcrRejectCtrl(errors.New("draining"))
		} else {
			reply = ns.resumeSessionLocked(sess, "resume", sess.resumeTrack, 1)
			if bytesIsVcrOK(reply) {
				ns.srv.Metrics().Counter("net_vcr_resumes").Inc()
			}
		}
	} else {
		if sess.rate > 1 {
			if err := ns.srv.SetStreamRate(sess.id, 1); err == nil {
				sess.rate = 1
			}
		}
		next, _, _ := ns.srv.StreamProgress(sess.id)
		reply = vcrOKCtrl("resume", sess.id, next, 1)
	}
	ns.mu.Unlock()
	ns.sendCtrl(sess, reply)
}

// handleFF sets a session's playback multiplier. On a playing session
// it is a rate change, k′-accounted by the engine: a request the
// admission bound cannot absorb is refused with Retry-After instead of
// silently degrading every stream's continuity. On a paused session it
// resumes directly into fast-forward (re-admission plus rate grant,
// all-or-nothing).
func (ns *NetServer) handleFF(sess *session, rate int) {
	ns.mu.Lock()
	if ns.closed {
		ns.mu.Unlock()
		return
	}
	var reply []byte
	if sess.paused {
		if ns.draining {
			reply = ns.vcrRejectCtrl(errors.New("draining"))
		} else {
			reply = ns.resumeSessionLocked(sess, "ff", sess.resumeTrack, rate)
		}
	} else if err := ns.srv.SetStreamRate(sess.id, rate); err != nil {
		ns.srv.Metrics().Counter("net_vcr_rejects").Inc()
		reply = ns.vcrRejectCtrl(err)
	} else {
		sess.rate = rate
		next, _, _ := ns.srv.StreamProgress(sess.id)
		reply = vcrOKCtrl("ff", sess.id, next, rate)
	}
	if reply != nil && bytesIsVcrOK(reply) {
		ns.srv.Metrics().Counter("net_vcr_ffs").Inc()
	}
	ns.mu.Unlock()
	ns.sendCtrl(sess, reply)
}

// bytesIsVcrOK reports whether a prebuilt control frame is a VCR-OK.
func bytesIsVcrOK(frame []byte) bool { return len(frame) > 0 && frame[0] == frameVcrOK }

// handleRewind jumps a session's position backward (or forward — the
// wire carries an absolute target track, clamped to the title). A paused
// session just moves its held position; a playing one is cancelled and
// re-admitted at the target's parity-group floor, dropping to normal
// rate. If the farm cannot take the re-admission the session is left
// paused at the target with a Retry-After refusal — the position is not
// lost.
func (ns *NetServer) handleRewind(sess *session, track int) {
	ns.mu.Lock()
	if ns.closed {
		ns.mu.Unlock()
		return
	}
	track = min(max(track, 0), sess.tracks-1)
	var reply []byte
	if sess.paused {
		sess.resumeTrack = track
		sess.rate = 1
		reply = vcrOKCtrl("rewind", 0, track, 1)
		ns.srv.Metrics().Counter("net_vcr_rewinds").Inc()
	} else {
		if _, _, ok := ns.srv.StreamProgress(sess.id); !ok {
			ns.mu.Unlock()
			return
		}
		_ = ns.srv.Cancel(sess.id)
		sess.paused = true
		sess.rate = 1
		sess.resumeTrack = track
		ns.pausedSessions++
		ns.gaugePaused()
		if ns.draining {
			reply = ns.vcrRejectCtrl(errors.New("draining"))
		} else {
			reply = ns.resumeSessionLocked(sess, "rewind", track, 1)
		}
		if bytesIsVcrOK(reply) {
			ns.srv.Metrics().Counter("net_vcr_rewinds").Inc()
		}
	}
	ns.mu.Unlock()
	ns.sendCtrl(sess, reply)
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

// admit asks the back end for a stream and registers the session. A nil
// session means rejection, with the Reject to send. startGroup > 0 is a
// RESUME admission: the stream starts at that parity-group boundary.
func (ns *NetServer) admit(conn net.Conn, title string, startGroup int) (*session, Reject) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.closed || ns.draining {
		return nil, Reject{Reason: "draining"}
	}
	return ns.admitLocked(conn, title, startGroup)
}

// admitBatched parks a fresh ADMIT in its title's flash-crowd batch and
// blocks until the window closes and the batch flushes at a cycle
// boundary (StepCycle's flushBatchesLocked admits the whole cohort
// under one lock hold, so the members' engine streams run in lockstep
// and merge their reads).
func (ns *NetServer) admitBatched(conn net.Conn, title string) (*session, Reject) {
	ns.mu.Lock()
	if ns.closed || ns.draining {
		ns.mu.Unlock()
		return nil, Reject{Reason: "draining"}
	}
	w := &batchWaiter{conn: conn, arrival: time.Now(), done: make(chan struct{})}
	tb := ns.batches[title]
	if tb == nil {
		tb = &titleBatch{due: ns.srv.Engine().Cycle() + ns.opts.BatchCycles}
		ns.batches[title] = tb
	}
	tb.waiters = append(tb.waiters, w)
	ns.pendingWaiters++
	ns.mu.Unlock()
	ns.cond.Broadcast() // the pacer may be idling; cycles must now run
	select {
	case <-w.done:
		return w.sess, w.reject
	case <-ns.stop:
		select {
		case <-w.done:
			// The flush raced shutdown and won; use its answer (a live
			// session here is torn down by Close's drainAll momentarily).
			return w.sess, w.reject
		default:
			return nil, Reject{Reason: "shutdown"}
		}
	}
}

// flushBatchesLocked admits every batch whose window has closed. Runs
// under mu immediately before the engine Step, so the cohort's streams
// are admitted at the same cycle boundary — the lockstep that lets the
// engine merge their reads and netserve share one staged run.
func (ns *NetServer) flushBatchesLocked(cycle int) {
	for title, tb := range ns.batches {
		if tb.due > cycle {
			continue
		}
		delete(ns.batches, title)
		ns.batchRuns.Inc()
		admitted := int64(0)
		for _, w := range tb.waiters {
			w.sess, w.reject = ns.admitLocked(w.conn, title, 0)
			if w.sess != nil {
				admitted++
			}
			ns.batchWaitMs.Observe(time.Since(w.arrival).Milliseconds())
			ns.pendingWaiters--
			close(w.done)
		}
		ns.batchedStarts.Add(admitted)
	}
}

// admitLocked is admit's core, shared with the batch flusher; the
// caller holds mu and has already checked closed/draining.
func (ns *NetServer) admitLocked(conn net.Conn, title string, startGroup int) (*session, Reject) {
	id, _, err := ns.srv.RequestAt(title, startGroup)
	if err != nil {
		ns.srv.Metrics().Counter("net_rejects").Inc()
		return nil, ns.rejectFor(err)
	}
	_, total, _ := ns.srv.StreamProgress(id)
	size, _ := ns.srv.Library().Size(title)
	sess := &session{
		id:     id,
		title:  title,
		tracks: total,
		conn:   conn,
		sendq:  make(chan *burst, ns.opts.SendQueue),
		done:   make(chan struct{}),
	}
	ok, err := jsonFrame(frameAdmitOK, AdmitOK{
		StreamID:   id,
		Title:      title,
		TrackSize:  ns.trackSize,
		Tracks:     total,
		Size:       int(size),
		CycleNanos: ns.cycleTime.Nanoseconds(),
		Burst:      ns.burst,
		StartTrack: startGroup * ns.groupWidth,
		NodeID:     ns.opts.NodeID,
	})
	if err != nil {
		_ = ns.srv.Cancel(id)
		return nil, Reject{Reason: "internal: " + err.Error()}
	}
	ns.sendCtrl(sess, ok)
	ns.sessions.put(sess)
	ns.srv.Metrics().Counter("net_admits").Inc()
	ns.gaugeSessions()
	ns.cond.Broadcast()
	return sess, Reject{}
}

// writeLoop ships queued bursts onto the socket, one vectored write
// per burst. It exits when the queue closes (graceful finish: flush
// then hang up) or done closes (shed/shutdown: release what remains).
func (ns *NetServer) writeLoop(sess *session) {
	defer ns.wg.Done()
	for {
		select {
		case <-sess.done:
			ns.drainSendq(sess)
			return
		case b, ok := <-sess.sendq:
			if !ok {
				sess.abort() // tail flushed; hang up
				return
			}
			if err := ns.writeBurst(sess, b); err != nil {
				reason := "write error"
				if errors.Is(err, os.ErrDeadlineExceeded) {
					// The socket stalled for WriteTimeout.
					ns.srv.Metrics().Counter("net_write_timeouts").Inc()
					reason = "write timeout"
				}
				ns.srv.Metrics().Counter("net_write_errors").Inc()
				ns.dropSession(sess, reason)
				ns.drainSendq(sess)
				return
			}
		}
	}
}

// writeBurst flattens the burst into an iovec list and writes it with
// one vectored write under a WriteTimeout deadline. Every socket write
// after admission comes through here, so the deadline is never cleared.
// The burst is recycled before returning.
func (ns *NetServer) writeBurst(sess *session, b *burst) error {
	bufs := b.bufs[:0]
	for _, sf := range b.runs {
		// Every holder reads sf.iov concurrently; the write consumes only
		// this burst's own copy of it.
		bufs = append(bufs, sf.iov...)
	}
	b.bufs = append(bufs, b.ctrls...)
	start := time.Now()
	// Only a closed conn refuses a deadline, and then the write fails too.
	_ = sess.conn.SetWriteDeadline(start.Add(ns.opts.WriteTimeout))
	err := writeVectored(sess.conn, b.bufs)
	ns.phaseFlush.Observe(time.Since(start).Microseconds())
	ns.releaseBurst(b)
	return err
}

// writeVectored writes every buffer fully. On *net.TCPConn the batch
// goes through net.Buffers (one writev syscall for a typical burst);
// any other conn (test stubs, pipes) takes a manual loop that tolerates
// short writes returning n < len(buf) with a nil error — a contract
// violation the stdlib's generic consume path would turn into silent
// stream corruption.
func writeVectored(conn net.Conn, bufs net.Buffers) error {
	if tc, ok := conn.(*net.TCPConn); ok {
		_, err := bufs.WriteTo(tc)
		return err
	}
	for _, buf := range bufs {
		for len(buf) > 0 {
			n, err := conn.Write(buf)
			buf = buf[n:]
			if err != nil {
				return err
			}
			if n == 0 && len(buf) > 0 {
				return io.ErrShortWrite
			}
		}
	}
	return nil
}

// drainSendq releases every burst stranded in the queue after a shed,
// drop, or shutdown so their retained track buffers return to the
// arena. By the time it runs the session is dead (kill/dropSession
// happen before), so no new burst can be enqueued behind the drain.
func (ns *NetServer) drainSendq(sess *session) {
	for {
		select {
		case b, ok := <-sess.sendq:
			if !ok {
				return
			}
			ns.releaseBurst(b)
		default:
			return
		}
	}
}

// dropSession removes a session whose connection died or misbehaved and
// cancels its back-end stream if it is still live. The call that removes
// the session logs why; a session a normal finish already removed stays
// quiet.
func (ns *NetServer) dropSession(sess *session, reason string) {
	if ns.sessions.remove(sess) {
		ns.mu.Lock()
		ns.logf("netserve: dropping stream %d (%s): %s", sess.id, sess.title, reason)
		_ = ns.srv.Cancel(sess.id)
		if sess.paused {
			sess.paused = false
			ns.pausedSessions--
			ns.gaugePaused()
		}
		ns.checkDrainedLocked()
		ns.mu.Unlock()
		ns.gaugeSessions()
	}
	sess.kill()
}

func (ns *NetServer) gaugeSessions() {
	ns.srv.Metrics().Gauge("net_sessions_active").Set(int64(ns.sessions.len()))
}

func (ns *NetServer) gaugePaused() {
	ns.srv.Metrics().Gauge("net_sessions_paused").Set(int64(ns.pausedSessions))
}

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
// coming for the window to close.
func (ns *NetServer) idleLocked() bool {
	return ns.sessions.len() == 0 && ns.srv.Engine().Active() == 0 && ns.pendingWaiters == 0
}

// StepCycle runs one transmission cycle on the caller's goroutine. Under
// the engine lock it applies due scheduled events and steps the engine
// (the read/XOR phase); outside it, it stages the cycle's deliveries,
// hiccups, and completions into the sessions' send queues. The report
// expires at the next Step, and staging has retained every buffer it
// ships by then; the socket flush overlaps that Step on the writers.
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
	// Retire resumed sessions' old stream-ID aliases: holding stepMu, no
	// stage call that could still look one up is running.
	for id, sess := range ns.aliases {
		ns.sessions.removeID(id, sess)
		delete(ns.aliases, id)
	}
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

// Prebuilt BYE control frames for the graceful-finish paths: their
// contents never vary, so the cycle loop ships the same bytes every
// time instead of marshaling per session.
var (
	byeFinished   = mustCtrlFrame(frameBye, Bye{Reason: "finished"})
	byeTerminated = mustCtrlFrame(frameBye, Bye{Reason: "terminated"})
	byeShutdown   = mustCtrlFrame(frameBye, Bye{Reason: "shutdown"})
)

func mustCtrlFrame(typ byte, v any) []byte {
	buf, err := jsonFrame(typ, v)
	if err != nil {
		panic(err)
	}
	return buf
}

// stageFinish ends a session gracefully: a BYE rides in the session's
// final burst, the session is unregistered, and its queue closes behind
// that burst so the writer flushes everything and hangs up.
func (ns *NetServer) stageFinish(id int, bye []byte) {
	sess := ns.sessions.get(id)
	if sess == nil {
		return
	}
	ns.stageCtrl(sess, bye)
	ns.sessions.remove(sess)
	ns.gaugeSessions()
	ns.flushStaged(sess)
	sess.closeQueue()
}

// shedLocked evicts a slow client: its queue overflowed, meaning the
// socket stalled for SendQueue cycles' worth of bursts. The stream is
// cancelled so its disk bandwidth and buffers return to the farm, and
// the connection is closed; other sessions never waited.
func (ns *NetServer) shedLocked(sess *session) {
	ns.logf("netserve: shedding stream %d (%s): send queue full", sess.id, sess.title)
	if ns.sessions.remove(sess) {
		_ = ns.srv.Cancel(sess.id)
		if sess.paused {
			sess.paused = false
			ns.pausedSessions--
			ns.gaugePaused()
		}
		ns.srv.Metrics().Counter("net_sessions_shed").Inc()
		ns.gaugeSessions()
	}
	sess.kill()
	ns.checkDrainedLocked()
}
