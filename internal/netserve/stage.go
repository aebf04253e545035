package netserve

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync/atomic"
	"time"

	"ftmm/internal/buffer"
	"ftmm/internal/sched"
)

// sharedFrames is one delivered run's TRACK frames, staged once and
// written by every session whose delivery this cycle is the same run
// (the same payload slices, in order — lockstep viewers of one title
// read the platter's one slice). iov holds each frame as its header,
// carved from the hdrs slab, then its payload; refs holds one Retain per
// made track of the run (a read track has no Ref: it is an immutable
// platter view). holders counts the cycle (which holds one reference
// from creation until every session is staged) plus the bursts that
// still owe a release; the last one to let go releases the refs and
// recycles the container, slab and all.
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
// payloads as an already-staged run. Address equality on the payloads
// (a Delivery's Data is a whole track, never empty) is exact within a
// cycle: every made track in the report is still held by the engine, so
// it is distinct from every other made track and from every view, and a
// view is immutable under replace-never-mutate.
func runMatches(sf *sharedFrames, run []sched.Delivery) bool {
	if len(sf.iov) != 2*len(run) {
		return false
	}
	for i := range run {
		if &sf.iov[2*i+1][0] != &run[i].Data[0] {
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
	key := &run[0].Data[0]
	if sf := ns.shared[key]; sf != nil {
		if runMatches(sf, run) {
			return sf, true
		}
		// A different run can start on the same track: a fast-forwarding
		// viewer's run spans several groups where a 1× viewer's is one,
		// and under a failure each sharer reconstructs its own copy of
		// the group's lost track. The newer run takes the key; drop the
		// cycle's hold on the superseded entry rather than leak it.
		ns.releaseShared(sf)
	}
	sf = ns.sharedPool.Get().(*sharedFrames)
	for i := range run {
		d := &run[i]
		var h []byte
		sf.hdrs, h = appendTrackHeader(sf.hdrs, d.Track, len(d.Data))
		if d.Buf != nil {
			d.Buf.Retain()
			sf.refs = append(sf.refs, d.Buf)
		}
		sf.iov = append(sf.iov, h, d.Data)
		sf.nbytes += len(d.Data)
	}
	sf.holders.Store(1)
	ns.shared[key] = sf
	return sf, false
}

// stageRun stages one stream's contiguous delivered run for this cycle.
// A run is staged once and attached to every session delivering the same
// payloads — one set of headers, retains, and frame bookkeeping for a
// whole lockstep title group instead of O(sessions) copies of it. Cycle
// driver only, like every stage* function below.
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
// sheds the session; a dead session's burst is simply released.
func (ns *NetServer) flushStaged(sess *session) {
	b := sess.cur
	if b == nil {
		return
	}
	sess.cur = nil
	// Tally before the hand-off: the writer may release b immediately.
	// A shared run counts once per holder — each session really does send
	// it on its own socket. Each track is two iov entries: header and
	// payload.
	tracks, nbytes := 0, 0
	for _, sf := range b.runs {
		tracks += len(sf.iov) / 2
		nbytes += sf.nbytes
	}
	queued, overflow := sess.enqueue(b)
	switch {
	case queued:
		ns.tracksSent.Add(int64(tracks))
		ns.bytesSent.Add(int64(nbytes))
	case overflow:
		ns.releaseBurst(b)
		ns.shedLocked(sess)
	default:
		ns.releaseBurst(b)
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
	sess := ns.sessions[id]
	if sess == nil {
		return
	}
	ns.stageCtrl(sess, bye)
	delete(ns.sessions, id)
	ns.gaugeSessions()
	ns.flushStaged(sess)
	sess.closeQueue()
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
// drop, or shutdown so their retained made tracks return to the
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
