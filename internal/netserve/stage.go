package netserve

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"time"

	"ftmm/internal/buffer"
	"ftmm/internal/sched"
)

// burst is one cycle's worth of frames for one session, written with a
// single vectored write and owned by one goroutine at a time: the cycle
// stages it, the session's writer writes and recycles it. bufs is the
// iovec: each delivered track as its TRACK header, carved from the hdrs
// slab, then its payload, and after the tracks the control frames
// (staging stages a cycle's runs before its control frames, which keeps
// each session's tracks ahead of its HICCUP and BYE). refs holds one
// Retain per made track in bufs (a read track has no Ref: it is an
// immutable platter view).
type burst struct {
	refs   []*buffer.Ref
	hdrs   []byte // TRACK-header slab, reused across cycles
	bufs   net.Buffers
	tracks int // TRACK frames in bufs
	nbytes int // their payload bytes
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

// releaseBurst releases the burst's refs and recycles the container,
// slab and iovec with it. Called by the burst's one owner: the writer
// after its write or on teardown, or the cycle for a burst no queue
// took.
func (ns *NetServer) releaseBurst(b *burst) {
	for _, ref := range b.refs {
		ref.Release()
	}
	clear(b.refs)
	b.refs = b.refs[:0]
	b.hdrs = b.hdrs[:0]
	clear(b.bufs)
	b.bufs = b.bufs[:0]
	b.tracks, b.nbytes = 0, 0
	ns.burstPool.Put(b)
}

// stageRun stages one stream's contiguous delivered run for this cycle
// into its session's burst: a TRACK header and the payload per track,
// and a Retain per made track. Cycle driver only, like every stage*
// function below.
func (ns *NetServer) stageRun(sess *session, run []sched.Delivery) {
	b := ns.burstFor(sess)
	for i := range run {
		d := &run[i]
		var h []byte
		b.hdrs, h = appendTrackHeader(b.hdrs, d.Track, len(d.Data))
		if d.Buf != nil {
			d.Buf.Retain()
			b.refs = append(b.refs, d.Buf)
		}
		b.bufs = append(b.bufs, h, d.Data)
		b.nbytes += len(d.Data)
	}
	b.tracks += len(run)
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
	b.bufs = append(b.bufs, frame)
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
	tracks, nbytes := b.tracks, b.nbytes
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
				ns.hangUp(sess) // tail flushed
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

// finishLinger bounds how long a finished session's connection stays
// half-closed after its final burst, waiting for the client to hang up.
const finishLinger = 5 * time.Second

// hangUp ends a finished session's connection once its final burst is
// written. It half-closes first, so the client reads its tail and BYE up
// to the FIN while the session's reader keeps consuming what the client
// sent late (a VCR verb that crossed the BYE). The full close waits for
// that reader to see the client hang up (it drops the session, which
// closes done), for shutdown, or for finishLinger. Closing at once would
// leave such a frame unread or arriving at a closed socket, and the
// kernel's reset would cost the client the tail it had not yet read.
func (ns *NetServer) hangUp(sess *session) {
	if tc, ok := sess.conn.(*net.TCPConn); ok && tc.CloseWrite() == nil {
		t := time.NewTimer(finishLinger)
		select {
		case <-sess.done:
		case <-ns.stop:
		case <-t.C:
		}
		t.Stop()
	}
	sess.abort()
}

// writeBurst writes the burst's iovec with one vectored write under a
// WriteTimeout deadline. Every socket write after admission comes
// through here, so the deadline is never cleared. The burst is recycled
// before returning.
func (ns *NetServer) writeBurst(sess *session, b *burst) error {
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
