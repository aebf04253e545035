package netserve

import (
	"encoding/json"
	"errors"
	"net"
	"sync"
	"time"

	"ftmm/internal/server"
)

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

	// dead and finished are guarded by ns.mu, as every enqueue is: once
	// kill sets dead no new burst can enter sendq, so the writer's final
	// drain is complete.
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

// abort closes the connection and releases the writer immediately.
func (s *session) abort() {
	s.once.Do(func() {
		close(s.done)
		s.conn.Close()
	})
}

// kill marks the session dead (no further enqueues) and aborts it. The
// caller holds ns.mu.
func (s *session) kill() {
	s.dead = true
	s.abort()
}

// enqueue hands a burst to the writer without blocking. queued=false
// with overflow=true means the queue is full (shed the session);
// queued=false with overflow=false means the session is already dead or
// finished and the caller should just release the burst. The caller
// holds ns.mu.
func (s *session) enqueue(b *burst) (queued, overflow bool) {
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
// sessions skip the close — their writer exits via done and drains. The
// caller holds ns.mu.
func (s *session) closeQueue() {
	if !s.dead && !s.finished {
		close(s.sendq)
	}
	s.finished = true
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

	sess, reject := ns.admit(conn, title, startGroup)
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
			ns.vcr(sess, func() []byte { return ns.pause(sess) })
		case frameResumePlay:
			ns.vcr(sess, func() []byte { return ns.resumePlay(sess) })
		case frameFF:
			rate, perr := parseFFRate(payload)
			if perr != nil {
				ns.dropSession(sess, "malformed FF")
				return
			}
			ns.vcr(sess, func() []byte { return ns.fastForward(sess, rate) })
		case frameRewind:
			track, perr := parseRewindTrack(payload)
			if perr != nil {
				ns.dropSession(sess, "malformed REWIND")
				return
			}
			ns.vcr(sess, func() []byte { return ns.rewind(sess, track) })
		}
	}
}

// sendCtrl enqueues one prebuilt control frame as its own burst — the
// ADMIT-OK, VCR replies and a drain's BYE ride the session's ordered send
// queue rather than racing the writer on the socket. Overflow just drops
// the frame (the session is SendQueue cycles behind; its data bursts will
// shed it). The caller holds mu.
func (ns *NetServer) sendCtrl(sess *session, frame []byte) {
	b := ns.newBurst()
	b.bufs = append(b.bufs, frame)
	if queued, _ := sess.enqueue(b); !queued {
		ns.releaseBurst(b)
	}
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

// admit asks the back end for a stream and registers the session. A nil
// session means rejection, with the Reject to send. startGroup > 0 is a
// RESUME admission: the stream starts at that parity-group boundary.
func (ns *NetServer) admit(conn net.Conn, title string, startGroup int) (*session, Reject) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.closed || ns.draining {
		return nil, Reject{Reason: "draining"}
	}
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
	ns.sessions[id] = sess
	ns.srv.Metrics().Counter("net_admits").Inc()
	ns.gaugeSessions()
	ns.cond.Broadcast()
	return sess, Reject{}
}

// dropSession removes a session whose connection died or misbehaved and
// cancels its back-end stream if it is still live. The call that removes
// the session logs why; a session a normal finish already removed stays
// quiet.
func (ns *NetServer) dropSession(sess *session, reason string) {
	ns.mu.Lock()
	if ns.teardownLocked(sess) {
		ns.logf("netserve: dropping stream %d (%s): %s", sess.id, sess.title, reason)
	}
	ns.mu.Unlock()
}

// shedLocked evicts a slow client: its queue overflowed, meaning the
// socket stalled for SendQueue cycles' worth of bursts. The stream is
// cancelled so its disk bandwidth and buffers return to the farm, and
// the connection is closed; other sessions never waited.
func (ns *NetServer) shedLocked(sess *session) {
	ns.logf("netserve: shedding stream %d (%s): send queue full", sess.id, sess.title)
	if ns.teardownLocked(sess) {
		ns.srv.Metrics().Counter("net_sessions_shed").Inc()
	}
}

// teardownLocked is the one teardown under mu: remove the session,
// cancel its back-end stream, refresh the gauges, kill the connection and
// re-check drain completion. Teardown can race from reader, writer and
// cycle loop; it reports whether this call was the one that removed the
// session (and so cancelled its stream).
func (ns *NetServer) teardownLocked(sess *session) bool {
	removed := ns.sessions[sess.id] == sess
	if removed {
		delete(ns.sessions, sess.id)
		_ = ns.srv.Cancel(sess.id)
		ns.gaugeSessions()
		if sess.paused {
			ns.gaugePaused()
		}
	}
	sess.kill()
	ns.checkDrainedLocked()
	return removed
}

// gaugeSessions sets net_sessions_active to the table's length. The
// caller holds mu, so the gauge and the table move together.
func (ns *NetServer) gaugeSessions() {
	ns.srv.Metrics().Gauge("net_sessions_active").Set(int64(len(ns.sessions)))
}

// gaugePaused sets net_sessions_paused to the registered sessions parked
// by PAUSE. The caller holds mu, which guards sess.paused.
func (ns *NetServer) gaugePaused() {
	n := 0
	for _, sess := range ns.sessions {
		if sess.paused {
			n++
		}
	}
	ns.srv.Metrics().Gauge("net_sessions_paused").Set(int64(n))
}
