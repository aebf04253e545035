package netserve

import (
	"errors"
)

// vcrOKCtrl builds a VCR-OK control frame.
func vcrOKCtrl(verb string, id, next, rate int) []byte {
	return mustCtrlFrame(frameVcrOK, VcrOK{Verb: verb, StreamID: id, NextTrack: next, Rate: rate})
}

// vcrRejectCtrl builds a post-admission REJECT control frame.
func (ns *NetServer) vcrRejectCtrl(err error) []byte {
	return mustCtrlFrame(frameReject, ns.rejectFor(err))
}

// vcr runs one VCR verb between cycles and queues its reply. It takes
// stepMu then mu, so no cycle is stepping or staging while the verb
// moves the session's stream: every track from the old position is
// queued before the reply, and every track after it starts at the
// reply's NextTrack. A verb on a closed server, or on a session that has
// left the table (finished, shed, dropped, expelled by a drain), does
// nothing; a verb that returns nil sends no reply.
func (ns *NetServer) vcr(sess *session, verb func() []byte) {
	ns.stepMu.Lock()
	defer ns.stepMu.Unlock()
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.closed || ns.sessions.get(sess.id) != sess {
		return
	}
	if reply := verb(); reply != nil {
		ns.sendCtrl(sess, reply)
	}
	ns.gaugePaused()
}

// pause parks a playing session: its engine stream is cancelled (the
// slot returns to the admission pool) and its next owed track is
// recorded for re-admission on resume. Pausing while paused re-acks.
//
// A draining node holds no paused session: the drain expels them
// (expelPausedLocked), and PAUSE and a playing session's REWIND are
// refused before they touch the stream, so the resume paths never meet
// a drain.
func (ns *NetServer) pause(sess *session) []byte {
	if ns.draining {
		// A paused session could never resume here; keep it playing.
		return ns.vcrRejectCtrl(errors.New("draining"))
	}
	if sess.paused {
		return vcrOKCtrl("pause", 0, sess.resumeTrack, 1)
	}
	next, _, ok := ns.srv.StreamProgress(sess.id)
	if !ok {
		// The stream already ended; its BYE comes with the next cycle and
		// there is nothing to pause.
		return nil
	}
	_ = ns.srv.Cancel(sess.id)
	sess.paused = true
	sess.rate = 1
	sess.resumeTrack = next
	ns.srv.Metrics().Counter("net_vcr_pauses").Inc()
	return vcrOKCtrl("pause", 0, next, 1)
}

// resumeSessionLocked re-admits a paused session at the parity-group
// floor of track and moves its table entry to the new stream ID. Returns
// the VCR-OK to send, or the REJECT when the farm cannot take the stream
// back (the session stays paused; Retry-After rides the refusal).
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
	ns.sessions.rekey(sess, id)
	sess.paused = false
	sess.rate = rate
	sess.resumeTrack = 0
	return vcrOKCtrl(verb, id, startGroup*ns.groupWidth, rate)
}

// resumePlay resumes a paused session at its held position
// (re-admission, Retry-After on refusal) or drops a fast-forwarding
// session back to normal rate.
func (ns *NetServer) resumePlay(sess *session) []byte {
	if sess.paused {
		reply := ns.resumeSessionLocked(sess, "resume", sess.resumeTrack, 1)
		if bytesIsVcrOK(reply) {
			ns.srv.Metrics().Counter("net_vcr_resumes").Inc()
		}
		return reply
	}
	if sess.rate > 1 {
		if err := ns.srv.SetStreamRate(sess.id, 1); err == nil {
			sess.rate = 1
		}
	}
	next, _, _ := ns.srv.StreamProgress(sess.id)
	return vcrOKCtrl("resume", sess.id, next, 1)
}

// fastForward sets a session's playback multiplier. On a playing session
// it is a rate change, k′-accounted by the engine: a request the
// admission bound cannot absorb is refused with Retry-After instead of
// silently degrading every stream's continuity. On a paused session it
// resumes directly into fast-forward (re-admission plus rate grant,
// all-or-nothing).
func (ns *NetServer) fastForward(sess *session, rate int) []byte {
	var reply []byte
	if sess.paused {
		reply = ns.resumeSessionLocked(sess, "ff", sess.resumeTrack, rate)
	} else if err := ns.srv.SetStreamRate(sess.id, rate); err != nil {
		ns.srv.Metrics().Counter("net_vcr_rejects").Inc()
		reply = ns.vcrRejectCtrl(err)
	} else {
		sess.rate = rate
		next, _, _ := ns.srv.StreamProgress(sess.id)
		reply = vcrOKCtrl("ff", sess.id, next, rate)
	}
	if bytesIsVcrOK(reply) {
		ns.srv.Metrics().Counter("net_vcr_ffs").Inc()
	}
	return reply
}

// bytesIsVcrOK reports whether a prebuilt control frame is a VCR-OK.
func bytesIsVcrOK(frame []byte) bool { return len(frame) > 0 && frame[0] == frameVcrOK }

// rewind jumps a session's position backward (or forward — the wire
// carries an absolute target track, clamped to the title). A paused
// session just moves its held position; a playing one is cancelled and
// re-admitted at the target's parity-group floor, dropping to normal
// rate. If the farm cannot take the re-admission the session is left
// paused at the target with a Retry-After refusal — the position is not
// lost. A draining node refuses a playing session's rewind before
// touching its stream, as it refuses PAUSE: a session parked there could
// never resume, and the drain would wait on it forever.
func (ns *NetServer) rewind(sess *session, track int) []byte {
	track = min(max(track, 0), sess.tracks-1)
	if sess.paused {
		sess.resumeTrack = track
		sess.rate = 1
		ns.srv.Metrics().Counter("net_vcr_rewinds").Inc()
		return vcrOKCtrl("rewind", 0, track, 1)
	}
	if ns.draining {
		return ns.vcrRejectCtrl(errors.New("draining"))
	}
	if _, _, ok := ns.srv.StreamProgress(sess.id); !ok {
		return nil
	}
	_ = ns.srv.Cancel(sess.id)
	sess.paused = true
	sess.rate = 1
	sess.resumeTrack = track
	reply := ns.resumeSessionLocked(sess, "rewind", track, 1)
	if bytesIsVcrOK(reply) {
		ns.srv.Metrics().Counter("net_vcr_rewinds").Inc()
	}
	return reply
}
