// Package netserve is the network delivery layer over internal/server:
// a stdlib-only TCP front-end that admits client sessions over a small
// framed protocol and paces each admitted stream's tracks out at its
// playback rate, plus an HTTP surface for admission probes, status, and
// metrics.
//
// The session protocol is five frame types over one TCP connection:
//
//	client                          server
//	HELLO "FTMM/1"     ──────────▶
//	                   ◀──────────  HELLO "FTMM/1"
//	ADMIT <title>      ──────────▶
//	                   ◀──────────  ADMIT-OK {stream, tracks, burst, …}
//	                                (or REJECT {reason, retry_after_ms})
//	                   ◀──────────  TRACK <index><bytes>   ┐ one burst per
//	                   ◀──────────  TRACK <index><bytes>   ┘ transmission cycle
//	                   ◀──────────  HICCUP {track, reason}   (lost track)
//	                   ◀──────────  BYE {reason}
//	BYE                ──────────▶  (client hang-up at any point)
//
// Every frame is a 1-byte type, a 4-byte big-endian payload length, and
// the payload. Control payloads are JSON; TRACK payloads are a 4-byte
// big-endian track index followed by the raw track bytes. The burst
// field of ADMIT-OK is the scheme's k′: whole-group schemes (Streaming
// RAID, Improved-bandwidth) ship C-1 tracks per read cycle, per-track
// schemes (Staggered-group, Non-clustered) one track per transmission
// cycle.
//
// A NetServer is its server.Server's owner, and has one lock. A cycle
// holds it from start to end: the due admission batches and faults, the
// engine's Step, the drive log, staging every session's burst and the
// /cyclez record. Admission, teardown, the VCR verbs and the HTTP
// surface take it between cycles, so the disk farm and the buffer
// accounting, which take no lock of their own, and the session table
// and send queues see one goroutine at a time. What leaves the lock is
// bytes: a cycle's platter views and made tracks reach the per-session
// writers through their send queues, and the writers give them back
// through the shared runs' atomic holder counts and the arena, which
// locks; a writer takes the lock only to drop its session.
package netserve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// protocolMagic identifies protocol version 1 in the HELLO exchange.
const protocolMagic = "FTMM/1"

// Frame types.
const (
	frameHello   byte = 0x01
	frameAdmit   byte = 0x02
	frameAdmitOK byte = 0x03
	frameReject  byte = 0x04
	frameTrack   byte = 0x05
	frameHiccup  byte = 0x06
	frameBye     byte = 0x07
	// Cluster verbs. REDIRECT answers ADMIT/RESUME at a coordinator
	// (go ask this node); RESUME is ADMIT from the middle of a title
	// (session failover after a node death); VIEW carries membership —
	// coordinator → node it pushes the current cluster view, node →
	// coordinator it acknowledges with the node's load (the heartbeat).
	frameRedirect byte = 0x08
	frameResume   byte = 0x09
	frameView     byte = 0x0A
	// VCR verbs. PAUSE parks a playing session (position held, cycle
	// bandwidth released); RESUME_PLAY re-admits it at the held position
	// (or drops an FF session back to rate 1); FF carries a 4-byte
	// big-endian rate multiplier; REWIND carries a 4-byte big-endian
	// target track. The server answers each with VCR-OK or, when
	// re-admission or the rate change would exceed the admission bound,
	// REJECT with Retry-After.
	framePause      byte = 0x0B
	frameResumePlay byte = 0x0C
	frameFF         byte = 0x0D
	frameRewind     byte = 0x0E
	frameVcrOK      byte = 0x0F
)

const (
	frameHeaderLen = 5
	// trackHeaderLen covers a TRACK frame's fixed prefix: the frame
	// header plus the 4-byte track index. The server carves headers of
	// this size from a reusable slab and ships the payload with a
	// vectored write, so a TRACK frame never exists as one contiguous
	// buffer on the send path.
	trackHeaderLen = frameHeaderLen + 4
	// maxFramePayload bounds a payload: a track plus its index fits with
	// room to spare; anything larger is a protocol violation, not a read.
	maxFramePayload = 16 << 20
)

// AdmitOK is the server's answer to a successful ADMIT.
type AdmitOK struct {
	StreamID  int    `json:"stream_id"`
	Title     string `json:"title"`
	TrackSize int    `json:"track_size"`
	// Tracks is the total number of tracks the stream will carry; Size
	// is the object's exact byte length (the last track may be shorter,
	// padded with zeros on the wire). Clients verifying synthetic
	// content regenerate it from Size.
	Tracks int `json:"tracks"`
	Size   int `json:"size"`
	// CycleNanos is the transmission cycle length; Burst tracks arrive
	// per cycle (k′-aware pacing: C-1 for SR/IB, 1 for SG/NC).
	CycleNanos int64 `json:"cycle_ns"`
	Burst      int   `json:"burst"`
	// StartTrack is the first track this session will carry — 0 for a
	// fresh admission, the resume boundary for a RESUME admission (the
	// parity-group floor of the requested track, so it may be at or
	// before the track the client asked for).
	StartTrack int `json:"start_track,omitempty"`
	// NodeID names the serving node in a cluster; empty standalone.
	NodeID string `json:"node_id,omitempty"`
}

// Redirect is a coordinator's answer to ADMIT or RESUME: the session
// belongs on another node. The client re-runs its handshake there.
type Redirect struct {
	NodeID string `json:"node_id"`
	Addr   string `json:"addr"`
	Reason string `json:"reason,omitempty"`
}

// ResumeReq asks for a session from the middle of a title: NextTrack is
// the first track the client still needs. A node admits the stream at
// the enclosing parity-group boundary; a coordinator picks a live
// holder of the title — excluding Avoid, the node(s) the client just
// lost — and answers with a REDIRECT.
type ResumeReq struct {
	Title     string   `json:"title"`
	NextTrack int      `json:"next_track"`
	Avoid     []string `json:"avoid,omitempty"`
}

// ViewAck is a node's heartbeat reply to a pushed VIEW: the view number
// it now holds plus its live load, which the coordinator uses for
// least-loaded replica choice and drain-completion detection.
type ViewAck struct {
	NodeID   string `json:"node_id"`
	View     int64  `json:"view"`
	Sessions int    `json:"sessions"`
	Active   int    `json:"active"`
}

// Reject is the server's answer to a refused ADMIT. RetryAfterMillis is
// non-zero when the refusal is transient (farm at capacity): the client
// should wait that long and try again.
type Reject struct {
	Reason           string `json:"reason"`
	RetryAfterMillis int64  `json:"retry_after_ms,omitempty"`
}

// HiccupNote tells the client a track was lost (the paper's
// discontinuity in delivery) so it can account for the gap.
type HiccupNote struct {
	Track  int    `json:"track"`
	Reason string `json:"reason"`
}

// Bye ends a session. Reason is "finished", "terminated", "shed", or
// "shutdown".
type Bye struct {
	Reason string `json:"reason"`
}

// maxFFRate caps the FF multiplier a client may request: past a small
// factor the per-cluster draw argument (ceil(r/N) consecutive groups
// per cluster) stops being a useful bound and the request is a protocol
// violation, not an admission question.
const maxFFRate = 8

// VcrOK acknowledges a VCR verb. Verb echoes which one ("pause",
// "resume", "ff", "rewind"); StreamID is the session's current engine
// stream (re-admission on resume assigns a fresh one); NextTrack is the
// position the session holds — for a paused session the first track it
// will deliver on resume, for a playing one the next undelivered track.
// Rate is the session's playback multiplier after the verb (1 = normal).
type VcrOK struct {
	Verb      string `json:"verb"`
	StreamID  int    `json:"stream_id,omitempty"`
	NextTrack int    `json:"next_track"`
	Rate      int    `json:"rate"`
}

// encodeRate encodes the 4-byte big-endian payload shared by FF (a rate
// multiplier) and REWIND (a target track).
func encodeRate(v int) []byte {
	var p [4]byte
	binary.BigEndian.PutUint32(p[:], uint32(v))
	return p[:]
}

// parseFFRate validates an FF payload: exactly four bytes, rate in
// [1, maxFFRate]. Truncated or oversized encodings are protocol errors.
func parseFFRate(payload []byte) (int, error) {
	if len(payload) != 4 {
		return 0, fmt.Errorf("netserve: FF payload is %d bytes, want 4", len(payload))
	}
	rate := int(binary.BigEndian.Uint32(payload))
	if rate < 1 || rate > maxFFRate {
		return 0, fmt.Errorf("netserve: FF rate %d outside [1, %d]", rate, maxFFRate)
	}
	return rate, nil
}

// parseRewindTrack validates a REWIND payload: exactly four bytes, a
// non-negative target track (clamping to the stream's range is the
// session layer's job — the wire layer only rejects malformed frames).
func parseRewindTrack(payload []byte) (int, error) {
	if len(payload) != 4 {
		return 0, fmt.Errorf("netserve: REWIND payload is %d bytes, want 4", len(payload))
	}
	track := int(binary.BigEndian.Uint32(payload))
	if track < 0 || uint32(track) > 1<<31-1 {
		return 0, fmt.Errorf("netserve: REWIND track %d out of range", track)
	}
	return track, nil
}

// writeFrame writes one frame with a single Write — control frames are
// small, and header+payload in one call is one syscall on a socket
// instead of two. Handshakes are several frames each way, so halving
// their syscalls is visible when fan-out benchmarks dial whole cohorts.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("netserve: %d-byte payload exceeds frame limit", len(payload))
	}
	buf := make([]byte, frameHeaderLen+len(payload))
	buf[0] = typ
	binary.BigEndian.PutUint32(buf[1:frameHeaderLen], uint32(len(payload)))
	copy(buf[frameHeaderLen:], payload)
	_, err := w.Write(buf)
	return err
}

// writeJSONFrame writes one control frame with a JSON payload.
func writeJSONFrame(w io.Writer, typ byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return writeFrame(w, typ, payload)
}

// jsonFrame encodes a full control frame into one buffer.
func jsonFrame(typ byte, v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, frameHeaderLen+len(payload))
	buf[0] = typ
	binary.BigEndian.PutUint32(buf[1:frameHeaderLen], uint32(len(payload)))
	copy(buf[frameHeaderLen:], payload)
	return buf, nil
}

// encodeTrackHeader fills a TRACK frame's fixed prefix for a payload of
// dataLen content bytes. The server's hot path writes header and
// payload as separate iovecs; see writeBurst.
func encodeTrackHeader(hdr *[trackHeaderLen]byte, track, dataLen int) {
	hdr[0] = frameTrack
	binary.BigEndian.PutUint32(hdr[1:frameHeaderLen], uint32(4+dataLen))
	binary.BigEndian.PutUint32(hdr[frameHeaderLen:], uint32(track))
}

// trackFrame encodes a full TRACK wire frame in one contiguous buffer,
// copying data. The zero-copy server path does not use it (it stages
// slab-carved headers plus payloads by reference instead); it remains the
// reference encoding, exercised against the vectored path in tests.
func trackFrame(track int, data []byte) []byte {
	buf := make([]byte, trackHeaderLen+len(data))
	encodeTrackHeader((*[trackHeaderLen]byte)(buf[:trackHeaderLen]), track, len(data))
	copy(buf[trackHeaderLen:], data)
	return buf
}

// parseTrack splits a TRACK payload into index and content. The content
// is a subslice of the payload, not a copy.
func parseTrack(payload []byte) (int, []byte, error) {
	if len(payload) < 4 {
		return 0, nil, fmt.Errorf("netserve: TRACK payload of %d bytes is too short", len(payload))
	}
	return int(binary.BigEndian.Uint32(payload[:4])), payload[4:], nil
}

// readFrame reads one frame, allocating the payload.
func readFrame(r io.Reader) (byte, []byte, error) {
	return readFrameBuf(r, nil)
}

// frameReadChunk is the step size for payload reads: the decoder grows
// its buffer as bytes actually arrive, never by more than one chunk
// past what the peer has sent.
const frameReadChunk = 64 << 10

// readFrameBuf reads one frame. With a non-nil scratch the payload is
// read into *scratch and is a slice of it, grown as needed and updated in
// place — the caller owns the bytes only until its next call with the
// same scratch. With nil scratch the payload is freshly allocated.
//
// The length header is untrusted input: a peer claiming a huge payload
// must actually deliver the bytes before the decoder commits memory to
// them. Allocation is bounded by roughly twice the bytes received plus
// one chunk, not by the claimed length.
func readFrameBuf(r io.Reader, scratch *[]byte) (byte, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[1:]))
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("netserve: frame claims %d-byte payload, limit %d", n, maxFramePayload)
	}
	var payload []byte
	if scratch != nil {
		payload = (*scratch)[:0]
	}
	for len(payload) < n {
		step := n - len(payload)
		if step > frameReadChunk {
			step = frameReadChunk
		}
		if cap(payload)-len(payload) < step {
			grown := 2 * cap(payload)
			if grown < len(payload)+step {
				grown = len(payload) + step
			}
			if grown > n {
				grown = n
			}
			next := make([]byte, len(payload), grown)
			copy(next, payload)
			payload = next
		}
		start := len(payload)
		payload = payload[:start+step]
		if _, err := io.ReadFull(r, payload[start:]); err != nil {
			if scratch != nil {
				*scratch = payload[:0] // keep the grown capacity for reuse
			}
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
	}
	if scratch != nil {
		*scratch = payload
	}
	return hdr[0], payload, nil
}
