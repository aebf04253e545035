package netserve

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// clientReadBufBytes sizes the client's buffered reader: large enough
// that a whole per-cycle burst (k' tracks plus headers — three 50,000-
// byte tracks for the default Table 1 Streaming-RAID geometry is about
// 150 KB) drains in about one read syscall, and that any single track
// frame fits — which is what lets the ReuseBuffers path hand out
// payload slices straight from this buffer without a copy. Kept close
// to one burst rather than rounder-but-larger: every Dial zeroes a
// fresh buffer of this size, which is pure overhead in fan-out runs
// that open many short-lived sessions.
const clientReadBufBytes = 160 << 10

// Client is the consumer half of the session protocol, used by ftmmload
// and the loopback tests. It is not concurrency-safe: one goroutine per
// client. Frame reads go through a buffered reader; writes (handshake,
// BYE) hit the socket directly.
type Client struct {
	conn        net.Conn
	br          *bufio.Reader
	readTimeout time.Duration
	reuse       bool
	buf         []byte
}

// ReuseBuffers switches Next to fill one reused payload buffer instead
// of allocating per frame. With it on, Event.Data is valid only until
// the next call to Next — right for consumers that verify or copy each
// track immediately (ftmmload, benchmarks), wrong for ones that retain
// tracks. Off by default.
func (c *Client) ReuseBuffers(on bool) { c.reuse = on }

// RejectedError is the admission refusal as the client sees it.
type RejectedError struct {
	Reject Reject
}

func (e *RejectedError) Error() string {
	if e.Reject.RetryAfterMillis > 0 {
		return fmt.Sprintf("netserve: rejected: %s (retry after %d ms)", e.Reject.Reason, e.Reject.RetryAfterMillis)
	}
	return "netserve: rejected: " + e.Reject.Reason
}

// RedirectedError reports that the peer (a coordinator, or a node that
// no longer holds the title) wants the session on another node. The
// caller should dial Redirect.Addr and repeat its handshake there.
type RedirectedError struct {
	Redirect Redirect
}

func (e *RedirectedError) Error() string {
	return fmt.Sprintf("netserve: redirected to %s (%s)", e.Redirect.Addr, e.Redirect.NodeID)
}

// Dial connects and completes the HELLO exchange. readTimeout bounds
// every subsequent frame read (0 means no deadline).
func Dial(addr string, readTimeout time.Duration) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, br: bufio.NewReaderSize(conn, clientReadBufBytes), readTimeout: readTimeout}
	if err := writeFrame(conn, frameHello, []byte(protocolMagic)); err != nil {
		conn.Close()
		return nil, err
	}
	typ, payload, err := c.read()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if typ != frameHello || string(payload) != protocolMagic {
		conn.Close()
		return nil, fmt.Errorf("netserve: bad HELLO reply (type 0x%02x %q)", typ, payload)
	}
	return c, nil
}

// Admit requests a stream for the title. A refusal returns
// *RejectedError; a cluster hand-off returns *RedirectedError.
func (c *Client) Admit(title string) (AdmitOK, error) {
	if err := writeFrame(c.conn, frameAdmit, []byte(title)); err != nil {
		return AdmitOK{}, err
	}
	return c.admitReply("ADMIT")
}

// Resume requests a stream from the middle of a title — the failover
// half of a session hand-off. nextTrack is the first track the client
// still needs; the serving node starts at the enclosing parity-group
// boundary (check AdmitOK.StartTrack — it may be ≤ nextTrack, and the
// client should skip the overlap). Against a coordinator, avoid lists
// nodes the client just lost so the answer (a *RedirectedError) points
// at a surviving replica.
func (c *Client) Resume(title string, nextTrack int, avoid []string) (AdmitOK, error) {
	if err := writeJSONFrame(c.conn, frameResume, ResumeReq{Title: title, NextTrack: nextTrack, Avoid: avoid}); err != nil {
		return AdmitOK{}, err
	}
	return c.admitReply("RESUME")
}

func (c *Client) admitReply(verb string) (AdmitOK, error) {
	typ, payload, err := c.read()
	if err != nil {
		return AdmitOK{}, err
	}
	switch typ {
	case frameAdmitOK:
		var ok AdmitOK
		if err := json.Unmarshal(payload, &ok); err != nil {
			return AdmitOK{}, fmt.Errorf("netserve: bad ADMIT-OK payload: %w", err)
		}
		return ok, nil
	case frameReject:
		var rej Reject
		if err := json.Unmarshal(payload, &rej); err != nil {
			return AdmitOK{}, fmt.Errorf("netserve: bad REJECT payload: %w", err)
		}
		return AdmitOK{}, &RejectedError{Reject: rej}
	case frameRedirect:
		var rd Redirect
		if err := json.Unmarshal(payload, &rd); err != nil {
			return AdmitOK{}, fmt.Errorf("netserve: bad REDIRECT payload: %w", err)
		}
		return AdmitOK{}, &RedirectedError{Redirect: rd}
	default:
		return AdmitOK{}, fmt.Errorf("netserve: unexpected frame 0x%02x to %s", typ, verb)
	}
}

// AdmitRetry is the reconnect path: dial, admit, and on a transient
// rejection (Retry-After present) back off as hinted and try again on a
// fresh connection — the server hangs up after a REJECT, so each retry
// reconnects. Up to attempts tries; sleep is injectable so tests need
// no wall clock (nil means time.Sleep). Permanent rejections,
// redirects, and transport errors return immediately. On success the
// caller owns the returned connected Client.
func AdmitRetry(addr, title string, readTimeout time.Duration, attempts int, sleep func(time.Duration)) (*Client, AdmitOK, error) {
	if sleep == nil {
		sleep = time.Sleep
	}
	var err error
	for try := 0; try < attempts; try++ {
		var c *Client
		c, err = Dial(addr, readTimeout)
		if err != nil {
			return nil, AdmitOK{}, err
		}
		var ok AdmitOK
		ok, err = c.Admit(title)
		if err == nil {
			return c, ok, nil
		}
		c.Close()
		var rej *RejectedError
		if !errors.As(err, &rej) || rej.Reject.RetryAfterMillis <= 0 {
			return nil, AdmitOK{}, err
		}
		if try < attempts-1 {
			sleep(time.Duration(rej.Reject.RetryAfterMillis) * time.Millisecond)
		}
	}
	return nil, AdmitOK{}, err
}

// Event is one post-admission frame, decoded.
type Event struct {
	// Track and Data are set for track deliveries. Data is owned by the
	// caller, unless ReuseBuffers is on — then it is valid only until
	// the next call to Next.
	Track int
	Data  []byte
	// Hiccup is set for lost-track notes.
	Hiccup *HiccupNote
	// Vcr is set when the server acknowledges a VCR verb (pause,
	// resume, ff, rewind).
	Vcr *VcrOK
	// VcrReject is set when the server refuses a VCR verb — a resume or
	// fast-forward the admission bound cannot absorb right now
	// (RetryAfterMillis hints when to retry) or a verb sent while the
	// node drains. The session itself stays up.
	VcrReject *Reject
	// Bye is set when the server ends the session; no further events
	// follow.
	Bye *Bye
}

// Pause asks the server to park the session: its engine stream is
// released (freeing the admission slot) and its position held. The ack
// (or refusal) arrives as a later Event.Vcr / Event.VcrReject — track
// frames already in flight may precede it.
func (c *Client) Pause() error {
	return writeFrame(c.conn, framePause, nil)
}

// ResumePlay resumes a paused session at its held position, or drops a
// fast-forwarding session back to normal rate. Resuming re-runs
// admission; a refusal arrives as Event.VcrReject with a Retry-After
// hint and the session stays paused.
func (c *Client) ResumePlay() error {
	return writeFrame(c.conn, frameResumePlay, nil)
}

// FastForward asks for playback at rate× normal (rate in [1,
// maxFFRate]). The server accounts the extra per-cycle draw against the
// admission bound and refuses (Event.VcrReject, Retry-After) rather
// than oversubscribe a cycle.
func (c *Client) FastForward(rate int) error {
	if rate < 1 || rate > maxFFRate {
		return fmt.Errorf("netserve: FF rate %d out of range [1,%d]", rate, maxFFRate)
	}
	return writeFrame(c.conn, frameFF, encodeRate(rate))
}

// Rewind jumps the session to an absolute track (the server floors it
// to the enclosing parity-group boundary; the ack's NextTrack says
// where delivery restarts). Playback rate drops to normal.
func (c *Client) Rewind(track int) error {
	if track < 0 {
		return fmt.Errorf("netserve: rewind track %d is negative", track)
	}
	return writeFrame(c.conn, frameRewind, encodeRate(track))
}

// internedByes maps the exact payloads of the server's prebuilt BYE
// frames to shared decoded values, so the common session endings skip
// json.Unmarshal (the map index on a byte slice does not allocate).
// The values are shared across sessions — callers must treat Event.Bye
// as read-only, which they already must for Data under ReuseBuffers.
var internedByes = func() map[string]*Bye {
	m := make(map[string]*Bye)
	for _, reason := range []string{"finished", "terminated"} {
		p, err := json.Marshal(Bye{Reason: reason})
		if err != nil {
			panic(err)
		}
		m[string(p)] = &Bye{Reason: reason}
	}
	return m
}()

// Next returns the next event. After a Bye event (or an error) the
// session is over.
func (c *Client) Next() (Event, error) {
	for {
		typ, payload, err := c.read()
		if err != nil {
			return Event{}, err
		}
		switch typ {
		case frameTrack:
			track, data, err := parseTrack(payload)
			if err != nil {
				return Event{}, err
			}
			return Event{Track: track, Data: data}, nil
		case frameHiccup:
			var h HiccupNote
			if err := json.Unmarshal(payload, &h); err != nil {
				return Event{}, fmt.Errorf("netserve: bad HICCUP payload: %w", err)
			}
			return Event{Hiccup: &h}, nil
		case frameVcrOK:
			var v VcrOK
			if err := json.Unmarshal(payload, &v); err != nil {
				return Event{}, fmt.Errorf("netserve: bad VCR-OK payload: %w", err)
			}
			return Event{Vcr: &v}, nil
		case frameReject:
			// Post-admission REJECT: a VCR verb the farm cannot absorb
			// right now. The session continues.
			var rej Reject
			if err := json.Unmarshal(payload, &rej); err != nil {
				return Event{}, fmt.Errorf("netserve: bad REJECT payload: %w", err)
			}
			return Event{VcrReject: &rej}, nil
		case frameBye:
			if b := internedByes[string(payload)]; b != nil {
				return Event{Bye: b}, nil
			}
			var b Bye
			if err := json.Unmarshal(payload, &b); err != nil {
				return Event{}, fmt.Errorf("netserve: bad BYE payload: %w", err)
			}
			return Event{Bye: &b}, nil
		default:
			// Tolerate unknown control frames from newer servers.
			continue
		}
	}
}

// Close sends BYE (best-effort) and closes the connection.
func (c *Client) Close() error {
	_ = writeJSONFrame(c.conn, frameBye, Bye{Reason: "client close"})
	return c.conn.Close()
}

func (c *Client) read() (byte, []byte, error) {
	if c.readTimeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.readTimeout))
	}
	if c.reuse {
		return readFrameZeroCopy(c.br, &c.buf)
	}
	return readFrame(c.br)
}

// readFrameZeroCopy reads one frame, returning the payload as a slice
// of the buffered reader's own buffer — no copy. The slice is valid
// only until the next read (a later fill may compact the buffer), which
// is exactly the ReuseBuffers contract. Frames too large for the buffer
// fall back to the copying scratch path; the header is still unread
// then, so the fallback decodes the whole frame itself.
func readFrameZeroCopy(br *bufio.Reader, scratch *[]byte) (byte, []byte, error) {
	hdr, err := br.Peek(frameHeaderLen)
	if err != nil {
		if len(hdr) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	typ := hdr[0]
	n := int(binary.BigEndian.Uint32(hdr[1:frameHeaderLen]))
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("netserve: frame claims %d-byte payload, limit %d", n, maxFramePayload)
	}
	if frameHeaderLen+n > br.Size() {
		return readFrameBuf(br, scratch)
	}
	full, err := br.Peek(frameHeaderLen + n)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	payload := full[frameHeaderLen:]
	if _, err := br.Discard(frameHeaderLen + n); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}
