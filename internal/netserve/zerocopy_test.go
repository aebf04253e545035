package netserve

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestArenaNoLeakAfterShedAndDisconnect is the refcount leak check for
// the zero-copy path: after a run that mixes a clean playout, a
// mid-stream client disconnect, and a stalled client shed off a full
// send queue, every track buffer must be back in the arena. A missing
// Release anywhere — engine report, queued burst, in-flight write —
// shows up as a non-zero outstanding count. Only made tracks carry a
// Ref, so a data drive fails before the first cycle: every group on its
// cluster is reconstructed, and made tracks ride every path above.
func TestArenaNoLeakAfterShedAndDisconnect(t *testing.T) {
	cfg := defaultRig()
	cfg.groups = 10
	cfg.ns = Options{
		SendQueue:        4, // bursts: less than the title's burst count, so the stalled client overflows
		WriteTimeout:     5 * time.Second,
		WriteBufferBytes: 8 << 10,
		Logf:             t.Logf,
	}
	r := newLoopRig(t, "sr", cfg)
	arena := r.srv.Engine().Arena()
	if arena == nil {
		t.Fatal("engine has no arena")
	}
	// Drive 0 is a data drive of cluster 0, which both titles cross; it
	// fails at the first cycle, after admission has staged the titles.
	r.ns.ScheduleFailure(0, 0)

	healthy, hOK := r.connect(t, r.titles[1])
	defer healthy.Close()
	hRes := make(chan *clientResult, 1)
	go func() { hRes <- consume(healthy) }()

	// The quitter reads two frames and hangs up mid-stream; its session
	// still holds queued bursts and possibly an in-flight write.
	quitter, _ := r.connect(t, r.titles[0])
	quitDone := make(chan struct{})
	go func() {
		defer close(quitDone)
		for i := 0; i < 2; i++ {
			if _, err := quitter.Next(); err != nil {
				break
			}
		}
		quitter.Close()
	}()

	stalled, _ := r.connect(t, r.titles[0])
	defer stalled.Close() // never reads a frame

	shed := r.srv.Metrics().Counter("net_sessions_shed")
	for i := 0; i < 300; i++ {
		if r.ns.Sessions() == 0 && r.srv.Engine().Active() == 0 {
			break
		}
		if err := r.ns.StepCycle(); err != nil {
			t.Fatal(err)
		}
		r.waitQueueDrained(hOK.StreamID)
	}
	<-quitDone
	if got := shed.Value(); got < 1 {
		t.Fatalf("net_sessions_shed = %d, want >= 1 (stalled client not shed)", got)
	}
	h := <-hRes
	if h.err != nil || h.bye != "finished" {
		t.Fatalf("healthy stream: err=%v bye=%q", h.err, h.bye)
	}

	if gets, _, _ := arena.Stats(); gets == 0 {
		t.Fatal("no made tracks: the leak audit had nothing to audit")
	}
	r.stepUntilBuffersHome(t)
}

// chunkConn is a net.Conn stub whose Write accepts at most cap bytes
// per call, returning n < len(p) with a nil error — the short-write
// contract violation writeVectored's fallback loop must tolerate. It
// records everything accepted.
type chunkConn struct {
	cap    int
	got    bytes.Buffer
	writes int
}

func (c *chunkConn) Write(p []byte) (int, error) {
	c.writes++
	n := len(p)
	if n > c.cap {
		n = c.cap
	}
	c.got.Write(p[:n])
	return n, nil
}

func (c *chunkConn) Read(p []byte) (int, error)         { return 0, fmt.Errorf("not readable") }
func (c *chunkConn) Close() error                       { return nil }
func (c *chunkConn) LocalAddr() net.Addr                { return nil }
func (c *chunkConn) RemoteAddr() net.Addr               { return nil }
func (c *chunkConn) SetDeadline(t time.Time) error      { return nil }
func (c *chunkConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *chunkConn) SetWriteDeadline(t time.Time) error { return nil }

// TestWriteVectoredPartialWrites feeds writeVectored a conn that
// splits every write mid-buffer (7-byte chunks cut both the 9-byte
// track header and the payloads) and checks the byte stream still
// parses into the exact frames that went in.
func TestWriteVectoredPartialWrites(t *testing.T) {
	payloads := [][]byte{
		bytes.Repeat([]byte{0xAA}, 100),
		bytes.Repeat([]byte{0xBB}, 1),
		bytes.Repeat([]byte{0xCC}, 257),
	}
	var bufs net.Buffers
	var want bytes.Buffer
	hdrs := make([]*[trackHeaderLen]byte, len(payloads))
	for i, p := range payloads {
		hdrs[i] = new([trackHeaderLen]byte)
		encodeTrackHeader(hdrs[i], i, len(p))
		bufs = append(bufs, hdrs[i][:], p)
		want.Write(trackFrame(i, p)) // reference encoding
	}

	for _, chunk := range []int{1, 7, 64} {
		conn := &chunkConn{cap: chunk}
		cp := make(net.Buffers, len(bufs))
		copy(cp, bufs)
		if err := writeVectored(conn, cp); err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if !bytes.Equal(conn.got.Bytes(), want.Bytes()) {
			t.Fatalf("chunk %d: stream corrupted (%d bytes written, want %d)", chunk, conn.got.Len(), want.Len())
		}
		// Parse the stream back as frames for good measure.
		rd := bytes.NewReader(conn.got.Bytes())
		for i, p := range payloads {
			typ, payload, err := readFrame(rd)
			if err != nil {
				t.Fatalf("chunk %d: frame %d: %v", chunk, i, err)
			}
			if typ != frameTrack {
				t.Fatalf("chunk %d: frame %d: type %d, want TRACK", chunk, i, typ)
			}
			track, data, err := parseTrack(payload)
			if err != nil || track != i || !bytes.Equal(data, p) {
				t.Fatalf("chunk %d: frame %d: track=%d err=%v data ok=%v", chunk, i, track, err, bytes.Equal(data, p))
			}
		}
		if rd.Len() != 0 {
			t.Fatalf("chunk %d: %d trailing bytes", chunk, rd.Len())
		}
	}
}

// TestPprofOptIn checks the /debug/pprof endpoints are mounted only
// when Options.EnablePprof is set.
func TestPprofOptIn(t *testing.T) {
	for _, tc := range []struct {
		enable bool
		want   int
	}{
		{enable: false, want: http.StatusNotFound},
		{enable: true, want: http.StatusOK},
	} {
		cfg := defaultRig()
		cfg.ns = Options{EnablePprof: tc.enable}
		r := newLoopRig(t, "sr", cfg)
		req := httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil)
		rec := httptest.NewRecorder()
		r.ns.Handler().ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("EnablePprof=%v: GET /debug/pprof/ = %d, want %d", tc.enable, rec.Code, tc.want)
		}
	}
}
