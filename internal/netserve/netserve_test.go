package netserve

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"ftmm/internal/diskmodel"
	"ftmm/internal/server"
	"ftmm/internal/trace"
	"ftmm/internal/units"
	"ftmm/internal/workload"
)

// rigConfig shapes a loopback test fixture.
type rigConfig struct {
	disks, cluster, k int
	titles, groups    int
	slotsPerDisk      int
	ns                Options // Clock/SendQueue/WriteTimeout/WriteBufferBytes knobs
}

func defaultRig() rigConfig {
	return rigConfig{disks: 8, cluster: 4, k: 2, titles: 2, groups: 4}
}

// loopRig is a server farm plus its network front end on a loopback
// listener.
type loopRig struct {
	srv        *server.Server
	ns         *NetServer
	titles     []string
	trackSize  int
	titleSize  int
	trackCount int
}

// newRigServer builds the rig's farm and archives its titles: the back
// end newLoopRig fronts with a NetServer, and the twin
// TestPipelineBitExactVsDirectStep steps directly.
func newRigServer(t testing.TB, schemeName string, cfg rigConfig) (*server.Server, []string) {
	t.Helper()
	scheme, policy, err := server.ParseScheme(schemeName)
	if err != nil {
		t.Fatal(err)
	}
	p := diskmodel.Table1()
	tracksPerTitle := cfg.groups * cfg.cluster
	p.Capacity = units.ByteSize((cfg.titles*cfg.cluster*tracksPerTitle)/cfg.disks+tracksPerTitle+50) * p.TrackSize
	srv, err := server.New(server.Options{
		Disks: cfg.disks, ClusterSize: cfg.cluster,
		DiskParams: p, Scheme: scheme, K: cfg.k, NCPolicy: policy,
		SlotsPerDisk: cfg.slotsPerDisk,
	})
	if err != nil {
		t.Fatal(err)
	}
	titleSize := cfg.groups * (cfg.cluster - 1) * int(p.TrackSize)
	names := workload.ObjectNames("title", cfg.titles)
	for i, id := range names {
		content := workload.SyntheticContent(id, titleSize)
		if err := srv.AddTitle(id, units.ByteSize(titleSize), i, content); err != nil {
			t.Fatal(err)
		}
	}
	return srv, names
}

func newLoopRig(t testing.TB, schemeName string, cfg rigConfig) *loopRig {
	t.Helper()
	srv, names := newRigServer(t, schemeName, cfg)
	nsOpts := cfg.ns
	nsOpts.Server = srv
	ns, err := New(nsOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Close() })
	trackSize := int(srv.Farm().Params().TrackSize)
	return &loopRig{
		srv: srv, ns: ns, titles: names,
		trackSize: trackSize, titleSize: cfg.groups * (cfg.cluster - 1) * trackSize,
		trackCount: cfg.groups * (cfg.cluster - 1),
	}
}

// connect dials the rig and admits a stream for the title.
func (r *loopRig) connect(t *testing.T, title string) (*Client, AdmitOK) {
	t.Helper()
	c, err := Dial(r.ns.Addr().String(), 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := c.Admit(title)
	if err != nil {
		c.Close()
		t.Fatalf("admit %s: %v", title, err)
	}
	return c, ok
}

// clientResult is everything one consumer saw.
type clientResult struct {
	tracks  map[int][]byte
	hiccups []HiccupNote
	bye     string
	err     error
}

// consume reads a session to its end.
func consume(c *Client) *clientResult {
	res := &clientResult{tracks: map[int][]byte{}}
	for {
		ev, err := c.Next()
		if err != nil {
			res.err = err
			return res
		}
		switch {
		case ev.Bye != nil:
			res.bye = ev.Bye.Reason
			return res
		case ev.Hiccup != nil:
			res.hiccups = append(res.hiccups, *ev.Hiccup)
		default:
			res.tracks[ev.Track] = ev.Data
		}
	}
}

// verifyBitExact checks that every received track matches the title's
// synthetic content byte for byte (trace.CheckTrack is the same
// predicate the engine-side integrity checker uses) and that received
// plus hiccuped tracks cover the title exactly.
func verifyBitExact(t *testing.T, r *loopRig, title string, res *clientResult) {
	t.Helper()
	if res.err != nil {
		t.Fatalf("%s: client error: %v", title, res.err)
	}
	content := workload.SyntheticContent(title, r.titleSize)
	for track, data := range res.tracks {
		if err := trace.CheckTrack(content, r.trackSize, track, data); err != nil {
			t.Errorf("%s: %v", title, err)
		}
	}
	covered := map[int]bool{}
	for track := range res.tracks {
		covered[track] = true
	}
	for _, h := range res.hiccups {
		if covered[h.Track] {
			t.Errorf("%s: track %d both delivered and hiccuped", title, h.Track)
		}
		covered[h.Track] = true
	}
	for track := 0; track < r.trackCount; track++ {
		if !covered[track] {
			t.Errorf("%s: track %d neither delivered nor hiccuped", title, track)
		}
	}
	if len(covered) != r.trackCount {
		t.Errorf("%s: covered %d tracks, want %d", title, len(covered), r.trackCount)
	}
}

// waitQueueDrained blocks until the stream's send queue is empty (its
// writer has handed every pending burst to the kernel) or the session
// is gone.
func (r *loopRig) waitQueueDrained(streamID int) {
	for i := 0; i < 5000; i++ {
		sess := r.ns.sessions.get(streamID)
		if sess == nil || len(sess.sendq) == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// stepUntilIdle drives manual-mode cycles until the farm quiesces.
func (r *loopRig) stepUntilIdle(t *testing.T, maxCycles int) {
	t.Helper()
	for i := 0; i < maxCycles; i++ {
		if r.ns.Sessions() == 0 && r.srv.Engine().Active() == 0 {
			return
		}
		if err := r.ns.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatalf("farm not idle after %d cycles (%d sessions)", maxCycles, r.ns.Sessions())
}

// stepUntilBuffersHome idle-steps until every arena buffer has been
// returned: the engine holds delivered refs until its next Step, and
// writer goroutines may still be unwinding.
func (r *loopRig) stepUntilBuffersHome(t testing.TB) {
	t.Helper()
	arena := r.srv.Engine().Arena()
	for deadline := time.Now().Add(10 * time.Second); arena.Outstanding() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("arena has %d buffers outstanding after drain", arena.Outstanding())
		}
		if err := r.ns.StepCycle(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLoopbackMidStreamFailure is the end-to-end acceptance test: under
// each scheme, two clients stream concurrently over loopback, a data
// disk under the first client's title fails mid-stream, and both
// clients must still receive bit-exact content. The parity schemes
// (SR, SG, IB) mask the failure completely; Non-clustered loses at most
// C-1 tracks inside the degraded-mode transition window and announces
// each loss with a HICCUP frame. The witness client's title lives on a
// different cluster and must never notice.
func TestLoopbackMidStreamFailure(t *testing.T) {
	const failAt = 5
	for _, tc := range []struct {
		scheme      string
		wantHiccups bool // loses tracks in the NC degraded transition
	}{
		{scheme: "sr"},
		{scheme: "sg"},
		{scheme: "nc", wantHiccups: true},
		{scheme: "nc-simple", wantHiccups: true},
		{scheme: "ib"},
	} {
		t.Run(tc.scheme, func(t *testing.T) {
			r := newLoopRig(t, tc.scheme, defaultRig())
			victim, vOK := r.connect(t, r.titles[0])
			witness, _ := r.connect(t, r.titles[1])
			defer victim.Close()
			defer witness.Close()
			vRes := make(chan *clientResult, 1)
			wRes := make(chan *clientResult, 1)
			go func() { vRes <- consume(victim) }()
			go func() { wRes <- consume(witness) }()

			// Step until the victim stream is failAt tracks in, then fail
			// the disk holding the track its read pointer is about to
			// fetch — a cycle-boundary failure, exactly the paper's model.
			// Non-clustered reads one track ahead of delivery and only
			// loses tracks when the failure catches it mid-group, so the
			// failure is timed for a mid-group read (Figures 6/7).
			width := defaultRig().cluster - 1
			failedDisk, n0 := -1, 0
			for i := 0; i < 400; i++ {
				if failedDisk < 0 {
					next, total, ok := r.ns.StreamProgress(vOK.StreamID)
					target := next + 1
					if ok && next >= failAt && target < total &&
						(!tc.wantHiccups || target%width != 0) {
						obj, err := r.srv.Catalog().Object(r.titles[0])
						if err != nil {
							t.Fatal(err)
						}
						loc, err := obj.DataLocation(target)
						if err != nil {
							t.Fatal(err)
						}
						failedDisk, n0 = loc.Disk, next
						if err := r.ns.FailDisk(failedDisk); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := r.ns.StepCycle(); err != nil {
					t.Fatal(err)
				}
				if failedDisk >= 0 && r.ns.Sessions() == 0 && r.srv.Engine().Active() == 0 {
					break
				}
			}
			if failedDisk < 0 {
				t.Fatal("never reached the failure point")
			}
			r.stepUntilIdle(t, 100)

			v := <-vRes
			w := <-wRes
			verifyBitExact(t, r, r.titles[0], v)
			verifyBitExact(t, r, r.titles[1], w)
			if v.bye != "finished" {
				t.Errorf("victim bye = %q, want finished", v.bye)
			}
			if len(w.hiccups) != 0 {
				t.Errorf("witness on another cluster saw %d hiccups: %v", len(w.hiccups), w.hiccups)
			}
			if !tc.wantHiccups && len(v.hiccups) != 0 {
				t.Errorf("%s should mask the failure, victim saw hiccups %v", tc.scheme, v.hiccups)
			}
			if tc.wantHiccups {
				// Fig 6/7 accounting: at least the failed drive's unread
				// track is lost, losses are bounded by C-1, and all fall in
				// the transition window right after the failure.
				c := defaultRig().cluster
				if len(v.hiccups) == 0 {
					t.Errorf("%s caught mid-group loses the failed drive's track, got none", tc.scheme)
				}
				if len(v.hiccups) > c-1 {
					t.Errorf("victim lost %d tracks, bound is C-1 = %d", len(v.hiccups), c-1)
				}
				for _, h := range v.hiccups {
					if h.Track < n0-1 || h.Track > n0+2*c {
						t.Errorf("hiccup track %d outside transition window [%d,%d]", h.Track, n0-1, n0+2*c)
					}
				}
			}
		})
	}
}

// TestSlowClientShed pins down the isolation property: a client that
// stops reading cannot stall the cycle loop or other streams. Its send
// queue overflows, it is shed (stream cancelled, connection closed),
// and the healthy client still receives everything bit-exact.
func TestSlowClientShed(t *testing.T) {
	cfg := defaultRig()
	cfg.groups = 10 // 10 per-cycle bursts: enough to overflow the queue
	cfg.ns = Options{
		SendQueue: 4, // bursts, not frames: must be < the title's burst count

		WriteTimeout:     5 * time.Second,
		WriteBufferBytes: 8 << 10,
		Logf:             t.Logf,
	}
	r := newLoopRig(t, "sr", cfg)

	stalled, _ := r.connect(t, r.titles[0])
	defer stalled.Close() // never reads a frame
	healthy, hOK := r.connect(t, r.titles[1])
	defer healthy.Close()
	hRes := make(chan *clientResult, 1)
	go func() { hRes <- consume(healthy) }()

	shed := r.srv.Metrics().Counter("net_sessions_shed")
	for i := 0; i < 300; i++ {
		if r.ns.Sessions() == 0 && r.srv.Engine().Active() == 0 {
			break
		}
		if err := r.ns.StepCycle(); err != nil {
			t.Fatal(err)
		}
		// Let the healthy writer drain between bursts so machine speed
		// cannot shed it; the stalled client gets the same grace and
		// still falls behind, because its socket never moves.
		r.waitQueueDrained(hOK.StreamID)
	}
	if got := shed.Value(); got < 1 {
		t.Fatalf("net_sessions_shed = %d, want >= 1", got)
	}
	h := <-hRes
	verifyBitExact(t, r, r.titles[1], h)
	if h.bye != "finished" {
		t.Errorf("healthy bye = %q, want finished", h.bye)
	}
	if len(h.hiccups) != 0 {
		t.Errorf("healthy client saw hiccups %v", h.hiccups)
	}
}

// TestDrain covers graceful shutdown: draining refuses new admissions
// but plays existing streams to completion.
func TestDrain(t *testing.T) {
	r := newLoopRig(t, "sg", defaultRig())
	c, _ := r.connect(t, r.titles[0])
	defer c.Close()
	res := make(chan *clientResult, 1)
	go func() { res <- consume(c) }()
	if err := r.ns.StepCycle(); err != nil {
		t.Fatal(err)
	}

	// Zero timeout: sets the drain in motion and reports "not yet".
	if err := r.ns.Drain(0); err == nil {
		t.Fatal("drain with a live stream reported complete")
	}
	late, err := Dial(r.ns.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if _, err := late.Admit(r.titles[1]); err == nil {
		t.Fatal("admission during drain succeeded")
	} else {
		var rej *RejectedError
		if !errors.As(err, &rej) || rej.Reject.Reason != "draining" {
			t.Fatalf("drain admission error = %v, want draining rejection", err)
		}
	}

	r.stepUntilIdle(t, 200)
	if !r.ns.Drained() {
		t.Fatal("drain not complete after farm went idle")
	}
	if err := r.ns.Drain(time.Second); err != nil {
		t.Fatalf("drain after idle: %v", err)
	}
	got := <-res
	verifyBitExact(t, r, r.titles[0], got)
	if got.bye != "finished" {
		t.Errorf("bye = %q, want finished", got.bye)
	}
}

// TestAdmissionReject fills a one-cluster farm and checks the transient
// rejection carries a retry hint.
func TestAdmissionReject(t *testing.T) {
	cfg := defaultRig()
	cfg.disks, cfg.cluster, cfg.slotsPerDisk = 5, 5, 1
	r := newLoopRig(t, "sr", cfg)
	first, _ := r.connect(t, r.titles[0])
	defer first.Close()

	second, err := Dial(r.ns.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	_, err = second.Admit(r.titles[1])
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("second admit on a full cluster: err = %v, want rejection", err)
	}
	if rej.Reject.RetryAfterMillis <= 0 {
		t.Errorf("capacity rejection carries no retry hint: %+v", rej.Reject)
	}
}

// TestPacedDelivery checks the clocked modes end to end: with a virtual
// clock (and a sped-up wall clock) the pacer drives cycles without any
// manual stepping and a session plays out whole.
func TestPacedDelivery(t *testing.T) {
	for _, tc := range []struct {
		name  string
		clock Clock
	}{
		{"virtual", VirtualClock()},
		{"wall-fast", WallClock(50000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := defaultRig()
			cfg.ns = Options{Clock: tc.clock}
			r := newLoopRig(t, "sr", cfg)
			c, _ := r.connect(t, r.titles[0])
			defer c.Close()
			res := consume(c)
			verifyBitExact(t, r, r.titles[0], res)
			if res.bye != "finished" {
				t.Errorf("bye = %q, want finished", res.bye)
			}
		})
	}
}

// TestBurstMatchesScheme pins the k′-aware pacing: whole-group schemes
// ship C-1 tracks per cycle, per-track schemes one.
func TestBurstMatchesScheme(t *testing.T) {
	for _, tc := range []struct {
		scheme string
		burst  int
	}{
		{"sr", 3}, {"ib", 3}, {"sg", 1}, {"nc", 1},
	} {
		r := newLoopRig(t, tc.scheme, defaultRig())
		if r.ns.Burst() != tc.burst {
			t.Errorf("%s: burst = %d, want %d", tc.scheme, r.ns.Burst(), tc.burst)
		}
		c, ok := r.connect(t, r.titles[0])
		if ok.Burst != tc.burst {
			t.Errorf("%s: ADMIT-OK burst = %d, want %d", tc.scheme, ok.Burst, tc.burst)
		}
		c.Close()
	}
}

// TestProtoRoundTrip exercises the framing layer alone.
func TestProtoRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameHello, []byte(protocolMagic)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(&buf)
	if err != nil || typ != frameHello || string(payload) != protocolMagic {
		t.Fatalf("hello round trip: type 0x%02x payload %q err %v", typ, payload, err)
	}

	data := []byte("0123456789abcdef")
	frame := trackFrame(42, data)
	buf.Reset()
	buf.Write(frame)
	typ, payload, err = readFrame(&buf)
	if err != nil || typ != frameTrack {
		t.Fatalf("track frame: type 0x%02x err %v", typ, err)
	}
	track, got, err := parseTrack(payload)
	if err != nil || track != 42 || !bytes.Equal(got, data) {
		t.Fatalf("parseTrack = (%d, %q, %v)", track, got, err)
	}
	// trackFrame must copy: scribbling on the source afterwards cannot
	// change the encoded frame (the arena recycles delivery buffers).
	frame2 := trackFrame(7, data)
	data[0] = 'X'
	if bytes.Contains(frame2, []byte("X123")) {
		t.Fatal("trackFrame aliases its input")
	}

	buf.Reset()
	if err := writeJSONFrame(&buf, frameReject, Reject{Reason: "full", RetryAfterMillis: 800}); err != nil {
		t.Fatal(err)
	}
	typ, payload, err = readFrame(&buf)
	if err != nil || typ != frameReject {
		t.Fatalf("reject frame: type 0x%02x err %v", typ, err)
	}
	if !bytes.Contains(payload, []byte(`"retry_after_ms":800`)) {
		t.Errorf("reject payload %s missing retry hint", payload)
	}

	// Oversized and truncated frames are errors, not hangs.
	if err := writeFrame(&buf, frameTrack, make([]byte, maxFramePayload+1)); err == nil {
		t.Error("oversized write accepted")
	}
	var bad bytes.Buffer
	bad.Write([]byte{frameTrack, 0xff, 0xff, 0xff, 0xff})
	if _, _, err := readFrame(&bad); err == nil {
		t.Error("oversized read accepted")
	}
	if _, _, err := parseTrack([]byte{1, 2}); err == nil {
		t.Error("short TRACK payload accepted")
	}
}

// BenchmarkLoopbackStream measures the steady-state delivery path:
// one op is one TRACK frame received by a client streaming a long
// title over loopback under virtual-clock pacing. Dial/admit happen
// off the timer, so ns/op and allocs/op reflect the per-frame cost of
// the zero-copy data plane, not session setup.
func BenchmarkLoopbackStream(b *testing.B) {
	scheme, policy, err := server.ParseScheme("sr")
	if err != nil {
		b.Fatal(err)
	}
	const disks, cluster, groups = 8, 4, 128
	p := diskmodel.Table1()
	tracksPerTitle := groups * cluster
	p.Capacity = units.ByteSize((cluster*tracksPerTitle)/disks+tracksPerTitle+50) * p.TrackSize
	srv, err := server.New(server.Options{
		Disks: disks, ClusterSize: cluster,
		DiskParams: p, Scheme: scheme, K: 2, NCPolicy: policy,
	})
	if err != nil {
		b.Fatal(err)
	}
	trackSize := int(p.TrackSize)
	titleSize := groups * (cluster - 1) * trackSize
	title := "bench-title"
	if err := srv.AddTitle(title, units.ByteSize(titleSize), 0, workload.SyntheticContent(title, titleSize)); err != nil {
		b.Fatal(err)
	}
	// The virtual clock steps cycles back to back with no pacing delay,
	// so the send queue is the only flow control: it must hold a whole
	// title's bursts or the engine outruns the client and sheds it.
	ns, err := New(Options{Server: srv, Clock: VirtualClock(), SendQueue: groups + 8})
	if err != nil {
		b.Fatal(err)
	}
	defer ns.Close()

	dial := func() *Client {
		c, err := Dial(ns.Addr().String(), 30*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		c.ReuseBuffers(true)
		if _, err := c.Admit(title); err != nil {
			b.Fatal(fmt.Errorf("admit: %w", err))
		}
		return c
	}

	cl := dial()
	defer func() { cl.Close() }()
	b.SetBytes(int64(trackSize))
	b.ResetTimer()
	for delivered := 0; delivered < b.N; {
		ev, err := cl.Next()
		if err != nil {
			b.Fatal(err)
		}
		switch {
		case ev.Bye != nil:
			b.StopTimer()
			cl.Close()
			cl = dial()
			b.StartTimer()
		case ev.Hiccup != nil:
			b.Fatalf("unexpected hiccup on track %d", ev.Hiccup.Track)
		default:
			delivered++
		}
	}
}
