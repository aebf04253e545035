package netserve

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ftmm/internal/trace"
	"ftmm/internal/workload"
)

// waitVcr reads a client's event stream until the next VCR
// acknowledgement or refusal arrives, tolerating interleaved track and
// hiccup traffic.
func waitVcr(t *testing.T, c *Client) Event {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		ev, err := c.Next()
		if err != nil {
			t.Fatalf("waiting for VCR reply: %v", err)
		}
		if ev.Vcr != nil || ev.VcrReject != nil {
			return ev
		}
		if ev.Bye != nil {
			t.Fatalf("session closed while waiting for VCR reply: %s", ev.Bye.Reason)
		}
	}
	t.Fatal("no VCR reply in 10000 events")
	return Event{}
}

// TestFFCapacityRejectThenPauseAdmits is the k′ acceptance test on a
// single-cluster farm, where the per-cluster surcharge for FF at rate r
// is exactly r-1 slots: fill the farm to its admission bound, ask one
// viewer to fast-forward — the doubled draw would exceed N_p, so the
// server must refuse with a Retry-After — then pause another viewer
// (freeing its slot without giving up its position) and ask again; now
// the fast-forward must be granted.
func TestFFCapacityRejectThenPauseAdmits(t *testing.T) {
	cfg := defaultRig()
	cfg.disks, cfg.cluster = 4, 4 // one cluster: the FF surcharge bound is exact
	cfg.titles, cfg.groups = 2, 6
	r := newLoopRig(t, "sr", cfg)

	// Fill the farm: admit until the first rejection.
	var clients []*Client
	t.Cleanup(func() {
		for _, c := range clients {
			c.Close()
		}
	})
	for i := 0; i < 200; i++ {
		c, err := Dial(r.ns.Addr().String(), 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Admit(r.titles[i%len(r.titles)]); err != nil {
			c.Close()
			var rej *RejectedError
			if !errors.As(err, &rej) {
				t.Fatalf("admission %d failed with a non-reject error: %v", i, err)
			}
			break
		}
		clients = append(clients, c)
	}
	if len(clients) < 2 {
		t.Fatalf("farm admitted only %d streams; need >= 2 for the test", len(clients))
	}

	// At capacity, a fast-forward would push the weighted draw past N_p.
	if err := clients[0].FastForward(2); err != nil {
		t.Fatal(err)
	}
	ev := waitVcr(t, clients[0])
	if ev.VcrReject == nil {
		t.Fatalf("FF at capacity was granted: %+v", ev.Vcr)
	}
	if ev.VcrReject.RetryAfterMillis <= 0 {
		t.Errorf("FF refusal carries no Retry-After: %+v", ev.VcrReject)
	}

	// Another viewer pauses: its slot returns to the pool, its position
	// is held server-side.
	if err := clients[1].Pause(); err != nil {
		t.Fatal(err)
	}
	ev = waitVcr(t, clients[1])
	if ev.Vcr == nil || ev.Vcr.Verb != "pause" {
		t.Fatalf("pause not acknowledged: %+v", ev)
	}

	// The freed slot covers the fast-forward surcharge.
	if err := clients[0].FastForward(2); err != nil {
		t.Fatal(err)
	}
	ev = waitVcr(t, clients[0])
	if ev.Vcr == nil || ev.Vcr.Verb != "ff" || ev.Vcr.Rate != 2 {
		t.Fatalf("FF after a pause still refused: %+v", ev.VcrReject)
	}
}

// TestPauseResumeBitExact plays a title with a pause/resume round-trip
// in the middle, a cycle stepping while the pause is in flight, and
// checks the viewer still ends up with every track of the title,
// bit-exact. It also pins the VCR contract that a reply splits the
// session's stream: no TRACK arrives between the pause's VCR-OK and the
// resume's, and the first TRACK after a VCR-OK is its NextTrack.
func TestPauseResumeBitExact(t *testing.T) {
	cfg := defaultRig()
	cfg.groups = 6
	cfg.ns = Options{Logf: t.Logf}
	r := newLoopRig(t, "sr", cfg)

	c, ok := r.connect(t, r.titles[0])
	defer c.Close()
	done := make(chan *clientResult, 1)
	resumed := make(chan struct{}, 1)
	go func() {
		// The reader collects tracks and drives the VCR handshake:
		// on the pause ack it asks to play on (the re-admission
		// may bounce off a momentarily full farm; retries ride the
		// VcrReject arm), and on the resume ack it unblocks the
		// cycle driver.
		res := &clientResult{tracks: map[int][]byte{}}
		var lastOK *VcrOK // the latest VCR-OK, until a TRACK follows it
		paused := false
		for {
			ev, err := c.Next()
			if err != nil {
				res.err = err
				done <- res
				return
			}
			switch {
			case ev.Bye != nil:
				res.bye = ev.Bye.Reason
				done <- res
				return
			case ev.Vcr != nil:
				lastOK, paused = ev.Vcr, ev.Vcr.Verb == "pause"
				switch ev.Vcr.Verb {
				case "pause":
					if err := c.ResumePlay(); err != nil {
						res.err = err
						done <- res
						return
					}
				case "resume":
					resumed <- struct{}{}
				}
			case ev.VcrReject != nil:
				time.Sleep(time.Duration(ev.VcrReject.RetryAfterMillis) * time.Millisecond)
				if err := c.ResumePlay(); err != nil {
					res.err = err
					done <- res
					return
				}
			case ev.Hiccup != nil:
				res.hiccups = append(res.hiccups, *ev.Hiccup)
			default:
				if paused {
					res.err = fmt.Errorf("track %d arrived between the pause's VCR-OK and the resume's", ev.Track)
				} else if lastOK != nil && ev.Track != lastOK.NextTrack {
					res.err = fmt.Errorf("first track after the %s VCR-OK is %d, want its NextTrack %d", lastOK.Verb, ev.Track, lastOK.NextTrack)
				}
				if res.err != nil {
					done <- res
					return
				}
				lastOK = nil
				res.tracks[ev.Track] = ev.Data
			}
		}
	}()

	// Play the stream a few tracks in, then pause it mid-flight with one
	// cycle stepping while the verb is in flight; the rest of the VCR
	// round-trip needs no cycles (verbs are handled on the session's
	// reader).
	for i := 0; ; i++ {
		next, _, live := r.ns.StreamProgress(ok.StreamID)
		if !live {
			t.Fatal("stream finished before the pause point")
		}
		if next >= 5 {
			break
		}
		if i >= 100 {
			t.Fatalf("stream stuck at track %d", next)
		}
		if err := r.ns.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := r.ns.StepCycle(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-resumed:
	case <-time.After(20 * time.Second):
		t.Fatal("pause/resume handshake never completed")
	case res := <-done:
		t.Fatalf("session ended before the resume: bye %q, err %v", res.bye, res.err)
	}
	r.stepUntilIdle(t, 600)
	res := <-done
	if res.bye != "finished" {
		t.Fatalf("bye = %q (err %v), want finished", res.bye, res.err)
	}
	verifyBitExact(t, r, r.titles[0], res)
	if len(res.hiccups) != 0 {
		t.Errorf("pause/resume caused %d hiccups: %v", len(res.hiccups), res.hiccups)
	}
}

// TestSessionsCountsSessionsNotAliases pins Sessions() and the
// net_sessions_active gauge across a resume: the resumed session moves to
// its new stream ID but stays one session — the figure the coordinator's
// least-loaded routing and the drain check read — from the VCR-OK
// through every cycle to its BYE. net_sessions_paused reads 1 only while
// the session is paused.
func TestSessionsCountsSessionsNotAliases(t *testing.T) {
	cfg := defaultRig()
	cfg.groups = 6
	r := newLoopRig(t, "sr", cfg)
	check := func(when string, want, wantPaused int) {
		t.Helper()
		if got := r.ns.Sessions(); got != want {
			t.Fatalf("%s: Sessions() = %d, want %d", when, got, want)
		}
		if got := r.srv.Metrics().Gauge("net_sessions_active").Value(); got != int64(want) {
			t.Fatalf("%s: net_sessions_active = %d, want %d", when, got, want)
		}
		if got := r.srv.Metrics().Gauge("net_sessions_paused").Value(); got != int64(wantPaused) {
			t.Fatalf("%s: net_sessions_paused = %d, want %d", when, got, wantPaused)
		}
	}

	c, _ := r.connect(t, r.titles[0])
	defer c.Close()
	check("after admit", 1, 0)
	for i := 0; i < 3; i++ {
		if err := r.ns.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Pause(); err != nil {
		t.Fatal(err)
	}
	if ev := waitVcr(t, c); ev.Vcr == nil || ev.Vcr.Verb != "pause" {
		t.Fatalf("pause not acknowledged: %+v", ev)
	}
	check("paused", 1, 1)
	if err := c.ResumePlay(); err != nil {
		t.Fatal(err)
	}
	ev := waitVcr(t, c)
	if ev.Vcr == nil || ev.Vcr.Verb != "resume" {
		t.Fatalf("resume not acknowledged: %+v", ev)
	}
	check("after the resume VCR-OK", 1, 0)

	done := make(chan *clientResult, 1)
	go func() { done <- consume(c) }()
	for cycle := 0; ; cycle++ {
		if cycle >= 200 {
			t.Fatal("resumed stream still live after 200 cycles")
		}
		if err := r.ns.StepCycle(); err != nil {
			t.Fatal(err)
		}
		// A stream that ended this cycle stays visible, fully played,
		// until the next Step.
		if next, total, live := r.ns.StreamProgress(ev.Vcr.StreamID); !live || next >= total {
			break
		}
		check(fmt.Sprintf("cycle %d after resume", cycle), 1, 0)
	}
	check("after the final cycle", 0, 0)
	if res := <-done; res.bye != "finished" {
		t.Fatalf("bye = %q (err %v), want finished", res.bye, res.err)
	}
	check("after the BYE", 0, 0)
}

// TestRewindWhileDrainingKeepsPlaying: a draining node refuses a playing
// session's REWIND before touching its stream, as it refuses PAUSE, so
// the session plays on bit-exact to its BYE and the drain completes with
// every arena buffer home. A rewind that cancelled first would leave the
// session parked with no stream, and the drain would never end.
func TestRewindWhileDrainingKeepsPlaying(t *testing.T) {
	cfg := defaultRig()
	cfg.groups = 6
	r := newLoopRig(t, "sr", cfg)

	c, _ := r.connect(t, r.titles[0])
	defer c.Close()
	rejected := make(chan Reject, 1)
	done := make(chan *clientResult, 1)
	go func() {
		res := &clientResult{tracks: map[int][]byte{}}
		defer func() { done <- res }()
		for {
			ev, err := c.Next()
			switch {
			case err != nil:
				res.err = err
				return
			case ev.Bye != nil:
				res.bye = ev.Bye.Reason
				return
			case ev.Vcr != nil:
				res.err = fmt.Errorf("rewind granted while draining: %+v", *ev.Vcr)
				return
			case ev.VcrReject != nil:
				rejected <- *ev.VcrReject
			case ev.Hiccup != nil:
				res.hiccups = append(res.hiccups, *ev.Hiccup)
			default:
				res.tracks[ev.Track] = ev.Data
			}
		}
	}()

	for i := 0; i < 2; i++ {
		if err := r.ns.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
	r.ns.BeginDrain()
	if err := c.Rewind(0); err != nil {
		t.Fatal(err)
	}
	select {
	case rej := <-rejected:
		if rej.Reason != "draining" {
			t.Fatalf("rewind refused with %q, want draining", rej.Reason)
		}
	case res := <-done:
		t.Fatalf("session ended before the rewind's reply: bye %q, err %v", res.bye, res.err)
	case <-time.After(20 * time.Second):
		t.Fatal("no reply to the rewind")
	}

	for i := 0; i < 400 && !r.ns.Drained(); i++ {
		if err := r.ns.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
	if !r.ns.Drained() {
		t.Fatalf("drain did not complete: %d sessions, %d live streams", r.ns.Sessions(), r.srv.Engine().Active())
	}
	res := <-done
	if res.bye != "finished" {
		t.Fatalf("bye = %q (err %v), want finished", res.bye, res.err)
	}
	verifyBitExact(t, r, r.titles[0], res)
	r.stepUntilBuffersHome(t)
}

// TestPausedRewindPastEndClamps: a paused session rewound past the
// title's end is held at the last track, so the resume re-admits at the
// last group's floor and plays the title out bit-exact from there.
func TestPausedRewindPastEndClamps(t *testing.T) {
	cfg := defaultRig()
	cfg.groups = 6
	r := newLoopRig(t, "sr", cfg)
	width := cfg.cluster - 1
	last := r.trackCount - 1
	floor := last / width * width

	c, _ := r.connect(t, r.titles[0])
	defer c.Close()
	for i := 0; i < 3; i++ {
		if err := r.ns.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Pause(); err != nil {
		t.Fatal(err)
	}
	if ev := waitVcr(t, c); ev.Vcr == nil || ev.Vcr.Verb != "pause" {
		t.Fatalf("pause not acknowledged: %+v", ev)
	}
	if err := c.Rewind(1 << 20); err != nil {
		t.Fatal(err)
	}
	if ev := waitVcr(t, c); ev.Vcr == nil || ev.Vcr.Verb != "rewind" || ev.Vcr.NextTrack != last {
		t.Fatalf("paused rewind past the end: %+v / %+v, want a rewind ack at track %d", ev.Vcr, ev.VcrReject, last)
	}
	if err := c.ResumePlay(); err != nil {
		t.Fatal(err)
	}
	if ev := waitVcr(t, c); ev.Vcr == nil || ev.Vcr.Verb != "resume" || ev.Vcr.NextTrack != floor {
		t.Fatalf("resume after the rewind: %+v / %+v, want a resume ack at track %d", ev.Vcr, ev.VcrReject, floor)
	}

	done := make(chan *clientResult, 1)
	go func() { done <- consume(c) }()
	r.stepUntilIdle(t, 200)
	res := <-done
	if res.err != nil || res.bye != "finished" {
		t.Fatalf("bye = %q (err %v), want finished", res.bye, res.err)
	}
	if len(res.hiccups) != 0 {
		t.Errorf("hiccups after the resume: %v", res.hiccups)
	}
	content := workload.SyntheticContent(r.titles[0], r.titleSize)
	for track := floor; track <= last; track++ {
		data, ok := res.tracks[track]
		if !ok {
			t.Errorf("track %d not delivered after the resume", track)
			continue
		}
		if err := trace.CheckTrack(content, r.trackSize, track, data); err != nil {
			t.Error(err)
		}
	}
}
