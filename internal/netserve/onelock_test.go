package netserve

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// TestOneLockGaugeMatchesTable pins the node's one-lock contract: every
// path that changes the session table sets net_sessions_active in the
// same hold of ns.mu, so no reader holding the lock ever sees the two
// disagree. 64 sessions play on a manual clock. Half hang up on the
// penultimate burst, so their teardown lands on the cycle that stages
// their last burst and its BYE; the other half PAUSE, RESUME and FF
// through the same cycles. After every StepCycle the gauge and the
// table's length are read together under ns.mu and must be equal; after
// the drain both are 0 and every arena buffer is home.
func TestOneLockGaugeMatchesTable(t *testing.T) {
	const sessions = 64
	const groups = 12
	r := newLoopRig(t, "sr", rigConfig{
		disks: 8, cluster: 4, k: 2, titles: 4, groups: groups,
		slotsPerDisk: 2 * sessions,
		ns:           Options{SendQueue: 2 * groups, Logf: t.Logf},
	})
	gauge := r.srv.Metrics().Gauge("net_sessions_active")
	check := func(when string) int {
		t.Helper()
		r.ns.mu.Lock()
		g, n := gauge.Value(), len(r.ns.sessions)
		r.ns.mu.Unlock()
		if g != int64(n) {
			t.Fatalf("%s: net_sessions_active %d, table holds %d", when, g, n)
		}
		return n
	}
	// The test keeps in step with its clients: it steps again only when
	// every playing session's client has read the tracks staged for it,
	// so a hang-up or verb meets the next cycle, not a stream the server
	// already played out.
	prog := &readProgress{last: map[int]int{}}
	caughtUp := func() bool {
		r.ns.mu.Lock()
		defer r.ns.mu.Unlock()
		prog.mu.Lock()
		defer prog.mu.Unlock()
		for id, sess := range r.ns.sessions {
			next, _, ok := r.srv.StreamProgress(id)
			if last, seen := prog.last[id]; ok && !sess.paused && next > 0 && (!seen || last < next-1) {
				return false
			}
		}
		return true
	}

	errs := make(chan error, sessions)
	var wg sync.WaitGroup
	for i := range sessions {
		c, ok := r.connect(t, r.titles[i%len(r.titles)])
		wg.Add(1)
		if i%2 == 0 {
			go func() {
				defer wg.Done()
				errs <- hangUpBeforeLastBurst(c, ok, prog)
			}()
		} else {
			go func() {
				defer wg.Done()
				defer c.Close()
				errs <- pauseResumeFF(c, ok.StreamID, prog)
			}()
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	for cycle := 0; ; cycle++ {
		select {
		case <-done:
		default:
			if cycle == 2000 {
				t.Fatal("clients still playing after 2000 cycles")
			}
			if err := r.ns.StepCycle(); err != nil {
				t.Fatal(err)
			}
			if check(fmt.Sprintf("cycle %d", cycle)) == 0 {
				// Every session has left the table, so no client needs
				// another cycle: wait for their teardown, which an empty
				// cycle loop would outrun on a busy host.
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("clients still running 10 s after the last session left")
				}
				continue
			}
			for deadline := time.Now().Add(10 * time.Second); !caughtUp(); time.Sleep(50 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("cycle %d: clients not caught up after 10 s", cycle)
				}
			}
			continue
		}
		break
	}
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	m := r.srv.Metrics()
	for _, verb := range []string{"net_vcr_pauses", "net_vcr_resumes"} {
		if n := m.Counter(verb).Value(); n != sessions/2 {
			t.Errorf("%s = %d, want one per VCR client (%d)", verb, n, sessions/2)
		}
	}

	r.ns.BeginDrain()
	for i := 0; !r.ns.Drained(); i++ {
		if i == 2000 {
			t.Fatalf("drain incomplete after 2000 cycles: %d sessions", check("drain"))
		}
		if err := r.ns.StepCycle(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("drain cycle %d", i))
		time.Sleep(100 * time.Microsecond)
	}
	if n := check("drained"); n != 0 {
		t.Fatalf("drained with %d sessions in the table", n)
	}
	r.stepUntilBuffersHome(t)
}

// readProgress records, per stream ID, the last track its client has
// read.
type readProgress struct {
	mu   sync.Mutex
	last map[int]int
}

func (p *readProgress) set(id, track int) {
	p.mu.Lock()
	p.last[id] = track
	p.mu.Unlock()
}

// hangUpBeforeLastBurst reads a session until a track of its second to
// last burst arrives, then hangs up.
func hangUpBeforeLastBurst(c *Client, ok AdmitOK, prog *readProgress) error {
	defer c.Close()
	for {
		ev, err := c.Next()
		if err != nil {
			return fmt.Errorf("hang-up client: %w", err)
		}
		if ev.Bye != nil {
			return fmt.Errorf("hang-up client: bye %q before its last burst", ev.Bye.Reason)
		}
		if ev.Hiccup == nil && ev.Track >= ok.Tracks-2*ok.Burst {
			prog.set(ok.StreamID, math.MaxInt) // no longer waited for
			return nil
		}
		prog.set(ok.StreamID, ev.Track)
	}
}

// pauseResumeFF plays a session to its BYE, pausing on the first track,
// resuming on the pause's ack (again on a refusal) and asking for FF 2
// on the resume's ack.
func pauseResumeFF(c *Client, id int, prog *readProgress) error {
	paused, asked := false, false
	for {
		ev, err := c.Next()
		if err != nil {
			return fmt.Errorf("VCR client: %w", err)
		}
		switch {
		case ev.Bye != nil:
			if ev.Bye.Reason != "finished" {
				return fmt.Errorf("VCR client: bye %q", ev.Bye.Reason)
			}
			return nil
		case ev.Hiccup != nil:
		case ev.VcrReject != nil:
			if paused {
				err = c.ResumePlay()
			}
		case ev.Vcr == nil:
			prog.set(id, ev.Track)
			if !asked {
				asked = true
				err = c.Pause()
			}
		case ev.Vcr.Verb == "pause":
			paused = true
			err = c.ResumePlay()
		case ev.Vcr.Verb == "resume":
			// The resumed stream's first track is the ack's NextTrack.
			paused = false
			id = ev.Vcr.StreamID
			prog.set(id, ev.Vcr.NextTrack-1)
			err = c.FastForward(2)
		}
		if err != nil {
			return fmt.Errorf("VCR client: %w", err)
		}
	}
}
