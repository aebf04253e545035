package netserve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ftmm/internal/sched"
)

// pacerSpeedup fast-forwards the pacer tests' wall clock: the rig's
// 0.8 s Streaming RAID cycle becomes 20 ms.
const pacerSpeedup = 40

// logSink collects Logf lines.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// cycles returns the cycle=N of every line that contains substr.
func (l *logSink) cycles(substr string) []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []int
	for _, line := range l.lines {
		if _, rest, ok := strings.Cut(line, " cycle="); ok && strings.Contains(line, substr) {
			var n int
			if _, err := fmt.Sscanf(rest, "%d:", &n); err == nil {
				out = append(out, n)
			}
		}
	}
	return out
}

// count returns how many lines contain substr.
func (l *logSink) count(substr string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			n++
		}
	}
	return n
}

// tickClock paces on the wall clock, fast-forwarded by pacerSpeedup,
// and records every Tick it releases, so a test can tell the pacer's
// own lateness from the host's.
type tickClock struct {
	Clock
	mu    sync.Mutex
	ticks []Tick
}

func (c *tickClock) Pace(d time.Duration, restart bool, stop <-chan struct{}) (Tick, bool) {
	tick, ok := c.Clock.Pace(d, restart, stop)
	if ok {
		c.mu.Lock()
		c.ticks = append(c.ticks, tick)
		c.mu.Unlock()
	}
	return tick, ok
}

func (c *tickClock) released() []Tick {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.ticks)
}

// pacedRig is an SR rig paced by a tickClock whose report hook stands
// in for a cycle's work: it sleeps work per cycle, or stall(n) cycles in
// the n-th stepped cycle (counting from 1) when that is nonzero. starts
// holds each cycle's hook time, which trails the cycle's release by one
// engine Step, and took how long the hook's work really ran; starts[i],
// took[i], the clock's i-th tick and engine cycle i are the same cycle.
type pacedRig struct {
	*loopRig
	period time.Duration
	log    *logSink
	clock  *tickClock

	mu     sync.Mutex
	starts []time.Time
	took   []time.Duration
}

// work is a healthy cycle's work in the paced rig.
const work = 2 * time.Millisecond

func newPacedRig(t *testing.T, groups int, stall func(n int) float64) *pacedRig {
	t.Helper()
	cfg := defaultRig()
	cfg.groups = groups
	log := &logSink{}
	clock := &tickClock{Clock: WallClock(pacerSpeedup)}
	cfg.ns = Options{Clock: clock, Logf: log.logf}
	r := &pacedRig{loopRig: newLoopRig(t, "sr", cfg), log: log, clock: clock}
	r.period = r.ns.CycleTime() / pacerSpeedup
	// Set before the first admission, so before the pacer's first cycle.
	r.ns.reportHook = func(*sched.CycleReport) {
		r.mu.Lock()
		r.starts = append(r.starts, time.Now())
		n := len(r.starts)
		r.mu.Unlock()
		d := work
		if stall != nil && stall(n) > 0 {
			d = time.Duration(stall(n) * float64(r.period))
		}
		start := time.Now()
		time.Sleep(d)
		r.mu.Lock()
		r.took = append(r.took, time.Since(start))
		r.mu.Unlock()
	}
	return r
}

// play admits one session on the first title, reads it to its BYE, and
// checks it arrived bit-exact and whole. The BYE is staged inside the
// session's last cycle, so play then waits for that cycle to be
// recorded: afterwards every stepped cycle is on /cyclez and in the
// counters.
func (r *pacedRig) play(t *testing.T) {
	t.Helper()
	c, _ := r.connect(t, r.titles[0])
	defer c.Close()
	res := consume(c)
	verifyBitExact(t, r.loopRig, r.titles[0], res)
	if len(res.hiccups) != 0 {
		t.Errorf("hiccups on a healthy farm: %v", res.hiccups)
	}
	if res.bye != "finished" {
		t.Errorf("bye = %q, want finished", res.bye)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		ring := r.ns.recentCycles()
		if n := len(r.stepped()); len(ring) > 0 && ring[len(ring)-1].Cycle == n-1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("last of %d stepped cycles never reached /cyclez", len(r.stepped()))
		}
	}
}

func (r *pacedRig) stepped() []time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.starts)
}

// hostDelayed reports whether cycle i could overrun through no fault of
// the pacer: the host released it late, or stretched the hook's work,
// until less than a cycle's work was left before the next deadline.
func (r *pacedRig) hostDelayed(i int) bool {
	r.mu.Lock()
	took := r.took[i]
	r.mu.Unlock()
	return r.clock.released()[i].Late+took >= r.period-work
}

// checkOverruns fails the test unless every cycle_overruns the rig
// counted beyond induced is excused: as many cycles were host-delayed.
func (r *pacedRig) checkOverruns(t *testing.T, induced int) {
	t.Helper()
	excused := 0
	for i := range r.stepped() {
		if r.hostDelayed(i) {
			excused++
		}
	}
	if got := r.srv.Metrics().Counter("cycle_overruns").Value(); got < int64(induced) || got > int64(induced+excused) {
		t.Errorf("cycle_overruns = %d, want %d plus at most the %d cycles the host delayed", got, induced, excused)
	}
}

// median returns the median of ds, which it sorts.
func median(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// TestPacerHoldsDeadlineGrid pins the absolute deadline grid: with 2 ms
// of work per cycle, cycle n starts at t0 + n·T_cyc, where t0 is the
// grid's origin. The origin is read off the pacer's own stepped cycles:
// cycle n's offset is its start minus n·T_cyc, which is constant on one
// grid. A release a whole cycle late moves the grid, as the pacer's
// policy says it must when the host stalls it, so the stepped cycles are
// judged per grid: between moves, the median offset of a grid's last ten
// cycles sits within T_cyc/4 of the median of its first ten. A pacer
// that re-arms a relative timer after the work runs at T_cyc + work and
// drifts 2 ms a cycle, 20 ms or more across any grid judged. Medians of
// ten keep one scheduling hiccup on a busy machine from failing the
// test; drift moves them all.
func TestPacerHoldsDeadlineGrid(t *testing.T) {
	const cycles, judged = 110, 20
	r := newPacedRig(t, cycles, nil)
	r.play(t)
	starts, ticks := r.stepped(), r.clock.released()
	if len(starts) < cycles || len(ticks) != len(starts) {
		t.Fatalf("%d cycles stepped on %d ticks, want at least %d", len(starts), len(ticks), cycles)
	}
	offset := func(n int) time.Duration { return starts[n].Sub(starts[0]) - time.Duration(n)*r.period }
	longest := 0
	for from := 0; from < len(starts); {
		to := from + 1
		for to < len(starts) && !ticks[to].Moved {
			to++
		}
		longest = max(longest, to-from)
		if to-from >= judged {
			var first, last []time.Duration
			for n := from; n < from+10; n++ {
				first = append(first, offset(n))
			}
			for n := to - 10; n < to; n++ {
				last = append(last, offset(n))
			}
			if drift := median(last) - median(first); drift < -r.period/4 || drift > r.period/4 {
				t.Errorf("cycles %d–%d on one grid drift a median %v (T_cyc %v, bound T_cyc/4)", from, to-1, drift, r.period)
			}
		}
		from = to
	}
	if longest < judged {
		t.Fatalf("the grid moved so often no %d cycles ran on one (longest %d)", judged, longest)
	}
	r.checkOverruns(t, 0)
}

// TestPacerOverrun pins the overrun policy. One cycle's work runs past
// the next deadline: it counts one overrun, and the next cycle starts at
// once. Half a cycle behind, that catch-up keeps the grid; a whole cycle
// or more behind, the grid's start moves to the late release instead,
// so no second cycle is fired back to back. Either way the cycle after
// meets its deadline again, each transition logs one line, and the
// session plays out bit-exact. Any other overrun must be the host's (a
// host-delayed cycle), and so must any other grid move (a release a
// whole cycle late on /cyclez, which the stall alone does not cause
// under catch-up).
func TestPacerOverrun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stall float64 // the 10th cycle's work, in cycles
		moved bool    // whether the 11th cycle moves the grid
	}{
		{"catch-up", 1.5, false},
		{"grid-move", 2.5, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newPacedRig(t, 30, func(n int) float64 {
				if n == 10 {
					return tc.stall
				}
				return 0
			})
			r.play(t)
			// The ring's cycle 10 (engine cycle 9) is the one that
			// overran, and cycle 10 the one released late after it.
			ring := r.ns.recentCycles()
			if ring[0].Cycle != 0 {
				t.Fatalf("/cyclez starts at cycle %d, want all %d cycles", ring[0].Cycle, len(ring))
			}
			overruns, episodes := 0, 0
			for i, c := range ring {
				if c.SlackUs != 0 {
					continue
				}
				overruns++
				if i == 0 || ring[i-1].SlackUs != 0 {
					episodes++
				}
				if c.Cycle != 9 && !r.hostDelayed(c.Cycle) {
					t.Errorf("cycle %d overran, released %d µs late: not the induced overrun, nor the host's", c.Cycle, c.LateUs)
				}
			}
			if ring[9].SlackUs != 0 {
				t.Errorf("the stalled cycle recorded slack %d µs, want an overrun", ring[9].SlackUs)
			}
			if got := r.srv.Metrics().Counter("cycle_overruns").Value(); got != int64(overruns) {
				t.Errorf("cycle_overruns = %d, /cyclez shows %d", got, overruns)
			}
			if got := r.log.count("overran the next deadline"); got != episodes {
				t.Errorf("%d overrun log lines for %d late episodes", got, episodes)
			}
			moves := r.log.cycles("deadline grid moved")
			if tc.moved && !slices.Contains(moves, 10) {
				t.Errorf("grid moves logged at cycles %v, want one at cycle 10", moves)
			}
			for _, n := range moves {
				if late := time.Duration(ring[n].LateUs) * time.Microsecond; late < r.period {
					t.Errorf("grid moved at cycle %d, released %v late: less than a whole cycle", n, late)
				}
			}
		})
	}
}

// TestPacerWakeups counts the pacer's timer: one Pace — one timer fire,
// as no cycle but a host-delayed one overruns — per stepped cycle, and
// none while the node idles. The /cyclez ring holds the last 64 of those
// cycles, each released at or after its deadline.
func TestPacerWakeups(t *testing.T) {
	r := newPacedRig(t, 70, nil)
	r.play(t)
	paces := int64(len(r.clock.released()))
	if stepped := len(r.stepped()); paces != int64(stepped) {
		t.Fatalf("%d Pace calls for %d stepped cycles", paces, stepped)
	}
	r.checkOverruns(t, 0)
	time.Sleep(5 * r.period)
	if got := int64(len(r.clock.released())); got != paces {
		t.Errorf("%d Pace calls while the node idled for 5 cycles", got-paces)
	}

	ring := r.ns.recentCycles()
	if len(ring) != cycleRingLen {
		t.Fatalf("/cyclez holds %d cycles after %d paced, want %d", len(ring), paces, cycleRingLen)
	}
	last := ring[len(ring)-1]
	if last.Cycle != int(paces)-1 {
		t.Errorf("newest /cyclez entry is cycle %d, want %d", last.Cycle, paces-1)
	}
	for i, c := range ring {
		if i > 0 && c.Cycle != ring[i-1].Cycle+1 {
			t.Fatalf("/cyclez out of order: cycle %d after %d", c.Cycle, ring[i-1].Cycle)
		}
		if c.SlackUs <= 0 && !r.hostDelayed(c.Cycle) || c.StepUs < 0 || c.LateUs < 0 {
			t.Errorf("/cyclez entry %+v", c)
		}
	}
	if ring[0].Sessions != 1 {
		t.Errorf("/cyclez sessions = %d mid-session, want 1", ring[0].Sessions)
	}
	if h := r.srv.MetricsSnapshot().Histograms["cycle_slack_us"]; h.Count != paces || h.P50 <= 0 {
		t.Errorf("cycle_slack_us count %d p50 %d, want %d cycles with slack", h.Count, h.P50, paces)
	}
}

// TestPacedRebuildAbortKeepsStepping: a second drive failure in the
// cluster an online rebuild is restoring abandons the rebuild, and the
// pacer keeps stepping. The session hiccups on that cluster's groups
// only, ends with BYE finished, and every buffer returns to the arena.
func TestPacedRebuildAbortKeepsStepping(t *testing.T) {
	cfg := defaultRig()
	cfg.groups = 12
	log := &logSink{}
	cfg.ns = Options{Clock: WallClock(pacerSpeedup), Logf: log.logf}
	r := newLoopRig(t, "sr", cfg)
	// Drives 1 and 2 are both in cluster 0 (drives 0–3). One restored
	// track costs C-1 = 3 reads, so the rebuild restores one track a
	// cycle and is still running when drive 2 fails.
	r.ns.ScheduleFailure(2, 1)
	r.ns.ScheduleRebuild(3, 1, 3)
	r.ns.ScheduleFailure(4, 2)

	// A stalled pacer shows as a read timeout, not a hung test.
	c, err := Dial(r.ns.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Admit(r.titles[0]); err != nil {
		t.Fatal(err)
	}
	res := consume(c)
	verifyBitExact(t, r, r.titles[0], res)
	if res.bye != "finished" {
		t.Errorf("bye = %q, want finished", res.bye)
	}
	r.ns.mu.Lock() // admission placed the title under it
	obj, err := r.srv.Catalog().Object(r.titles[0])
	r.ns.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.hiccups) == 0 {
		t.Error("no hiccups with two drives of cluster 0 short")
	}
	for _, h := range res.hiccups {
		loc, err := obj.DataLocation(h.Track)
		if err != nil {
			t.Fatal(err)
		}
		if loc.Disk/cfg.cluster != 0 {
			t.Errorf("hiccup on track %d, on drive %d outside cluster 0", h.Track, loc.Disk)
		}
	}
	if got := r.srv.Metrics().Counter("rebuild_aborted").Value(); got != 1 {
		t.Errorf("rebuild_aborted = %d, want 1", got)
	}
	if got := log.count("online rebuild of drive 1 abandoned"); got != 1 {
		t.Errorf("%d abort log lines, want 1", got)
	}
	if err := r.ns.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	r.stepUntilBuffersHome(t)
}

// waitLogged waits, for at most ten seconds, for a log line containing
// substr.
func waitLogged(t *testing.T, log *logSink, substr string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); log.count(substr) == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no %q logged in 10 s", substr)
		}
	}
}

// TestPacedRebuildOutlivesSessions: an online rebuild keeps the pacer
// stepping after the last session has ended, so the rebuild ends and
// the drive log says restored with no session left to bring the cycles
// back. A scheduled fault still waits for service; a running rebuild
// does not.
func TestPacedRebuildOutlivesSessions(t *testing.T) {
	cfg := defaultRig()
	cfg.titles, cfg.groups = 4, 12
	log := &logSink{}
	cfg.ns = Options{Clock: WallClock(pacerSpeedup), Logf: log.logf}
	r := newLoopRig(t, "sr", cfg)
	// Staged, the four titles put a track of each of cluster 0's 24
	// groups on drive 1, and one restored track costs C-1 = 3 reads: the
	// rebuild restores a track a cycle and ends well after the 12-group
	// title does.
	r.ns.mu.Lock()
	for _, title := range r.titles {
		id, _, err := r.srv.Request(title)
		if err != nil {
			t.Fatal(err)
		}
		_ = r.srv.Cancel(id)
	}
	r.ns.mu.Unlock()
	r.ns.ScheduleFailure(2, 1)
	r.ns.ScheduleRebuild(3, 1, 3)

	c, _ := r.connect(t, r.titles[0])
	res := consume(c)
	c.Close()
	verifyBitExact(t, r, r.titles[0], res)
	r.ns.mu.Lock()
	left := r.srv.RebuildRemaining()
	r.ns.mu.Unlock()
	if left == 0 {
		t.Fatal("the rebuild ended with the session; nothing is left to test")
	}
	waitLogged(t, log, "drive 1: restored")
}

// TestFarmOwnerRace runs, under the race detector, what the rule that
// one owner uses a server's farm and buffer pool must survive. While
// the wall-clock pacer steps, two sessions are admitted, the second for
// a title nothing has staged yet, so its admission writes tracks onto
// the farm the cycle reads; /statusz and /admitz (which stages a third
// title) are polled from their own goroutines; and a drive fails and is
// rebuilt online mid-stream. Every call into the server is made under
// the NetServer's lock, and the views a cycle reads reach the socket
// writers through their send queues.
func TestFarmOwnerRace(t *testing.T) {
	cfg := defaultRig()
	cfg.titles, cfg.groups = 3, 8
	log := &logSink{}
	cfg.ns = Options{Clock: WallClock(pacerSpeedup), Logf: log.logf}
	r := newLoopRig(t, "sr", cfg)
	r.ns.ScheduleFailure(3, 1)
	r.ns.ScheduleRebuild(5, 1, 3)
	hs := httptest.NewServer(r.ns.Handler())
	defer hs.Close()

	stop := make(chan struct{})
	var polls sync.WaitGroup
	for _, poll := range []struct{ method, path string }{
		{http.MethodGet, "/statusz"},
		{http.MethodPost, "/admitz?title=" + r.titles[2]},
	} {
		polls.Add(1)
		go func() {
			defer polls.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
				}
				req, _ := http.NewRequest(poll.method, hs.URL+poll.path, nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("%s: status %d", poll.path, resp.StatusCode)
					return
				}
			}
		}()
	}

	results := make([]*clientResult, 2)
	var sessions sync.WaitGroup
	for i, title := range r.titles[:2] {
		if i > 0 {
			time.Sleep(3 * r.ns.CycleTime() / pacerSpeedup) // three paced cycles into the first
		}
		c, _ := r.connect(t, title)
		sessions.Add(1)
		go func() {
			defer sessions.Done()
			defer c.Close()
			results[i] = consume(c)
		}()
	}
	sessions.Wait()
	close(stop)
	polls.Wait()
	for i, res := range results {
		verifyBitExact(t, r, r.titles[i], res)
	}
	if got := log.count("drive 1: fail"); got != 1 {
		t.Errorf("%d drive failures logged, want 1", got)
	}
	waitLogged(t, log, "drive 1: restored")
	if err := r.ns.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	r.stepUntilBuffersHome(t)
}
