package netserve

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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

// pacedRig is an SR rig paced by clock whose report hook stands in for
// a cycle's work: it sleeps 2 ms per cycle, or stall(n) cycles in the
// n-th stepped cycle (counting from 1) when that is nonzero. starts
// holds each cycle's hook time, which trails the cycle's start by one
// engine Step.
type pacedRig struct {
	*loopRig
	period time.Duration
	log    *logSink

	mu     sync.Mutex
	starts []time.Time
}

func newPacedRig(t *testing.T, clock Clock, groups int, stall func(n int) float64) *pacedRig {
	t.Helper()
	cfg := defaultRig()
	cfg.groups = groups
	log := &logSink{}
	cfg.ns = Options{Clock: clock, Logf: log.logf}
	r := &pacedRig{loopRig: newLoopRig(t, "sr", cfg), log: log}
	r.period = r.ns.CycleTime() / pacerSpeedup
	// Set before the first admission, so before the pacer's first cycle.
	r.ns.reportHook = func(*sched.CycleReport) {
		r.mu.Lock()
		r.starts = append(r.starts, time.Now())
		n := len(r.starts)
		r.mu.Unlock()
		d := 2 * time.Millisecond
		if stall != nil && stall(n) > 0 {
			d = time.Duration(stall(n) * float64(r.period))
		}
		time.Sleep(d)
	}
	return r
}

// play admits one session on the first title, reads it to its BYE, and
// checks it arrived bit-exact and whole. It returns when the session
// was admitted: the pacer leaves idle then, which starts its grid.
func (r *pacedRig) play(t *testing.T) time.Time {
	t.Helper()
	c, _ := r.connect(t, r.titles[0])
	admitted := time.Now()
	defer c.Close()
	res := consume(c)
	verifyBitExact(t, r.loopRig, r.titles[0], res)
	if len(res.hiccups) != 0 {
		t.Errorf("hiccups on a healthy farm: %v", res.hiccups)
	}
	if res.bye != "finished" {
		t.Errorf("bye = %q, want finished", res.bye)
	}
	return admitted
}

func (r *pacedRig) stepped() []time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.starts)
}

// TestPacerHoldsDeadlineGrid pins the absolute deadline grid: with 2 ms
// of work per cycle, cycle n still starts at t0 + n·T_cyc, where t0 is
// the admission that woke the pacer. A pacer that re-arms a relative
// timer after the work runs at T_cyc + work and is ≥ 200 ms late by
// cycle 100. The ten cycles up to 100 are judged by their median, so a
// single scheduling hiccup on a busy machine cannot fail the test; drift
// moves them all.
func TestPacerHoldsDeadlineGrid(t *testing.T) {
	const upTo = 100
	r := newPacedRig(t, WallClock(pacerSpeedup), upTo+10, nil)
	t0 := r.play(t)
	starts := r.stepped()
	if len(starts) < upTo {
		t.Fatalf("%d cycles stepped, want at least %d", len(starts), upTo)
	}
	var late []time.Duration
	for n := upTo - 9; n <= upTo; n++ {
		late = append(late, starts[n-1].Sub(t0.Add(time.Duration(n)*r.period)))
	}
	slices.Sort(late)
	if med := late[len(late)/2]; med < -r.period/4 || med > r.period/4 {
		t.Fatalf("cycles %d–%d start a median %v off their deadlines (T_cyc %v, bound T_cyc/4); offsets %v",
			upTo-9, upTo, med, r.period, late)
	}
	if got := r.srv.Metrics().Counter("cycle_overruns").Value(); got != 0 {
		t.Errorf("cycle_overruns = %d with 2 ms of work in a %v cycle", got, r.period)
	}
}

// TestPacerOverrun pins the overrun policy. One cycle's work runs past
// the next deadline: it counts one overrun, and the next cycle starts at
// once. Half a cycle behind, that catch-up keeps the grid; a whole cycle
// or more behind, the grid's start moves to the late release instead,
// so no second cycle is fired back to back. Either way the cycle after
// meets its deadline again, each transition logs one line, and the
// session plays out bit-exact.
func TestPacerOverrun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stall float64 // the 10th cycle's work, in cycles
		moves int
	}{
		{"catch-up", 1.5, 0},
		{"grid-move", 2.5, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newPacedRig(t, WallClock(pacerSpeedup), 30, func(n int) float64 {
				if n == 10 {
					return tc.stall
				}
				return 0
			})
			r.play(t)
			if got := r.srv.Metrics().Counter("cycle_overruns").Value(); got != 1 {
				t.Errorf("cycle_overruns = %d, want 1", got)
			}
			if got := r.log.count("overran the next deadline"); got != 1 {
				t.Errorf("%d overrun log lines, want 1", got)
			}
			if got := r.log.count("deadline grid moved"); got != tc.moves {
				t.Errorf("%d grid moves logged, want %d", got, tc.moves)
			}
			// The ring's cycle 10 (engine cycle 9) is the one that overran.
			for _, c := range r.ns.recentCycles() {
				if c.Cycle == 9 && c.SlackUs != 0 {
					t.Errorf("overrunning cycle recorded slack %d µs, want 0", c.SlackUs)
				}
			}
		})
	}
}

// countingClock counts the pacer's Pace calls on the clock it wraps.
type countingClock struct {
	Clock
	paces atomic.Int64
}

func (c *countingClock) Pace(d time.Duration, restart bool, stop <-chan struct{}) (Tick, bool) {
	c.paces.Add(1)
	return c.Clock.Pace(d, restart, stop)
}

// TestPacerWakeups counts the pacer's timer: one Pace — one timer fire,
// as no cycle overruns — per stepped cycle, and none while the node
// idles. The /cyclez ring holds the last 64 of those cycles.
func TestPacerWakeups(t *testing.T) {
	clock := &countingClock{Clock: WallClock(pacerSpeedup)}
	r := newPacedRig(t, clock, 70, nil)
	r.play(t)
	// The BYE is staged inside the session's last cycle; wait for that
	// cycle to return.
	for deadline := time.Now().Add(5 * time.Second); len(r.stepped()) != int(clock.paces.Load()); {
		if time.Now().After(deadline) {
			t.Fatalf("%d Pace calls for %d stepped cycles", clock.paces.Load(), len(r.stepped()))
		}
		time.Sleep(time.Millisecond)
	}
	if got := r.srv.Metrics().Counter("cycle_overruns").Value(); got != 0 {
		t.Fatalf("cycle_overruns = %d: some Pace calls skipped the timer", got)
	}
	paces := clock.paces.Load()
	time.Sleep(5 * r.period)
	if got := clock.paces.Load(); got != paces {
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
		if c.SlackUs <= 0 || c.StepUs < 0 || c.LateUs < 0 {
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
