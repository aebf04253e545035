package netserve

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ftmm/internal/sched"
)

// twinFailCycle and twinFailDrive are the mid-stream failure both sides
// of the front-end/twin comparison inject.
const twinFailCycle, twinFailDrive = 3, 0

// runFrontEndWorkload streams every title of a fresh rig to its own
// client, fails a drive mid-stream, and runs the farm to completion,
// capturing a Clone of every cycle report via the test hook.
func runFrontEndWorkload(t *testing.T, scheme string) (*loopRig, map[string]*clientResult, []*sched.CycleReport) {
	t.Helper()
	cfg := defaultRig()
	cfg.ns = Options{Logf: t.Logf}
	r := newLoopRig(t, scheme, cfg)
	var reports []*sched.CycleReport
	r.ns.reportHook = func(rep *sched.CycleReport) { reports = append(reports, rep) }

	chans := make(map[string]chan *clientResult, len(r.titles))
	for _, title := range r.titles {
		c, _ := r.connect(t, title)
		t.Cleanup(func() { c.Close() })
		ch := make(chan *clientResult, 1)
		go func(c *Client) { ch <- consume(c) }(c)
		chans[title] = ch
	}
	r.ns.ScheduleFailure(twinFailCycle, twinFailDrive)
	r.stepUntilIdle(t, 400)
	res := make(map[string]*clientResult, len(chans))
	for title, ch := range chans {
		res[title] = <-ch
	}
	return r, res, reports
}

// runTwinServer is the reference the front end is held to: the same
// farm with no network layer at all, given the same admissions in the
// same order and the same drive failure, stepped directly.
func runTwinServer(t *testing.T, scheme string) []*sched.CycleReport {
	t.Helper()
	srv, titles := newRigServer(t, scheme, defaultRig())
	for _, title := range titles {
		if _, _, err := srv.Request(title); err != nil {
			t.Fatal(err)
		}
	}
	var reports []*sched.CycleReport
	for cycle := 0; srv.Engine().Active() > 0; cycle++ {
		if cycle == twinFailCycle {
			if err := srv.FailDisk(twinFailDrive); err != nil {
				t.Fatal(err)
			}
		}
		if cycle >= 400 {
			t.Fatal("twin server not idle after 400 cycles")
		}
		rep, err := srv.Step()
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep.Clone())
	}
	return reports
}

// TestPipelineBitExactVsDirectStep is the cycle loop's correctness
// anchor: a workload — every title streaming, a drive failing
// mid-stream — run through the front end must deliver bit-exact bytes
// to every client and produce cycle reports equal, cycle for cycle, to
// those of a twin server stepped directly with no front end at all —
// the same number of them, since a finished session is gone before its
// StepCycle returns. Run at two GOMAXPROCS settings so the race
// detector (in CI's -race pass) sees the writers release against the
// cycle's staging on both a starved and a parallel schedule.
func TestPipelineBitExactVsDirectStep(t *testing.T) {
	for _, procs := range []int{2, 8} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, scheme := range []string{"sr", "nc"} {
				t.Run(scheme, func(t *testing.T) {
					rig, res, a := runFrontEndWorkload(t, scheme)
					for _, title := range rig.titles {
						verifyBitExact(t, rig, title, res[title])
						if bye := res[title].bye; bye != "finished" {
							t.Errorf("%s: bye %q, want finished", title, bye)
						}
					}

					b := runTwinServer(t, scheme)
					if len(a) != len(b) {
						t.Fatalf("%d cycles through the front end vs %d stepped directly", len(a), len(b))
					}
					delivered, hiccups := 0, 0
					for i := range a {
						if !reflect.DeepEqual(a[i], b[i]) {
							t.Errorf("cycle %d: report differs between the front end and the directly stepped twin", a[i].Cycle)
						}
						delivered += len(b[i].Delivered)
						hiccups += len(b[i].Hiccups)
					}
					// What reached the clients is what the twin's reports say
					// the engine delivered and lost.
					gotTracks, gotHiccups := 0, 0
					for _, r := range res {
						gotTracks += len(r.tracks)
						gotHiccups += len(r.hiccups)
					}
					if gotTracks != delivered || gotHiccups != hiccups {
						t.Errorf("clients saw %d tracks and %d hiccups; the twin's reports list %d and %d",
							gotTracks, gotHiccups, delivered, hiccups)
					}
				})
			}
		})
	}
}

// TestDrainNoLeak checks the arena accounting across a graceful drain:
// admissions stop mid-stream, live streams play out, and once the farm
// idles every track buffer must be back in the arena. (The shed and
// mid-stream disconnect legs of the same invariant are in
// TestArenaNoLeakAfterShedAndDisconnect.)
func TestDrainNoLeak(t *testing.T) {
	cfg := defaultRig()
	cfg.groups = 10
	cfg.ns = Options{Logf: t.Logf}
	r := newLoopRig(t, "sr", cfg)
	arena := r.srv.Engine().Arena()
	if arena == nil {
		t.Fatal("engine has no arena")
	}

	var chans []chan *clientResult
	for _, title := range r.titles {
		c, _ := r.connect(t, title)
		t.Cleanup(func() { c.Close() })
		ch := make(chan *clientResult, 1)
		go func(c *Client) { ch <- consume(c) }(c)
		chans = append(chans, ch)
	}
	for i := 0; i < 3; i++ {
		if err := r.ns.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
	r.ns.BeginDrain()
	for i := 0; i < 400 && !r.ns.Drained(); i++ {
		if err := r.ns.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
	if !r.ns.Drained() {
		t.Fatal("drain did not complete")
	}
	for i, ch := range chans {
		res := <-ch
		if res.err != nil || res.bye != "finished" {
			t.Fatalf("client %d: err=%v bye=%q, want a finished playout", i, res.err, res.bye)
		}
	}
	r.stepUntilBuffersHome(t)
}

// TestGoroutineBudget pins what a NetServer keeps running: the accept
// loop, the pacer when a Clock is set, and a reader and a writer per
// admitted session. Cycles run on their driver's goroutine and write
// stalls are runtime deadlines, so nothing else is parked per node, and
// Close leaves nothing behind.
func TestGoroutineBudget(t *testing.T) {
	// Let stragglers of earlier tests (client readers, closing servers)
	// exit before taking the baseline.
	base := runtime.NumGoroutine()
	for stable := 0; stable < 20; {
		time.Sleep(5 * time.Millisecond)
		if n := runtime.NumGoroutine(); n != base {
			base, stable = n, 0
		} else {
			stable++
		}
	}
	expect := func(when string, want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine()-base != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines over the baseline, want %d", when, runtime.NumGoroutine()-base, want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	srv, titles := newRigServer(t, "sr", defaultRig())
	ns, err := New(Options{Server: srv})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	expect("New with a manual clock", 1)
	for i := 1; i <= 3; i++ {
		c, err := Dial(ns.Addr().String(), 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Admit(titles[i%len(titles)]); err != nil {
			t.Fatal(err)
		}
		expect(fmt.Sprintf("%d sessions admitted", i), 1+2*i)
	}
	ns.Close()
	expect("Close", 0)

	srv, _ = newRigServer(t, "sr", defaultRig())
	paced, err := New(Options{Server: srv, Clock: WallClock(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer paced.Close()
	expect("New with a Clock", 2)
	paced.Close()
	expect("Close of the paced server", 0)
}
