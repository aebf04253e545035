package netserve

import (
	"fmt"
	"runtime"
	"testing"

	"ftmm/internal/sched"
)

// activeReport reports whether a cycle did any engine work. Trailing
// idle cycles differ between the pipelined front end and a directly
// stepped server — the front end removes finished sessions
// asynchronously, so its driver may issue an extra empty step or two
// before seeing the farm quiesce — and carry no delivery content, so
// the equality check trims them.
func activeReport(r *sched.CycleReport) bool {
	return len(r.Delivered) > 0 || len(r.Hiccups) > 0 ||
		len(r.Finished) > 0 || len(r.Terminated) > 0 ||
		r.DataReads > 0 || r.ParityReads > 0 || r.Reconstructions > 0
}

func trimIdle(reports []*sched.CycleReport) []*sched.CycleReport {
	n := len(reports)
	for n > 0 && !activeReport(reports[n-1]) {
		n--
	}
	return reports[:n]
}

// pipelineFailCycle and pipelineFailDrive are the mid-stream failure
// both sides of the pipeline comparison inject.
const pipelineFailCycle, pipelineFailDrive = 3, 0

// runPipelineWorkload streams every title of a fresh rig to its own
// client, fails a drive mid-stream, and runs the farm to completion,
// capturing a Clone of every cycle report via the test hook.
func runPipelineWorkload(t *testing.T, scheme string) (*loopRig, map[string]*clientResult, []*sched.CycleReport) {
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
	r.ns.ScheduleFailure(pipelineFailCycle, pipelineFailDrive)
	r.stepUntilIdle(t, 400)
	res := make(map[string]*clientResult, len(chans))
	for title, ch := range chans {
		res[title] = <-ch
	}
	return r, res, reports
}

// runTwinServer is the reference the pipelined front end is held to:
// the same farm with no network layer at all, given the same admissions
// in the same order and the same drive failure, stepped directly.
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
		if cycle == pipelineFailCycle {
			if err := srv.FailDisk(pipelineFailDrive); err != nil {
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

// TestPipelineBitExactVsDirectStep is the pipeline's correctness
// anchor: a workload — every title streaming, a drive failing
// mid-stream — run through the pipelined front end must deliver
// bit-exact bytes to every client and produce cycle reports Equal,
// cycle for cycle, to those of a twin server stepped directly with no
// front end (and so no pipeline) at all. Run at two GOMAXPROCS settings
// so the race detector (in CI's -race pass) sees both a starved and a
// parallel schedule.
func TestPipelineBitExactVsDirectStep(t *testing.T) {
	for _, procs := range []int{2, 8} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, scheme := range []string{"sr", "nc"} {
				t.Run(scheme, func(t *testing.T) {
					rig, res, pipeReps := runPipelineWorkload(t, scheme)
					for _, title := range rig.titles {
						verifyBitExact(t, rig, title, res[title])
						if bye := res[title].bye; bye != "finished" {
							t.Errorf("%s: bye %q, want finished", title, bye)
						}
					}

					a, b := trimIdle(pipeReps), trimIdle(runTwinServer(t, scheme))
					if len(a) != len(b) {
						t.Fatalf("%d active cycles pipelined vs %d stepped directly", len(a), len(b))
					}
					delivered, hiccups := 0, 0
					for i := range a {
						if !a[i].Equal(b[i]) {
							t.Errorf("cycle %d: report differs between the pipelined front end and the directly stepped twin", a[i].Cycle)
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

// TestPipelinedDrainNoLeak checks the arena accounting across a
// graceful drain in pipelined mode: admissions stop mid-stream, live
// streams play out through the overlapped staging passes, and once the
// farm idles every track buffer must be back in the arena. (The
// shed and mid-stream disconnect legs of the same invariant run
// pipelined too, in TestArenaNoLeakAfterShedAndDisconnect.)
func TestPipelinedDrainNoLeak(t *testing.T) {
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
