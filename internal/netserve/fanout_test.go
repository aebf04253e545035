package netserve

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Fan-out rig shape: an SR farm of 8 drives in clusters of 4, so a
// session's burst is 3 tracks a cycle and a title plays in fanoutGroups
// cycles.
const (
	fanoutCluster = 4
	fanoutGroups  = 8
)

// fanoutRig builds the farm and a manual-clock front end sized for one
// lockstep cohort of fanout sessions: the admission budget is lifted to
// fanout slots per disk (the rig exercises the delivery plane, not the
// paper's admission bound — with merged reads the physical load is per
// title, not per session), and the send queue holds a whole title so no
// client can be shed however fast cycles are pushed.
func fanoutRig(tb testing.TB, fanout int) *loopRig {
	tb.Helper()
	return newLoopRig(tb, "sr", rigConfig{
		disks: 8, cluster: fanoutCluster, k: 2, titles: 8, groups: fanoutGroups,
		slotsPerDisk: fanout,
		ns:           Options{SendQueue: fanoutGroups + 8},
	})
}

// fanoutCohort is one wave of sessions admitted in the same cycle,
// round-robin across the titles, so same-title packs stay in lockstep
// and share their staged frames. Each session has a consumer goroutine
// reading it to its BYE.
type fanoutCohort struct {
	clients  []*Client
	cycles   int // StepCycles driven so far
	wg       sync.WaitGroup
	frames   atomic.Int64 // TRACK frames the consumers have read
	finished atomic.Int32
	errs     chan error
}

func admitFanoutCohort(tb testing.TB, r *loopRig, fanout int) *fanoutCohort {
	tb.Helper()
	co := &fanoutCohort{clients: make([]*Client, fanout), errs: make(chan error, fanout)}
	for i := range co.clients {
		cl, err := Dial(r.ns.Addr().String(), 30*time.Second)
		if err != nil {
			tb.Fatal(err)
		}
		cl.ReuseBuffers(true)
		if _, err := cl.Admit(r.titles[i%len(r.titles)]); err != nil {
			tb.Fatal(err)
		}
		co.clients[i] = cl
	}
	for _, cl := range co.clients {
		co.wg.Add(1)
		go func(cl *Client) {
			defer co.wg.Done()
			defer co.finished.Add(1)
			defer cl.Close()
			for {
				ev, err := cl.Next()
				if err != nil {
					co.errs <- err
					return
				}
				switch {
				case ev.Hiccup != nil:
					co.errs <- fmt.Errorf("hiccup: %+v", ev.Hiccup)
					return
				case ev.Bye != nil:
					if ev.Bye.Reason != "finished" {
						co.errs <- fmt.Errorf("bye %q", ev.Bye.Reason)
					}
					return
				default:
					co.frames.Add(1)
				}
			}
		}(cl)
	}
	return co
}

// drive steps cycles until every session has finished or limit TRACK
// frames have been pushed, and returns how many were.
func (co *fanoutCohort) drive(tb testing.TB, ns *NetServer, limit int) int {
	fanout := len(co.clients)
	perCycle := fanout * (fanoutCluster - 1)
	delivered := 0
	start := time.Now()
	for co.finished.Load() < int32(fanout) && delivered < limit {
		if err := ns.StepCycle(); err != nil {
			tb.Fatal(err)
		}
		co.cycles++
		if co.cycles <= fanoutGroups {
			delivered += perCycle
		} else {
			// The whole title is pushed (or queued); the cohort is
			// draining. Stepping is an idle no-op now, so yield.
			time.Sleep(200 * time.Microsecond)
			if time.Since(start) > 2*time.Minute {
				tb.Fatal("fan-out cohort never drained")
			}
		}
	}
	return delivered
}

// finish waits the consumers out. A cohort cut short by drive's limit
// is unwound by closing its connections; that makes the consumers' read
// errors expected, so they are dropped rather than checked.
func (co *fanoutCohort) finish(tb testing.TB) {
	if co.finished.Load() != int32(len(co.clients)) {
		for _, cl := range co.clients {
			cl.Close()
		}
		co.wg.Wait()
		return
	}
	co.wg.Wait()
	close(co.errs)
	for err := range co.errs {
		tb.Fatal(err)
	}
}

// BenchmarkFanout64Tracks times the fan-out path: 64 concurrent
// sessions, 8 per title, manual clock, the cohort's dials and ADMIT
// handshakes off the timer; one op is one delivered TRACK frame. It is
// the profiling target for the staging and flush path (DESIGN.md,
// "Profiling the fan-out path").
func BenchmarkFanout64Tracks(b *testing.B) {
	const fanout = 64
	r := fanoutRig(b, fanout)
	b.SetBytes(int64(r.trackSize))
	b.ResetTimer()
	for delivered := 0; delivered < b.N; {
		b.StopTimer()
		co := admitFanoutCohort(b, r, fanout)
		b.StartTimer()
		delivered += co.drive(b, r.ns, b.N-delivered)
		b.StopTimer()
		co.finish(b)
		b.StartTimer()
	}
	b.StopTimer()
}

// TestFanoutAllocsFlatInSessions guards the shared-frame guarantee: a
// lockstep pack is staged once and fanned out by reference, so a
// session added to the cohort costs a burst's bookkeeping, not a copy of
// its frames. The count is the whole process's mallocs — server staging
// and flush plus the clients' read loops — over the middle cycles of a
// title, stepped in lockstep with the consumers; the first cycle (lazy
// set-up) and the last (BYE and teardown) are left out.
//
// The assertion is on the marginal cost between a 64- and a 512-session
// cohort, mallocs per additional TRACK frame. Per cohort the figure is
// 1.3-1.8 at 64 and 0.7-1.0 at 512 (the span is GOMAXPROCS 1-8, the
// upper end under -race, where sync.Pool drops a quarter of its puts):
// a cycle's session-independent work, about 150 mallocs, weighs more
// the smaller the cohort, and the difference cancels it. What is left
// measures 0.6-0.7, 0.8-1.0 under -race — net.Buffers and the iovec of
// each vectored write, Arena.Put's boxed slice header — so the ceiling
// trips on one more allocation per session and frame.
func TestFanoutAllocsFlatInSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("opens 512 loopback sessions")
	}
	const small, large, window = 64, 512, fanoutGroups - 2
	r := fanoutRig(t, large)
	ns := r.ns
	// A collection inside a window empties the sync.Pools behind the
	// arena and the burst free lists; their refill is not the cost
	// measured here.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC() // see out a cycle already under way
	measure := func(fanout int) (mallocs, frames float64) {
		co := admitFanoutCohort(t, r, fanout)
		perCycle := fanout * (fanoutCluster - 1)
		base := ns.tracksSent.Value() // earlier cohorts' frames
		// step drives one cycle in lockstep: the consumers have read
		// everything sent before it returns, so the bursts and track
		// buffers in flight — and with them the free lists' high-water
		// marks — never exceed one cycle's.
		step := func() {
			co.drive(t, ns, perCycle)
			sent := ns.tracksSent.Value() - base
			for deadline := time.Now().Add(time.Minute); co.frames.Load() < sent; {
				if time.Now().After(deadline) {
					t.Fatalf("consumers read %d of %d frames", co.frames.Load(), sent)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
		counters := func() (mallocs uint64, sent int64) {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return m.Mallocs, ns.tracksSent.Value()
		}
		step()
		m0, f0 := counters()
		for i := 0; i < window; i++ {
			step()
		}
		m1, f1 := counters()
		co.drive(t, ns, 2*perCycle)
		co.finish(t)
		if f1-f0 != int64(window*perCycle) {
			t.Fatalf("%d sessions: %d TRACK frames went out in %d mid-title cycles, want %d", fanout, f1-f0, window, window*perCycle)
		}
		t.Logf("%d sessions: %.3f mallocs per TRACK frame", fanout, float64(m1-m0)/float64(f1-f0))
		return float64(m1 - m0), float64(f1 - f0)
	}
	smallMallocs, smallFrames := measure(small)
	largeMallocs, largeFrames := measure(large)
	marginal := (largeMallocs - smallMallocs) / (largeFrames - smallFrames)
	t.Logf("%.3f mallocs per additional TRACK frame", marginal)
	if marginal >= 1.3 {
		t.Errorf("%.3f mallocs per additional TRACK frame between %d and %d sessions, want < 1.3", marginal, small, large)
	}
}
