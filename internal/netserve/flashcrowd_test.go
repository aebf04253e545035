package netserve

import (
	"sync"
	"testing"
	"time"
)

// TestFlashCrowdBatchedStart is the flash-crowd acceptance test: with
// BatchCycles set, a crowd of fresh ADMITs parks until its title's
// window has stood open for that many engine cycles, then every title's
// crowd is admitted as one batch at one cycle boundary — 96 sessions on
// 4 titles start in 4 batches of 24, each pack in lockstep — and every
// viewer still receives its title bit-exact.
func TestFlashCrowdBatchedStart(t *testing.T) {
	const crowd, titles, batchCycles = 96, 4, 2
	cfg := defaultRig()
	cfg.titles = titles
	// The test is of the admission batch, not of the admission bound:
	// every slot the crowd needs, and a send queue that holds a whole
	// title so the manual clock cannot shed anyone.
	cfg.slotsPerDisk = crowd
	cfg.ns = Options{SendQueue: cfg.groups + 8, BatchCycles: batchCycles}
	r := newLoopRig(t, "sr", cfg)

	results := make([]*clientResult, crowd)
	var wg sync.WaitGroup
	for i := range results {
		c, err := Dial(r.ns.Addr().String(), 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			defer c.Close()
			// Admit blocks until the batch flushes under a StepCycle.
			if _, err := c.Admit(r.titles[i%titles]); err != nil {
				results[i] = &clientResult{err: err}
				return
			}
			results[i] = consume(c)
		}(i, c)
	}
	// The windows are measured in engine cycles, which only this test
	// advances: once the whole crowd is parked, each title has one batch.
	for deadline := time.Now().Add(30 * time.Second); r.ns.PendingStarts() < crowd; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d starts parked", r.ns.PendingStarts(), crowd)
		}
		time.Sleep(time.Millisecond)
	}

	step := func() {
		t.Helper()
		if err := r.ns.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < batchCycles; i++ {
		step()
		if p, s := r.ns.PendingStarts(), r.ns.Sessions(); p != crowd || s != 0 {
			t.Fatalf("cycle %d of the window: %d parked, %d admitted, want all %d parked", i, p, s, crowd)
		}
	}
	step()
	if p, s := r.ns.PendingStarts(), r.ns.Sessions(); p != 0 || s != crowd {
		t.Fatalf("after the window closed: %d parked, %d admitted, want all %d admitted", p, s, crowd)
	}
	counters := r.srv.Metrics().Snapshot().Counters
	if runs, starts := counters["net_batch_runs"], counters["net_batched_starts"]; runs != titles || starts != crowd {
		t.Errorf("%d starts in %d batches, want %d in %d (%d merged starts per run)", starts, runs, crowd, titles, crowd/titles)
	}

	r.stepUntilIdle(t, 200)
	wg.Wait()
	for i, res := range results {
		verifyBitExact(t, r, r.titles[i%titles], res)
		if len(res.hiccups) != 0 || res.bye != "finished" {
			t.Errorf("client %d: %d hiccups, bye %q, want a clean finished playout", i, len(res.hiccups), res.bye)
		}
	}
	if merged := r.srv.Metrics().Snapshot().Counters["net_merged_tracks"]; merged == 0 {
		t.Error("batched packs did not share their frames: net_merged_tracks = 0")
	}
	r.stepUntilBuffersHome(t)
}
