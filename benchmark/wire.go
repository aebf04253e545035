package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ftmm/internal/metrics"
	"ftmm/internal/netserve"
	"ftmm/internal/server"
	"ftmm/internal/trace"
)

// wireSizing shapes a wire-* rig: one Streaming RAID NetServer on 8
// drives in clusters of 4, driven on the manual clock.
type wireSizing struct {
	sessions, titles, groups int
	// slotsPerDisk lifts the admission budget for the fan-out rig (0
	// keeps the analytic bound): with merged reads the physical load is
	// per title, not per session, and the workload measures the delivery
	// plane, not the paper's admission bound.
	slotsPerDisk int
}

const (
	wireDisks   = 8
	wireCluster = 4
)

// wireRig is the server under test plus the benchmark's view of it.
type wireRig struct {
	sz  wireSizing
	srv *server.Server
	ns  *netserve.NetServer
	cat *catalog

	stageMs    []float64        // per-title staging times of this rig's set-up
	deliveries *metrics.Counter // engine_deliveries: tracks the engine has handed over
	finished   *metrics.Counter // engine_streams_finished

	// verified counts tracks the clients have checked, since the rig was
	// built; in lockstep the driver parks until it reaches target (the
	// engine's delivery count after the cycle's step) and clients poke
	// notify when they get there.
	verified atomic.Int64
	target   atomic.Int64
	notify   chan struct{}
	watchdog *time.Ticker // bounds the driver's waits without a timer per cycle
	hiccups  atomic.Int64
	failed   atomic.Int64
	bad      violationLog
}

func buildWireRig(sz wireSizing, cat *catalog) (*wireRig, error) {
	scheme, policy, err := server.ParseScheme("sr")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Options{
		Disks: wireDisks, ClusterSize: wireCluster,
		DiskParams: farmParams(sz.titles, sz.groups, wireDisks, wireCluster),
		Scheme:     scheme, K: 2, NCPolicy: policy,
		SlotsPerDisk: sz.slotsPerDisk,
	})
	if err != nil {
		return nil, err
	}
	stageMs, err := stageCatalog(srv, cat)
	if err != nil {
		return nil, err
	}
	// No pacing clock: the send queue is the only flow control, so it
	// holds a whole title and no client can be shed however fast the
	// driver steps.
	ns, err := netserve.New(netserve.Options{Server: srv, SendQueue: sz.groups + 8})
	if err != nil {
		return nil, err
	}
	rig := &wireRig{
		sz: sz, srv: srv, ns: ns, cat: cat, stageMs: stageMs,
		deliveries: srv.Metrics().Counter("engine_deliveries"),
		finished:   srv.Metrics().Counter("engine_streams_finished"),
		notify:     make(chan struct{}, 1),
		watchdog:   time.NewTicker(time.Second),
	}
	rig.target.Store(math.MaxInt64)
	return rig, nil
}

// wireClient is one session of a cohort.
type wireClient struct {
	cl       *netserve.Client
	title    string
	burst    int
	dialDur  time.Duration
	admitDur time.Duration
	firstAt  time.Time // first verified track
}

// cohortTiming is what per-call timing a traced cohort collects.
type cohortTiming struct {
	mu       sync.Mutex
	nextUs   []float64
	verifyNs float64
	tracks   int64
	gapsMs   []float64
}

// cohortRun is one cohort's outcome.
type cohortRun struct {
	tracks    int
	elapsed   time.Duration // first step -> last BYE
	cycleNs   []float64     // lockstep: StepCycle call -> last verification
	stepNs    []float64     // lockstep: StepCycle call -> return
	lagNs     []float64     // lockstep: return -> last verification
	startupNs []float64     // dial + ADMIT + first step -> first verified track
	admitUs   []float64
}

// runCohort admits sz.sessions clients (off the clock), streams their
// titles to the end either free-running or in lockstep, and verifies
// every byte. With tb non-nil it also records spans and per-call
// timings into timing.
func (rig *wireRig) runCohort(lockstep bool, tb *spanBuf, tr *tracer, timing *cohortTiming) (*cohortRun, error) {
	sz := rig.sz
	out := &cohortRun{tracks: sz.sessions * rig.cat.tracks}
	clients := make([]*wireClient, sz.sessions)
	for i := range clients {
		t0 := time.Now()
		cl, err := netserve.Dial(rig.ns.Addr().String(), waitLimit)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		cl.ReuseBuffers(true)
		// Sessions are dealt round-robin over the titles and admitted in
		// one cycle, so each title's pack runs in lockstep.
		title := rig.cat.names[i%sz.titles]
		ok, err := cl.Admit(title)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("admit %s: %w", title, err)
		}
		t2 := time.Now()
		clients[i] = &wireClient{cl: cl, title: title, burst: ok.Burst, dialDur: t1.Sub(t0), admitDur: t2.Sub(t1)}
		out.admitUs = append(out.admitUs, float64(t2.Sub(t1).Nanoseconds())/1e3)
		if ok.Tracks != rig.cat.tracks {
			rig.bad.add("ADMIT-OK for %s promises %d tracks, the title has %d", title, ok.Tracks, rig.cat.tracks)
		}
	}

	// cycleSpan is the flush_wait span clients hang their spans under;
	// curCycle is the engine cycle they belong to.
	var cycleSpan, curCycle atomic.Int64
	finishBase := rig.finished.Value()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *wireClient) {
			defer wg.Done()
			var cb *spanBuf
			if tb != nil && lockstep {
				cb = tr.buf()
			}
			rig.consume(c, cb, timing, &cycleSpan, &curCycle)
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	start := time.Now()
	prevTarget := rig.deliveries.Value()
	for cyc := 0; rig.finished.Value()-finishBase < int64(sz.sessions); cyc++ {
		if cyc > rig.cat.tracks+64 {
			return nil, fmt.Errorf("cohort still running after %d cycles", cyc)
		}
		cycleID := tb.newID()
		tc := time.Now()
		traceID := int64(rig.srv.Engine().Cycle())
		if err := rig.ns.StepCycle(); err != nil {
			return nil, err
		}
		if !lockstep {
			tb.record("freerun.StepCycle", tc, time.Now(), 0, traceID)
			continue
		}
		ts := time.Now()
		waitID := tb.newID()
		cycleSpan.Store(waitID)
		curCycle.Store(traceID)
		tgt := rig.deliveries.Value()
		rig.target.Store(tgt)
		if err := rig.awaitVerified(tgt); err != nil {
			return nil, err
		}
		tv := time.Now()
		if tgt > prevTarget { // cycles before the first burst deliver nothing
			out.cycleNs = append(out.cycleNs, float64(tv.Sub(tc).Nanoseconds()))
			out.stepNs = append(out.stepNs, float64(ts.Sub(tc).Nanoseconds()))
			out.lagNs = append(out.lagNs, float64(tv.Sub(ts).Nanoseconds()))
			tb.record("netserve.StepCycle", tc, ts, cycleID, traceID)
			tb.add(waitID, "netserve.flush_wait", ts, tv, cycleID, traceID)
			tb.add(cycleID, "cycle", tc, tv, 0, traceID)
		}
		prevTarget = tgt
	}
	rig.target.Store(math.MaxInt64)
	select {
	case <-done:
	case <-time.After(waitLimit):
		return nil, fmt.Errorf("clients still reading %v after the last stream finished", waitLimit)
	}
	out.elapsed = time.Since(start)
	for _, c := range clients {
		if !c.firstAt.IsZero() {
			out.startupNs = append(out.startupNs, float64((c.dialDur + c.admitDur + c.firstAt.Sub(start)).Nanoseconds()))
		}
	}
	return out, nil
}

// awaitVerified parks the driver until the clients have verified tgt
// tracks in all.
func (rig *wireRig) awaitVerified(tgt int64) error {
	var since time.Time
	for rig.verified.Load() < tgt {
		select {
		case <-rig.notify:
		case now := <-rig.watchdog.C:
			if since.IsZero() {
				since = now
			} else if now.Sub(since) > waitLimit {
				return fmt.Errorf("clients verified %d of %d tracks after %v", rig.verified.Load(), tgt, waitLimit)
			}
		}
	}
	return nil
}

// consume is one client's loop: read, check index continuity, check the
// bytes, until a BYE with reason "finished" after the last track.
func (rig *wireRig) consume(c *wireClient, cb *spanBuf, timing *cohortTiming, cycleSpan, curCycle *atomic.Int64) {
	defer c.cl.Close()
	content := rig.cat.content[c.title]
	timed := timing != nil
	var nextUs, gapsMs []float64
	var verifyNs float64
	var lastBurst, t0, t1, t2 time.Time
	next := 0
	if timed {
		t0 = time.Now()
		defer func() {
			timing.mu.Lock()
			timing.nextUs = append(timing.nextUs, nextUs...)
			timing.gapsMs = append(timing.gapsMs, gapsMs...)
			timing.verifyNs += verifyNs
			timing.tracks += int64(next)
			timing.mu.Unlock()
		}()
	}
	for {
		ev, err := c.cl.Next()
		if timed {
			t1 = time.Now()
		}
		switch {
		case err != nil:
			rig.failed.Add(int64(rig.cat.tracks - next))
			rig.bad.add("session on %s: read after track %d: %v", c.title, next, err)
			return
		case ev.Bye != nil:
			if ev.Bye.Reason != "finished" || next != rig.cat.tracks {
				rig.failed.Add(int64(rig.cat.tracks - next))
				rig.bad.add("session on %s: BYE %q at track %d of %d", c.title, ev.Bye.Reason, next, rig.cat.tracks)
			}
			return
		case ev.Hiccup != nil:
			rig.hiccups.Add(1)
			rig.bad.add("session on %s: HICCUP for track %d (%s)", c.title, ev.Hiccup.Track, ev.Hiccup.Reason)
			next = ev.Hiccup.Track + 1
			continue
		case ev.Data == nil:
			continue // VCR acks are not part of this workload
		}
		if ev.Track != next {
			rig.failed.Add(1)
			rig.bad.add("session on %s: track %d arrived, %d was owed", c.title, ev.Track, next)
			next = ev.Track
		}
		if err := trace.CheckTrack(content, rig.cat.trackSize, ev.Track, ev.Data); err != nil {
			rig.failed.Add(1)
			rig.bad.add("session on %s: %v", c.title, err)
		}
		next++
		if c.firstAt.IsZero() {
			c.firstAt = time.Now()
		}
		if timed {
			t2 = time.Now()
			if next%8 == 0 { // a sample of the reads is enough for a median
				nextUs = append(nextUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
			}
			verifyNs += float64(t2.Sub(t1).Nanoseconds())
			if ev.Track%c.burst == 0 {
				if !lastBurst.IsZero() {
					gapsMs = append(gapsMs, float64(t1.Sub(lastBurst).Nanoseconds())/1e6)
				}
				lastBurst = t1
			}
			if cb != nil {
				parent, id := cycleSpan.Load(), curCycle.Load()
				cb.record("client.next", t0, t1, parent, id)
				cb.record("client.verify", t1, t2, parent, id)
			}
			t0 = t2 // the next read starts where this verification ended
		}
		if rig.verified.Add(1) >= rig.target.Load() {
			select {
			case rig.notify <- struct{}{}:
			default:
			}
		}
	}
}

// close drains and tears the rig down, then checks nothing leaked.
func (rig *wireRig) close(res *result) {
	// In manual mode the drain only progresses while cycles are stepped.
	drained := make(chan error, 1)
	go func() { drained <- rig.ns.Drain(waitLimit) }()
	for done := false; !done; {
		select {
		case err := <-drained:
			if err != nil {
				res.violate("drain: %v", err)
			}
			done = true
		default:
			if err := rig.ns.StepCycle(); err != nil {
				res.violate("drain step: %v", err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// The engine holds a cycle's buffers for two more Steps.
	for i := 0; i < 3; i++ {
		_ = rig.ns.StepCycle()
	}
	snap := rig.srv.Metrics().Snapshot()
	if g := snap.Gauges["net_sessions_active"].Value; g != 0 {
		res.violate("net_sessions_active is %d after the drain", g)
	}
	rig.watchdog.Stop()
	rig.ns.Close()
	out := rig.srv.Engine().Arena().Outstanding()
	if out != 0 {
		res.violate("%d track buffers outstanding after the drain", out)
	}
	res.set("buffer.outstanding_end", float64(out))
}

func runWireUnicast(cfg runConfig) (*result, error) {
	// One session per core, each on a title of its own: nothing is
	// shared between sessions.
	n := runtime.GOMAXPROCS(0)
	sz := wireSizing{sessions: n, titles: n, groups: 400}
	if cfg.toy {
		sz = wireSizing{sessions: 4, titles: 4, groups: 3}
	}
	return runWire("wire-unicast", cfg, sz)
}

func runWireFanout(cfg runConfig) (*result, error) {
	// 64 sessions, 16 to a title. More connections than cores on
	// purpose: the session count is the input being varied.
	sz := wireSizing{sessions: 64, titles: 4, groups: 40, slotsPerDisk: 64}
	if cfg.toy {
		sz = wireSizing{sessions: 4, titles: 2, groups: 3, slotsPerDisk: 4}
	}
	return runWire("wire-fanout", cfg, sz)
}

// wireSlice accumulates one slice of the measured window.
type wireSlice struct {
	freeTracks, freeNs float64 // free-run cohorts: tracks, and first step to last BYE
	cycleNs, startupNs []float64
	cpuNs, tracks      float64
}

func runWire(name string, cfg runConfig, sz wireSizing) (*result, error) {
	res := newResult(name)
	cat := newCatalog(fmt.Sprintf("s%d-w", cfg.seed), sz.titles, sz.groups*(wireCluster-1))
	rig, secs, err := repeatSetup(
		func() (*wireRig, error) { return buildWireRig(sz, cat) },
		func(r *wireRig) { r.watchdog.Stop(); r.ns.Close() },
	)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res.set("setup_s", median(secs))
	res.set("server.stage_title_ms", median(rig.stageMs))

	var tr *tracer
	var timing *cohortTiming
	if cfg.trace {
		tr = newTracer()
		timing = &cohortTiming{}
	}
	tb := tr.buf()

	// phase runs cohorts of one kind until its share of the window is used up
	// (at least one). In a traced run every other cohort records spans
	// and per-call timings, so traced and untraced cohorts sit a tenth of
	// a second apart and the box's slower swings cancel out of
	// trace.overhead_pct.
	cohorts := 0
	phase := func(d time.Duration, lockstep bool, each func(c *cohortRun, traced bool)) error {
		for begin := time.Now(); ; {
			var ptb *spanBuf
			var ptiming *cohortTiming
			cohorts++
			traced := cfg.trace && cohorts%2 == 0
			if traced {
				ptb, ptiming = tb, timing
			}
			c, err := rig.runCohort(lockstep, ptb, tr, ptiming)
			if err != nil {
				return err
			}
			if each != nil {
				each(c, traced)
			}
			if time.Since(begin) >= d {
				return nil
			}
		}
	}
	half := func(seconds float64) time.Duration { return time.Duration(seconds / 2 * float64(time.Second)) }

	if err := phase(half(cfg.warmup), false, nil); err != nil {
		return nil, err
	}
	if err := phase(half(cfg.warmup), true, nil); err != nil {
		return nil, err
	}

	var slices [nSlices]wireSlice
	var all cohortRun
	var tracedTps, untracedTps []float64 // free-run cohorts, for trace.overhead_pct
	collect := func(sl *wireSlice, lockstep bool) func(*cohortRun, bool) {
		return func(c *cohortRun, traced bool) {
			sl.tracks += float64(c.tracks)
			all.admitUs = append(all.admitUs, c.admitUs...)
			if lockstep {
				// Start-up is taken where cycles are paced by the clients,
				// as a viewer's would be: in free-run the driver is many
				// cycles ahead before the first client has read a track,
				// and a cohort's start-up reads anything from 3 to 18 ms.
				sl.startupNs = append(sl.startupNs, c.startupNs...)
				all.startupNs = append(all.startupNs, c.startupNs...)
				sl.cycleNs = append(sl.cycleNs, c.cycleNs...)
				all.cycleNs = append(all.cycleNs, c.cycleNs...)
				all.stepNs = append(all.stepNs, c.stepNs...)
				all.lagNs = append(all.lagNs, c.lagNs...)
			} else {
				sl.freeTracks += float64(c.tracks)
				sl.freeNs += float64(c.elapsed.Nanoseconds())
				tps := float64(c.tracks) / c.elapsed.Seconds()
				if traced {
					tracedTps = append(tracedTps, tps)
				} else {
					untracedTps = append(untracedTps, tps)
				}
			}
		}
	}
	snapBefore := rig.srv.Metrics().Snapshot()
	before := sampleProc()
	// A slice's times are sums over its cohorts, less the host's share of
	// the phase they ran in (ranShare): the rate is all free-run tracks
	// over all free-run time, the cycle and start-up latencies are means.
	sliceLen := cfg.seconds / nSlices
	var tps, cpu, cyc, startup [nSlices]float64
	var tracks float64
	for s := range slices {
		sl := &slices[s]
		c0 := readClocks()
		if err := phase(half(sliceLen), false, collect(sl, false)); err != nil {
			return nil, err
		}
		c1 := readClocks()
		if err := phase(half(sliceLen), true, collect(sl, true)); err != nil {
			return nil, err
		}
		c2 := readClocks()
		tps[s] = sl.freeTracks / (sl.freeNs * ranShare(c0, c1) / 1e9)
		cpu[s] = float64((c2.cpu - c0.cpu).Nanoseconds()) / 1e3 / sl.tracks
		cyc[s] = mean(sl.cycleNs) * ranShare(c1, c2) / 1e6
		startup[s] = mean(sl.startupNs) * ranShare(c1, c2) / 1e6
		tracks += sl.tracks
	}
	after := sampleProc()
	snapAfter := rig.srv.Metrics().Snapshot()
	rig.close(res)
	rig.bad.drainInto(res)

	res.setSlices("tracks_per_s", tps[:])
	res.setSlices("cpu_us_per_track", cpu[:])
	res.setSlices("cycle_ms", cyc[:])
	res.setSlices("startup_ms", startup[:])
	res.samples["cycle_ms"] = len(all.cycleNs)
	res.samples["startup_ms"] = len(all.startupNs)
	failed := rig.failed.Load() + rig.hiccups.Load()
	res.setLoss(int64(tracks)-failed, failed)
	res.failed = failed

	// Per-layer numbers: the benchmark's own timings, then the counters
	// the server already exports, as deltas over the measured window.
	res.setQuantiles("netserve.stepcycle_us", all.stepNs, 1e-3)
	res.setQuantiles("netserve.flush_lag_us", all.lagNs, 1e-3)
	res.set("client.cycle_ms_p99", p99(all.cycleNs)/1e6)
	res.set("client.startup_ms_p99", p99(all.startupNs)/1e6)
	res.set("netserve.admit_us_p50", median(all.admitUs))
	res.set("netserve.us_per_track", 1e6/res.values["tracks_per_s"])
	setNetserveCounters(res, snapBefore, snapAfter)
	res.set("netserve.allocs_per_track", float64(after.mallocs-before.mallocs)/tracks)
	res.set("netserve.alloc_b_per_track", float64(after.bytes-before.bytes)/tracks)
	res.setProcMetrics(before, after)
	if cfg.trace {
		res.set("client.next_us_p50", median(timing.nextUs))
		res.samples["client.next_us_p50"] = len(timing.nextUs)
		if timing.tracks > 0 {
			res.set("client.verify_us_per_track", timing.verifyNs/1e3/float64(timing.tracks))
		}
		res.setQuantiles("client.gap_ms", timing.gapsMs, 1)
		res.spans = tr.all()
		res.set("trace.spans", float64(len(res.spans)))
		res.set("trace.overhead_pct", 100*(1-median(tracedTps)/median(untracedTps)))
		if d := tr.dropped.Load(); d > 0 {
			res.notes = append(res.notes, fmt.Sprintf("%d spans past the %d-span cap were dropped", d, maxSpans))
		}
		probeLayers(res, cat.trackSize, cfg.probeBudget())
	}
	return res, nil
}

// setNetserveCounters reports the front end's exported counters and
// pipeline phase histograms over a window. Only Sum/Count of the pipe_*
// histograms are used — their quantiles are bucket bounds.
func setNetserveCounters(res *result, before, after metrics.Snapshot) {
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	histMean := func(name string) float64 {
		n := after.Histograms[name].Count - before.Histograms[name].Count
		if n == 0 {
			return 0
		}
		return float64(after.Histograms[name].Sum-before.Histograms[name].Sum) / float64(n)
	}
	sent := delta("net_tracks_sent")
	res.set("netserve.tracks_sent", sent)
	res.set("netserve.bytes_sent", delta("net_bytes_sent"))
	res.set("netserve.hiccups_sent", delta("net_hiccups_sent"))
	res.set("netserve.sessions_shed", delta("net_sessions_shed"))
	res.set("netserve.write_errors", delta("net_write_errors"))
	res.set("netserve.write_timeouts", delta("net_write_timeouts"))
	res.set("netserve.rejects", delta("net_rejects"))
	if sent > 0 {
		res.set("netserve.merge_ratio", delta("net_merged_tracks")/sent)
	}
	res.set("netserve.read_us_mean", histMean("pipe_read_us"))
	res.set("netserve.stage_us_mean", histMean("pipe_stage_us"))
	res.set("netserve.flush_us_mean", histMean("pipe_flush_us"))
	res.set("disk.data_reads_per_cycle", delta("engine_data_reads")/max(delta("engine_cycles"), 1))
	res.set("disk.parity_reads_per_cycle", delta("engine_parity_reads")/max(delta("engine_cycles"), 1))
	res.set("parity.reconstructions_per_cycle", delta("engine_reconstructions")/max(delta("engine_cycles"), 1))
}
