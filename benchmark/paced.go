package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ftmm/internal/cluster"
	"ftmm/internal/metrics"
	"ftmm/internal/netserve"
	"ftmm/internal/node"
	"ftmm/internal/trace"
	"ftmm/internal/workload"
)

// pacedSizing shapes the cluster-paced rig: Streaming RAID nodes on 8
// drives in clusters of 4 behind one coordinator.
type pacedSizing struct {
	nodes, titles, groups int
	arrivalsPerSecond     float64
	// failCycle and rebuildCycle are the engine cycles at which, on
	// every node, drive 1 fails and its online rebuild starts.
	failCycle, rebuildCycle, rebuildBudget int
}

var pacedFull = pacedSizing{
	nodes: 3, titles: 12, groups: 25, arrivalsPerSecond: 40,
	failCycle: 200, rebuildCycle: 400, rebuildBudget: 8,
}

var pacedToy = pacedSizing{
	nodes: 3, titles: 6, groups: 3, arrivalsPerSecond: 4,
	failCycle: 5, rebuildCycle: 15, rebuildBudget: 8,
}

const (
	// pacedSpeedup fast-forwards the nodes' wall clocks: the 0.8 s cycle
	// of a C=4 Streaming RAID farm becomes 20 ms.
	pacedSpeedup = 40
	pacedZipf    = 1.0
	// pacedHeartbeat is how often the coordinator pushes views and
	// collects the session counts it balances admissions by.
	pacedHeartbeat = 250 * time.Millisecond
)

// pacedRig is the system as deployed, in one process.
type pacedRig struct {
	sz    pacedSizing
	nodes []*node.Node
	coord *netserve.Coordinator
	names []string
	cat   *catalog
	tCyc  time.Duration // wall-clock cycle after the speed-up
	// verified counts every track any session has checked.
	verified atomic.Int64
	active   map[string]*nodeLoad
}

// nodeLoad tracks a node's concurrent sessions as the clients see them.
type nodeLoad struct {
	now, peak atomic.Int64
}

func buildPacedRig(sz pacedSizing, cat *catalog) (*pacedRig, error) {
	rig := &pacedRig{cat: cat, active: make(map[string]*nodeLoad)}
	ids := make([]string, sz.nodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("node%d", i)
		rig.active[ids[i]] = &nodeLoad{}
	}
	plCfg := cluster.PlacementConfig{Seed: 1, Replicas: 2}
	pl := cluster.Assign(cat.names, ids, plCfg)
	var members []cluster.Member
	for _, id := range ids {
		n, err := node.Start(node.Config{
			ID: id, Scheme: "sr", Disks: wireDisks, Cluster: wireCluster, K: 2,
			Titles: pl.Titles(id), Groups: sz.groups,
			Clock: netserve.WallClock(pacedSpeedup),
		})
		if err != nil {
			rig.close(nil)
			return nil, err
		}
		n.NS().ScheduleFailure(sz.failCycle, 1)
		n.NS().ScheduleRebuild(sz.rebuildCycle, 1, sz.rebuildBudget)
		rig.nodes = append(rig.nodes, n)
		members = append(members, cluster.Member{ID: id, Addr: n.Addr()})
	}
	coord, err := netserve.NewCoordinator(netserve.CoordinatorOptions{
		Nodes: members, Titles: cat.names, Placement: plCfg,
		HeartbeatInterval: pacedHeartbeat,
	})
	if err != nil {
		rig.close(nil)
		return nil, err
	}
	coord.Tick() // disseminate the first view before the first admission
	rig.coord = coord
	rig.tCyc = time.Duration(float64(rig.nodes[0].NS().CycleTime()) / pacedSpeedup)
	return rig, nil
}

// close drains the nodes and checks nothing leaked; with res nil (a
// discarded set-up) it only tears down.
func (rig *pacedRig) close(res *result) {
	if rig.coord != nil {
		rig.coord.Close()
	}
	for _, n := range rig.nodes {
		if res != nil {
			if err := n.Drain(waitLimit); err != nil {
				res.violate("%s: %v", n.ID(), err)
			}
			// The engine holds a cycle's buffers for two more Steps.
			for i := 0; i < 3; i++ {
				_ = n.NS().StepCycle()
			}
			if g := n.Server().Metrics().Snapshot().Gauges["net_sessions_active"].Value; g != 0 {
				res.violate("%s: net_sessions_active is %d after the drain", n.ID(), g)
			}
		}
		n.Close()
		if res != nil {
			out := n.Server().Engine().Arena().Outstanding()
			if out != 0 {
				res.violate("%s: %d track buffers outstanding after the drain", n.ID(), out)
			}
			res.values["buffer.outstanding_end"] += float64(out)
		}
	}
}

// pacedSession is one viewer's record.
type pacedSession struct {
	index    int
	due      time.Duration // offset from the run's start
	measured bool          // due after the warm-up
	slice    int           // which slice of the measured window it is due in
	lateNs   float64       // how late the generator issued it

	ok         bool
	tracks     int
	redirectNs float64 // dial coordinator + ADMIT -> REDIRECT
	admitNs    float64 // dial node + ADMIT -> ADMIT-OK
	firstNs    float64 // ADMIT-OK -> first verified track
	startupNs  float64 // due -> first verified track
	doneAt     time.Duration
	burstLate  []float64 // per burst n >= 1: verified - (first burst + n*T_cyc), ns
	gaps       []float64 // inter-burst gaps, ns
}

// play runs one session: coordinator leg, node leg, stream to BYE.
func (rig *pacedRig) play(s *pacedSession, title string, start time.Time, tb *spanBuf, bad *violationLog, rejects *atomic.Int64) {
	dueAt := start.Add(s.due)
	id := int64(s.index)
	rootID := tb.newID()
	content := rig.cat.content[title]
	fail := func(format string, args ...any) {
		bad.add("session %d on %s: %s", s.index, title, fmt.Sprintf(format, args...))
	}

	// Coordinator leg: the answer to ADMIT is a REDIRECT to a holder.
	t0 := time.Now()
	cl, err := netserve.Dial(rig.coord.Addr().String(), waitLimit)
	if err != nil {
		fail("dial coordinator: %v", err)
		return
	}
	_, err = cl.Admit(title)
	cl.Close()
	t1 := time.Now()
	var rd *netserve.RedirectedError
	if !errors.As(err, &rd) {
		var rej *netserve.RejectedError
		if errors.As(err, &rej) {
			rejects.Add(1)
		}
		fail("coordinator answered %v, want a redirect", err)
		return
	}
	s.redirectNs = float64(t1.Sub(t0).Nanoseconds())
	tb.record("coordinator.admit", t0, t1, rootID, id)

	// Node leg.
	cl, err = netserve.Dial(rd.Redirect.Addr, waitLimit)
	if err != nil {
		fail("dial %s: %v", rd.Redirect.NodeID, err)
		return
	}
	defer cl.Close()
	cl.ReuseBuffers(true)
	ok, err := cl.Admit(title)
	t2 := time.Now()
	if err != nil {
		var rej *netserve.RejectedError
		if errors.As(err, &rej) {
			rejects.Add(1)
		}
		fail("admit on %s: %v", rd.Redirect.NodeID, err)
		return
	}
	s.admitNs = float64(t2.Sub(t1).Nanoseconds())
	tb.record("node.admit", t1, t2, rootID, id)
	if load := rig.active[ok.NodeID]; load != nil {
		if n := load.now.Add(1); n > load.peak.Load() {
			load.peak.Store(n) // a lost race only under-reports the peak by one
		}
		defer load.now.Add(-1)
	}

	var firstBurst, lastBurst time.Time
	next := 0
	for {
		ev, err := cl.Next()
		if err != nil {
			fail("read after track %d: %v", next, err)
			return
		}
		switch {
		case ev.Bye != nil:
			end := time.Now()
			if ev.Bye.Reason != "finished" || next != ok.Tracks {
				fail("BYE %q at track %d of %d", ev.Bye.Reason, next, ok.Tracks)
				return
			}
			s.ok = true
			s.doneAt = end.Sub(start)
			if !firstBurst.IsZero() {
				tb.record("stream", firstBurst, end, rootID, id)
			}
			tb.add(rootID, "session", dueAt, end, 0, id)
			return
		case ev.Hiccup != nil:
			fail("HICCUP for track %d (%s)", ev.Hiccup.Track, ev.Hiccup.Reason)
			next = ev.Hiccup.Track + 1
		case ev.Data != nil:
			if ev.Track != next {
				fail("track %d arrived, %d was owed", ev.Track, next)
				next = ev.Track
			}
			if err := trace.CheckTrack(content, rig.cat.trackSize, ev.Track, ev.Data); err != nil {
				fail("%v", err)
			} else {
				s.tracks++
				rig.verified.Add(1)
			}
			next++
			if next%ok.Burst != 0 {
				continue
			}
			// A whole burst is verified.
			now := time.Now()
			if firstBurst.IsZero() {
				firstBurst = now
				s.firstNs = float64(now.Sub(t2).Nanoseconds())
				s.startupNs = float64(now.Sub(dueAt).Nanoseconds())
				tb.record("first_track_wait", t2, now, rootID, id)
			} else {
				n := next/ok.Burst - 1
				s.burstLate = append(s.burstLate, float64(now.Sub(firstBurst.Add(time.Duration(n)*rig.tCyc)).Nanoseconds()))
				s.gaps = append(s.gaps, float64(now.Sub(lastBurst).Nanoseconds()))
			}
			lastBurst = now
		}
	}
}

// pacedSchedule is the open-loop arrival schedule: a Poisson process
// conditioned on its count. The number of arrivals in the warm-up and in
// the measured window is fixed by their lengths (so the tracks owed do
// not vary with the seed), the exponential gaps and Zipf titles are
// seeded, and each segment's times are scaled so its last arrival closes
// it. It returns the sessions, their titles, and how many are warm-up.
func pacedSchedule(cfg runConfig, sz pacedSizing, names []string) ([]*pacedSession, []string, int, error) {
	warm := time.Duration(cfg.warmup * float64(time.Second))
	window := time.Duration(cfg.seconds * float64(time.Second))
	nWarm := int(sz.arrivalsPerSecond * cfg.warmup)
	n := nWarm + max(int(sz.arrivalsPerSecond*cfg.seconds), nSlices)
	gen, err := workload.New(workload.Config{Seed: cfg.seed, Objects: names, ZipfS: pacedZipf, ArrivalsPerSecond: sz.arrivalsPerSecond})
	if err != nil {
		return nil, nil, 0, err
	}
	reqs := gen.Generate(n)
	split := time.Duration(0)
	if nWarm > 0 {
		split = reqs[nWarm-1].At
	}
	sessions := make([]*pacedSession, n)
	titles := make([]string, n)
	for i, rq := range reqs {
		s := &pacedSession{index: i, measured: i >= nWarm}
		if s.measured {
			s.due = warm + time.Duration(float64(rq.At-split)/float64(reqs[n-1].At-split)*float64(window))
			s.slice = sliceOf(int(s.due-warm), int(window)+1)
		} else {
			s.due = time.Duration(float64(rq.At) / float64(split) * float64(warm))
		}
		sessions[i], titles[i] = s, rq.ObjectID
	}
	return sessions, titles, nWarm, nil
}

func runClusterPaced(cfg runConfig) (*result, error) {
	sz := pacedFull
	if cfg.toy {
		sz = pacedToy
	}
	res := newResult("cluster-paced")
	// Placement hashes title names, so they stay the same from seed to
	// seed; the seed drives arrival times and the Zipf draw.
	cat := newCatalog("title", sz.titles, sz.groups*(wireCluster-1))
	rig, secs, err := repeatSetup(
		func() (*pacedRig, error) { return buildPacedRig(sz, cat) },
		func(r *pacedRig) { r.close(nil) },
	)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res.set("setup_s", median(secs))

	warm := time.Duration(cfg.warmup * float64(time.Second))
	sessions, titles, nWarm, err := pacedSchedule(cfg, sz, cat.names)
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var bad violationLog
	var rejects atomic.Int64
	var wg sync.WaitGroup
	var before procSample
	var snapBefore []metrics.Snapshot
	start := time.Now()
	// Per-slice CPU: the dispatcher reads the process's CPU time and the
	// clients' verified-track count whenever the schedule crosses into
	// the next slice.
	var sliceCPU, sliceTracks [nSlices + 1]float64
	nextSlice := 0
	for i, s := range sessions {
		if i == nWarm {
			before = sampleProc()
			snapBefore = rig.snapshots()
		}
		if d := time.Until(start.Add(s.due)); d > 0 {
			time.Sleep(d)
		}
		if s.measured && s.slice >= nextSlice {
			sliceCPU[nextSlice], sliceTracks[nextSlice] = float64(cpuTime().Nanoseconds()), float64(rig.verified.Load())
			nextSlice++
		}
		s.lateNs = float64(time.Since(start.Add(s.due)).Nanoseconds())
		var tb *spanBuf
		if cfg.trace && s.measured && tracedSlice(s.slice) {
			tb = tr.buf()
		}
		wg.Add(1)
		go func(title string) {
			defer wg.Done()
			rig.play(s, title, start, tb, &bad, &rejects)
		}(titles[i])
	}
	wg.Wait()
	sliceCPU[nSlices], sliceTracks[nSlices] = float64(cpuTime().Nanoseconds()), float64(rig.verified.Load())
	after := sampleProc()
	snapAfter := rig.snapshots()
	rig.close(res)
	bad.drainInto(res)

	// Fold the sessions: whole-window throughput, per-slice medians for
	// CPU and the latencies.
	var gaps, startups [nSlices][]float64
	var allLate, allStartup, allGaps, redirect, admit, first, late []float64
	var verified, owed, completed, started int64
	lastDone := warm
	for _, s := range sessions {
		if !s.measured {
			continue
		}
		started++
		owed += int64(cat.tracks)
		verified += int64(s.tracks)
		late = append(late, s.lateNs)
		if !s.ok {
			continue
		}
		completed++
		lastDone = max(lastDone, s.doneAt)
		gaps[s.slice] = append(gaps[s.slice], s.gaps...)
		startups[s.slice] = append(startups[s.slice], s.startupNs)
		allLate = append(allLate, s.burstLate...)
		allStartup = append(allStartup, s.startupNs)
		allGaps = append(allGaps, s.gaps...)
		redirect = append(redirect, s.redirectNs)
		admit = append(admit, s.admitNs)
		first = append(first, s.firstNs)
	}
	var cyc, startup [nSlices]float64
	for s := 0; s < nSlices; s++ {
		cyc[s] = median(gaps[s]) / 1e6
		startup[s] = median(startups[s]) / 1e6
	}
	measuredFor := (lastDone - warm).Seconds()
	res.set("tracks_per_s", float64(verified)/measuredFor)
	var cpu, tracksPerCPUSecond [nSlices]float64
	for s := 0; s < nSlices; s++ {
		cpu[s] = (sliceCPU[s+1] - sliceCPU[s]) / 1e3 / max(sliceTracks[s+1]-sliceTracks[s], 1)
		tracksPerCPUSecond[s] = 1e6 / cpu[s]
	}
	res.setSlices("cpu_us_per_track", cpu[:])
	res.setSlices("cycle_ms", cyc[:])
	res.setSlices("startup_ms", startup[:])
	res.samples["cycle_ms"] = len(allGaps)
	res.samples["startup_ms"] = len(allStartup)
	res.setLoss(verified, owed-verified)
	res.failed = owed - verified

	res.setQuantiles("coordinator.redirect_us", redirect, 1e-3)
	res.set("coordinator.rejects", float64(rejects.Load()))
	res.set("node.admit_us_p50", median(admit)/1e3)
	res.set("netserve.admit_us_p50", median(admit)/1e3)
	res.set("node.first_track_ms_p50", median(first)/1e6)
	peak := int64(0)
	for _, l := range rig.active {
		peak = max(peak, l.peak.Load())
	}
	res.set("node.sessions_max", float64(peak))
	res.setQuantiles("client.gap_ms", allGaps, 1e-6)
	res.set("client.burst_late_ms_p50", median(allLate)/1e6)
	res.samples["client.burst_late_ms_p50"] = len(allLate)
	res.set("client.cycle_ms_p99", p99(allLate)/1e6)
	res.set("client.startup_ms_p99", p99(allStartup)/1e6)
	res.set("client.pace_err_pct", 100*math.Abs(median(allGaps)-float64(rig.tCyc.Nanoseconds()))/float64(rig.tCyc.Nanoseconds()))
	res.set("loadgen.late_ms_p99", p99(late)/1e6)
	res.samples["loadgen.late_ms_p99"] = len(late)
	res.set("loadgen.sessions_started", float64(started))
	res.set("loadgen.sessions_completed", float64(completed))
	if p := res.values["loadgen.late_ms_p99"]; p > float64(rig.tCyc.Milliseconds())/4 {
		res.unresolved = append(res.unresolved, fmt.Sprintf("loadgen.late_ms_p99 is %.2f ms (> T_cyc/4): the generator could not hold its schedule", p))
	}
	setNetserveCounters(res, mergeSnapshots(snapBefore), mergeSnapshots(snapAfter))
	res.set("netserve.allocs_per_track", float64(after.mallocs-before.mallocs)/float64(max(verified, 1)))
	res.set("netserve.alloc_b_per_track", float64(after.bytes-before.bytes)/float64(max(verified, 1)))
	res.setProcMetrics(before, after)
	if cfg.trace {
		res.spans = tr.all()
		res.set("trace.spans", float64(len(res.spans)))
		// Throughput is pinned by the arrival schedule here, so tracing
		// cannot lower it; its cost shows as CPU per track instead.
		res.set("trace.overhead_pct", overheadPct(tracksPerCPUSecond[:]))
		probeLayers(res, cat.trackSize, cfg.probeBudget())
	}
	return res, nil
}

// snapshots reads every node's registry.
func (rig *pacedRig) snapshots() []metrics.Snapshot {
	out := make([]metrics.Snapshot, len(rig.nodes))
	for i, n := range rig.nodes {
		out[i] = n.Server().Metrics().Snapshot()
	}
	return out
}

// mergeSnapshots sums counters and histogram Sum/Count over the nodes.
func mergeSnapshots(snaps []metrics.Snapshot) metrics.Snapshot {
	m := metrics.Snapshot{Counters: map[string]int64{}, Histograms: map[string]metrics.HistogramValue{}}
	for _, s := range snaps {
		for k, v := range s.Counters {
			m.Counters[k] += v
		}
		for k, v := range s.Histograms {
			h := m.Histograms[k]
			h.Count += v.Count
			h.Sum += v.Sum
			m.Histograms[k] = h
		}
	}
	return m
}
