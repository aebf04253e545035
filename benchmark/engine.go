package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ftmm/internal/analytic"
	"ftmm/internal/diskmodel"
	"ftmm/internal/server"
	"ftmm/internal/trace"
	"ftmm/internal/units"
)

// engineSizing shapes the engine-* rigs.
type engineSizing struct {
	// groups is a multiple of the cluster count, so a stream that ends
	// and its replacement land on the same cluster rotation and the
	// farm stays evenly loaded.
	titles, groups int
	// cyclesPerSecond is, per scheme, how many measured cycles to run
	// for each second of the window. Cycle counts are fixed by the
	// window length, not by a stopwatch, so every count the engines
	// report is exact for a seed. The constants give each scheme a tenth
	// to a sixth of the window (Step plus the verification between steps,
	// which costs about as much as the engine) on a 2-core 2.1 GHz box,
	// by how busy its host is: a run must still end in time when the host
	// halves the speed of the box, as this one does for minutes on end.
	cyclesPerSecond map[string]float64
}

var engineFull = engineSizing{
	titles: 8, groups: 60,
	cyclesPerSecond: map[string]float64{"sr": 9, "sg": 42, "nc": 46, "ib": 11, "dc": 20},
}

var engineToy = engineSizing{
	titles: 4, groups: 3,
	cyclesPerSecond: map[string]float64{"sr": 50, "sg": 50, "nc": 50, "ib": 50, "dc": 50},
}

// Farm shape: 20 drives in clusters of 5 with reserve K=2; declustered
// parity runs on 18 drives as two G=9 declustering groups.
const (
	engineDisks   = 20
	engineCluster = 5
	engineK       = 2
	dcDisks       = 18
	dcGroup       = 9
	// rebuildBudget is the spare reads per cycle granted to the online
	// rebuild in engine-degraded.
	rebuildBudget = 16
)

// engineRig is one scheme's server with its catalog staged.
type engineRig struct {
	id      string
	scheme  analytic.Scheme
	srv     *server.Server
	cat     *catalog
	disks   int
	group   int // drives per failure domain: C, or G under dc
	stageMs []float64
}

func buildEngineRig(id string, cat *catalog, sz engineSizing) (*engineRig, error) {
	scheme, policy, err := server.ParseScheme(id)
	if err != nil {
		return nil, err
	}
	rig := &engineRig{id: id, scheme: scheme, cat: cat, disks: engineDisks, group: engineCluster}
	opts := server.Options{
		ClusterSize: engineCluster, Scheme: scheme, K: engineK, NCPolicy: policy,
	}
	if id == "dc" {
		rig.disks, rig.group = dcDisks, dcGroup
		opts.DeclusterGroup = dcGroup
	}
	opts.Disks = rig.disks
	opts.DiskParams = farmParams(sz.titles, sz.groups, rig.disks, engineCluster)
	if rig.srv, err = server.New(opts); err != nil {
		return nil, err
	}
	if rig.stageMs, err = stageCatalog(rig.srv, cat); err != nil {
		return nil, err
	}
	return rig, nil
}

// cyclesPerGroup is how many cycles a stream spends on one parity
// group: the whole-group schemes deliver C-1 tracks a cycle, the
// staggered ones a single track.
func (rig *engineRig) cyclesPerGroup() int {
	if rig.id == "sg" || rig.id == "nc" {
		return rig.srv.GroupWidth()
	}
	return 1
}

// analyticConfig is the paper's design point for this rig.
func (rig *engineRig) analyticConfig() analytic.Config {
	cfg := analytic.Config{
		Disk: diskmodel.Table1(), ObjectRate: units.MPEG1,
		D: rig.disks, C: engineCluster, K: engineK,
	}
	if rig.id == "dc" {
		cfg.G = dcGroup
	}
	return cfg
}

// engStream is the benchmark's ledger for one admitted stream.
type engStream struct {
	slot         // where a replacement goes when this stream ends
	next     int // next track owed
	end      int // one past the last track
	reqClock time.Duration
	reqDur   time.Duration
	started  bool
}

// sliceAcc accumulates one slice of one scheme's measured cycles.
type sliceAcc struct {
	stepNs    float64 // time inside Step
	cpuNs     float64 // process CPU time over the slice, verification included
	tracks    float64
	steps     []float64 // per-cycle Step time, ns
	startups  []float64 // ns
	requestUs []float64
}

// engineRun drives one scheme's engine: admission, stepping,
// verification of every delivered byte, replacement of finished
// streams, and the ledger of what was lost.
type engineRun struct {
	rig     *engineRig
	res     *result
	streams map[int]*engStream
	// phases holds, per title, the start offsets not yet in use. Streams
	// of a title are kept at distinct offsets so that no two are ever on
	// the same parity group in the same cycle: the merged-read cache
	// must never hit in these workloads.
	phases  [][]int
	pending []slot // replacement streams not yet admitted
	replace bool   // finished streams are replaced (off during the drain)

	clock    time.Duration // sum of Step time: the engine's own clock
	cycle    int
	verified int64
	lost     int64
	failed   int64
	rejects  int
	lockstep int
	seen     map[trackKey]struct{}

	cur *sliceAcc // slice being measured, nil during warm-up and drain
	tb  *spanBuf  // non-nil while spans are being recorded
}

// slot names a stream's place in the rotation: its title and its fixed
// offset. A stream admitted in cycle c for slot (title, phase) starts at
// group phase+c, so whenever the slot is refilled — at the next boundary
// or after a refusal — the new stream is on the group the old one would
// have reached, and slots of one title never meet on a group.
type slot struct{ title, phase int }

type trackKey struct {
	title string
	track int
}

func newEngineRun(rig *engineRig, res *result, seed int64) *engineRun {
	rng := rand.New(rand.NewSource(seed))
	r := &engineRun{rig: rig, res: res, replace: true, streams: make(map[int]*engStream), seen: make(map[trackKey]struct{})}
	groups := rig.cat.tracks / rig.srv.GroupWidth()
	for range rig.cat.names {
		r.phases = append(r.phases, rng.Perm(groups))
	}
	return r
}

// request admits one stream into the slot.
func (r *engineRun) request(sl slot) error {
	gw := r.rig.srv.GroupWidth()
	startGroup := (sl.phase + r.cycle/r.rig.cyclesPerGroup()) % (r.rig.cat.tracks / gw)
	t0 := time.Now()
	id, _, err := r.rig.srv.RequestAt(r.rig.cat.names[sl.title], startGroup)
	dur := time.Since(t0)
	if r.cur != nil {
		r.cur.requestUs = append(r.cur.requestUs, float64(dur.Nanoseconds())/1e3)
	}
	if err != nil {
		return err
	}
	r.streams[id] = &engStream{slot: sl, next: startGroup * gw, end: r.rig.cat.tracks, reqClock: r.clock, reqDur: dur}
	return nil
}

// fill admits streams until the engine refuses every candidate. The
// staggered schemes cap admissions per phase of the cycle, so filling
// runs over several cycles and ends once a full group's worth of cycles
// admitted nothing.
func (r *engineRun) fill() error {
	idle := 0
	for idle < 2*engineCluster {
		// Streams that finished while filling get their slot back first;
		// only what is left goes to new slots.
		if err := r.readmit(); err != nil {
			return err
		}
		admitted := 0
		for progress := true; progress; {
			progress = false
			for title := range r.phases {
				// A refusal may be about the cluster this offset lands on,
				// so try a few offsets before giving the title up.
				for try := 0; try < engineCluster && len(r.phases[title]) > 0; try++ {
					p := r.phases[title][0]
					r.phases[title] = r.phases[title][1:]
					err := r.request(slot{title, p})
					if err == nil {
						admitted++
						progress = true
						break
					}
					if !errors.Is(err, server.ErrRejected) {
						return err
					}
					r.phases[title] = append(r.phases[title], p)
				}
			}
		}
		if admitted == 0 {
			idle++
		} else {
			idle = 0
		}
		if err := r.step(); err != nil {
			return err
		}
	}
	// Slots still waiting lost their place to a later admission while the
	// farm was filling; the farm is full without them.
	r.pending = r.pending[:0]
	return nil
}

// readmit retries, at the cycle boundary, the replacement of every
// stream that finished or was terminated.
func (r *engineRun) readmit() error {
	kept := r.pending[:0]
	for _, sl := range r.pending {
		err := r.request(sl)
		switch {
		case err == nil:
		case errors.Is(err, server.ErrRejected):
			r.rejects++
			kept = append(kept, sl)
		default:
			return err
		}
	}
	r.pending = kept
	return nil
}

// step runs one cycle: replace finished streams, Step (the only call
// inside the timed region), then verify everything the report delivered.
func (r *engineRun) step() error {
	cycleStart := time.Now()
	cycleID := r.tb.newID()
	if err := r.readmit(); err != nil {
		return err
	}
	t0 := time.Now()
	rep, err := r.rig.srv.Step()
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("%s: step %d: %w", r.rig.id, r.cycle, err)
	}
	dt := t1.Sub(t0)
	r.clock += dt
	trackSize := r.rig.cat.trackSize
	// Lockstep is only defined (and only matters: sr and dc merge
	// same-group reads) where a cycle is a whole group.
	lockstepMatters := r.rig.cyclesPerGroup() == 1
	if lockstepMatters {
		clear(r.seen)
	}
	// A report lists a stream's lost tracks apart from its delivered
	// ones, so the ledger steps over a declared loss wherever it falls
	// in the stream's run of tracks for this cycle.
	var lostNow map[[2]int]bool
	if len(rep.Hiccups) > 0 {
		lostNow = make(map[[2]int]bool, len(rep.Hiccups))
		for i := range rep.Hiccups {
			lostNow[[2]int{rep.Hiccups[i].StreamID, rep.Hiccups[i].Track}] = true
		}
		r.lost += int64(len(rep.Hiccups))
	}
	skipLost := func(id int, st *engStream) {
		for lostNow[[2]int{id, st.next}] {
			st.next++
		}
	}
	for i := range rep.Delivered {
		d := &rep.Delivered[i]
		st := r.streams[d.StreamID]
		if st == nil {
			r.failed++
			r.res.violate("%s cycle %d: delivery for unknown stream %d", r.rig.id, r.cycle, d.StreamID)
			continue
		}
		skipLost(d.StreamID, st)
		if d.Track != st.next {
			r.failed++
			r.res.violate("%s cycle %d: stream %d delivered track %d, owed %d", r.rig.id, r.cycle, d.StreamID, d.Track, st.next)
			st.next = d.Track
		}
		if err := trace.CheckTrack(r.rig.cat.content[d.ObjectID], trackSize, d.Track, d.Data); err != nil {
			r.failed++
			r.res.violate("%s cycle %d: stream %d: %v", r.rig.id, r.cycle, d.StreamID, err)
		} else {
			r.verified++
		}
		st.next++
		if !st.started {
			st.started = true
			if r.cur != nil {
				r.cur.startups = append(r.cur.startups, float64((r.clock - st.reqClock + st.reqDur).Nanoseconds()))
			}
		}
		if lockstepMatters {
			key := trackKey{d.ObjectID, d.Track}
			if _, dup := r.seen[key]; dup {
				r.lockstep++
			}
			r.seen[key] = struct{}{}
		}
	}
	for i := range rep.Hiccups {
		if st := r.streams[rep.Hiccups[i].StreamID]; st != nil {
			skipLost(rep.Hiccups[i].StreamID, st)
		}
	}
	for _, id := range rep.Finished {
		if st := r.streams[id]; st != nil {
			if st.next != st.end {
				r.failed += int64(st.end - st.next)
				r.res.violate("%s cycle %d: stream %d finished at track %d of %d", r.rig.id, r.cycle, id, st.next, st.end)
			}
			r.retire(id, st)
		}
	}
	for _, id := range rep.Terminated {
		if st := r.streams[id]; st != nil {
			r.lost += int64(st.end - st.next)
			r.retire(id, st)
		}
	}
	if r.cur != nil {
		r.cur.stepNs += float64(dt.Nanoseconds())
		r.cur.tracks += float64(len(rep.Delivered))
		r.cur.steps = append(r.cur.steps, float64(dt.Nanoseconds()))
	}
	if r.tb != nil {
		end := time.Now()
		id := int64(r.cycle)
		r.tb.record("server.RequestAt", cycleStart, t0, cycleID, id)
		r.tb.record("server.Step", t0, t1, cycleID, id)
		r.tb.record("bench.verify", t1, end, cycleID, id)
		r.tb.add(cycleID, "cycle", cycleStart, end, 0, id)
	}
	r.cycle++
	return nil
}

func (r *engineRun) retire(id int, st *engStream) {
	delete(r.streams, id)
	if r.replace {
		r.pending = append(r.pending, st.slot)
	}
}

// drain stops replacing streams and runs the engine dry, then checks
// that every track buffer went back to the arena.
func (r *engineRun) drain() error {
	r.replace, r.pending = false, nil
	limit := r.rig.cat.tracks + 16
	for i := 0; r.rig.srv.Engine().Active() > 0; i++ {
		if i > limit {
			return fmt.Errorf("%s: %d streams still active %d cycles into the drain", r.rig.id, r.rig.srv.Engine().Active(), limit)
		}
		if err := r.step(); err != nil {
			return err
		}
	}
	// The engine holds each delivered buffer for two more Steps.
	for i := 0; i < 3; i++ {
		if err := r.step(); err != nil {
			return err
		}
	}
	return nil
}

// engineEvent is a fault injected at the first cycle of a slice.
type engineEvent struct {
	slice int
	apply func(rig *engineRig) error
}

// engineScenario is what happens to the farms during the measured
// cycles: the events, each of which starts a new phase.
type engineScenario struct {
	events []engineEvent
}

// phases groups the slices that did the same work under the same faults:
// repeat measurements of one quantity, which slices of different phases
// are not. A new phase starts with every event, and a slice the rebuild
// ran in is a phase of its own — it is like no other slice, and what the
// rebuild costs has to stay in the sums.
func (sc engineScenario) phases(rebuilding [nSlices]bool) [][]int {
	var groups [][]int
	newPhase := true
	for s := 0; s < nSlices; s++ {
		for _, ev := range sc.events {
			newPhase = newPhase || ev.slice == s
		}
		if newPhase || rebuilding[s] {
			groups = append(groups, nil)
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], s)
		newPhase = rebuilding[s]
	}
	return groups
}

// rebuildTrack follows the online rebuild from outside.
type rebuildTrack struct {
	startCycle, endCycle int
	tracks               int
}

// schemeOutcome is what one scheme's run contributes to the workload.
type schemeOutcome struct {
	slices  [nSlices]sliceAcc
	phases  [][]int // slices that did the same work (engineScenario.phases)
	setup   []float64
	cycles  int
	stats   server.Stats // measured window only
	allocKB float64
	mallocs float64
	news    float64
	workers int // goroutines the engine spreads a cycle's clusters over

	verified, lost, failed int64
}

func runEngineNormal(cfg runConfig) (*result, error) {
	return runEngine("engine-normal", cfg, engineScenario{})
}

func runEngineDegraded(cfg runConfig) (*result, error) {
	// Drive 1 of the first and third cluster (dc: of each declustering
	// group) fails 10 % into the measured cycles; 40 % in, the first of
	// them is replaced and rebuilt online beside service.
	drives := func(rig *engineRig) (int, int) {
		if rig.id == "dc" {
			return 1, rig.group + 1
		}
		return 1, 2*rig.group + 1
	}
	return runEngine("engine-degraded", cfg, engineScenario{
		events: []engineEvent{
			{nSlices / 10, func(rig *engineRig) error {
				a, b := drives(rig)
				if err := rig.srv.FailDisk(a); err != nil {
					return err
				}
				return rig.srv.FailDisk(b)
			}},
			{4 * nSlices / 10, func(rig *engineRig) error {
				a, _ := drives(rig)
				return rig.srv.StartOnlineRebuild(a, rebuildBudget)
			}},
		},
	})
}

// lane is one scheme's engine through a run. The five lanes take turns,
// one slice each, so every scheme's slices are spread over the whole
// window and a few bad seconds on the box cost each scheme one slice
// instead of costing one scheme all of its slices.
type lane struct {
	rig      *engineRig
	run      *engineRun
	o        *schemeOutcome
	scenario engineScenario
	measured int // measured cycles in all
	failAt   int
	rb       rebuildTrack
	// rebuilding marks the slices the online rebuild ran in.
	rebuilding [nSlices]bool
	tb         *spanBuf

	statsBefore server.Stats
	newsBefore  int64
}

// startLane builds one scheme's rig, fills it and runs its warm-up.
func startLane(id string, cat *catalog, sz engineSizing, cfg runConfig, sc engineScenario, res *result, tr *tracer) (*lane, error) {
	rig, secs, err := repeatSetup(
		func() (*engineRig, error) { return buildEngineRig(id, cat, sz) },
		func(*engineRig) {},
	)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", id, err)
	}
	ln := &lane{
		rig: rig, run: newEngineRun(rig, res, cfg.seed), o: &schemeOutcome{setup: secs},
		scenario: sc, tb: tr.buf(),
		measured: max(int(sz.cyclesPerSecond[id]*cfg.seconds), nSlices),
	}
	if err := ln.run.fill(); err != nil {
		return nil, fmt.Errorf("%s: admission: %w", id, err)
	}
	for i := int(sz.cyclesPerSecond[id] * cfg.warmup); i > 0; i-- {
		if err := ln.run.step(); err != nil {
			return nil, err
		}
	}
	res.set("schemes."+id+".streams_admitted", float64(rig.srv.Engine().Active()))
	ln.statsBefore = rig.srv.Stats()
	_, _, ln.newsBefore = rig.srv.Engine().Arena().Stats()
	return ln, nil
}

// runSlice runs slice s of the lane's measured cycles. Step times are
// kept less the host's share of the slice (ranShare).
func (ln *lane) runSlice(s int) error {
	rig, run, acc := ln.rig, ln.run, &ln.o.slices[s]
	lo, hi := s*ln.measured/nSlices, (s+1)*ln.measured/nSlices
	for i, ev := range ln.scenario.events {
		if ev.slice != s {
			continue
		}
		if err := ev.apply(rig); err != nil {
			return fmt.Errorf("%s: event at cycle %d: %w", rig.id, lo, err)
		}
		if i == 0 {
			ln.failAt = lo
		} else {
			ln.rb.startCycle, ln.rb.tracks = lo, rig.srv.RebuildRemaining()
		}
	}
	ln.rebuilding[s] = rig.srv.RebuildRemaining() > 0
	run.cur, run.tb = acc, nil
	if tracedSlice(s) {
		run.tb = ln.tb
	}
	heap0 := sampleProc()
	c0 := readClocks()
	for c := lo; c < hi; c++ {
		if err := run.step(); err != nil {
			return err
		}
		if ln.rb.tracks > 0 && ln.rb.endCycle == 0 && rig.srv.RebuildRemaining() == 0 {
			ln.rb.endCycle = c + 1
		}
	}
	c1 := readClocks()
	heap1 := sampleProc()
	run.cur, run.tb = nil, nil

	share := ranShare(c0, c1)
	acc.stepNs *= share
	for i := range acc.steps {
		acc.steps[i] *= share
	}
	for i := range acc.startups {
		acc.startups[i] *= share
	}
	// CPU time is read per slice, not around each Step: the kernel
	// brings a thread's CPU time up to date when the thread itself asks
	// or stops running, so a reading taken the moment Step returns misses
	// most of what the engine's other workers just burned.
	acc.cpuNs = float64((c1.cpu - c0.cpu).Nanoseconds())
	ln.o.mallocs += float64(heap1.mallocs - heap0.mallocs)
	ln.o.allocKB += float64(heap1.bytes-heap0.bytes) / 1024
	return nil
}

// finish drains the lane, checks nothing leaked and reports the scheme's
// own metrics.
func (ln *lane) finish(res *result) (*schemeOutcome, error) {
	rig, run, o, id := ln.rig, ln.run, ln.o, ln.rig.id
	_, _, newsAfter := rig.srv.Engine().Arena().Stats()
	o.cycles = ln.measured
	o.phases = ln.scenario.phases(ln.rebuilding)
	o.workers = min(runtime.GOMAXPROCS(0), rig.disks/rig.group)
	o.stats = rig.srv.Stats()
	o.stats.DataReads -= ln.statsBefore.DataReads
	o.stats.ParityReads -= ln.statsBefore.ParityReads
	o.stats.Reconstructions -= ln.statsBefore.Reconstructions
	o.news = float64(newsAfter - ln.newsBefore)

	if err := run.drain(); err != nil {
		return nil, err
	}
	arena := rig.srv.Engine().Arena()
	if out := arena.Outstanding(); out != 0 {
		res.violate("%s: %d track buffers outstanding after the drain", id, out)
	}
	if in := rig.srv.Engine().BufferInUse(); in != 0 {
		res.violate("%s: %d buffer tracks in use after the drain", id, in)
	}
	if run.lockstep > 0 {
		res.violate("%s: %d deliveries shared a title and track within a cycle; streams were meant never to be in lockstep", id, run.lockstep)
	}
	o.verified, o.lost, o.failed = run.verified, run.lost, run.failed

	var steps []float64
	for s := range o.slices {
		steps = append(steps, o.slices[s].steps...)
	}
	res.setQuantiles("schemes."+id+".step_us", steps, 1e-3)
	res.set("schemes."+id+".allocs_per_step", o.mallocs/float64(ln.measured))
	acfg := rig.analyticConfig()
	if n, err := acfg.MaxStreamsInt(rig.scheme); err == nil {
		res.set("schemes."+id+".streams_analytic", float64(n))
	}
	if bf, err := acfg.BufferTracksInt(rig.scheme); err == nil {
		res.set("buffer."+id+".bf_analytic_tracks", float64(bf))
	}
	res.set("buffer."+id+".peak_tracks", float64(o.stats.BufferPeak))
	res.values["buffer.outstanding_end"] += float64(arena.Outstanding())
	res.values["schemes.readmit_rejects"] += float64(run.rejects)
	res.values["schemes.lockstep_pairs"] += float64(run.lockstep)
	res.set("server.stage_title_ms", median(rig.stageMs))
	if rb := ln.rb; len(ln.scenario.events) > 0 {
		res.values["rebuild.tracks_restored"] += float64(rb.tracks)
		if rb.endCycle == 0 {
			res.violate("%s: the online rebuild did not finish within the run", id)
		} else {
			res.values["rebuild.window_cycles"] += float64(rb.endCycle - rb.startCycle)
			degradedP50 := median(steps[ln.failAt:rb.startCycle])
			res.values["rebuild.step_extra_us"] += (median(steps[rb.startCycle:rb.endCycle]) - degradedP50) / 1e3
		}
	}
	return o, nil
}

func runEngine(name string, cfg runConfig, sc engineScenario) (*result, error) {
	sz := engineFull
	if cfg.toy {
		sz = engineToy
	}
	res := newResult(name)
	cat := newCatalog(fmt.Sprintf("s%d-e", cfg.seed), sz.titles, sz.groups*(engineCluster-1))
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	lanes := make([]*lane, len(schemeIDs))
	for i, id := range schemeIDs {
		ln, err := startLane(id, cat, sz, cfg, sc, res, tr)
		if err != nil {
			return nil, err
		}
		lanes[i] = ln
	}
	before := sampleProc()
	for s := 0; s < nSlices; s++ {
		for _, ln := range lanes {
			if err := ln.runSlice(s); err != nil {
				return nil, err
			}
		}
	}
	res.setProcMetrics(before, sampleProc())
	outcomes := make([]*schemeOutcome, len(lanes))
	for i, ln := range lanes {
		o, err := ln.finish(res)
		if err != nil {
			return nil, err
		}
		outcomes[i] = o
	}
	res.spans = tr.all()
	reportEngine(res, outcomes, cfg)
	if cfg.trace {
		// The probes price the layers on a heap of their own, not beside
		// five farms.
		lanes = nil
		runtime.GC()
		probeLayers(res, cat.trackSize, cfg.probeBudget())
		engineShares(res, outcomes)
		res.set("trace.spans", float64(len(res.spans)))
	}
	return res, nil
}

// reportEngine folds the five schemes' outcomes into the workload's
// metrics. Each scheme's calm cost (calmSum over its phases) is worked
// out on its own and the five are added up: throughput is all tracks over
// the five calm Step times, and the cycle and start-up latencies are
// summed scheme medians — the time for one cycle (one stream start) on
// each of the five engines — because the schemes' cycles differ tenfold
// and a pooled median would sit between two modes.
func reportEngine(res *result, outcomes []*schemeOutcome, cfg runConfig) {
	var setup, allocKB, cycles, news, dataReads, parityReads, recon float64
	var verified, lost, failed int64
	var requestUs []float64
	var tracks float64
	var stepNs, cpuNs, cycNs, startupNs calmAcc
	var sliceTracks, sliceStepNs [nSlices]float64 // all schemes, for trace.overhead_pct
	for _, o := range outcomes {
		setup += median(o.setup)
		verified += o.verified
		lost += o.lost
		failed += o.failed
		allocKB += o.allocKB
		cycles += float64(o.cycles)
		news += o.news
		dataReads += float64(o.stats.DataReads)
		parityReads += float64(o.stats.ParityReads)
		recon += float64(o.stats.Reconstructions)

		var n, perTrackStep, perTrackCPU, nCycles, cyc, nStarts, start [nSlices]float64
		for s := range o.slices {
			sl := &o.slices[s]
			requestUs = append(requestUs, sl.requestUs...)
			tracks += sl.tracks
			sliceTracks[s] += sl.tracks
			sliceStepNs[s] += sl.stepNs
			n[s] = sl.tracks
			if sl.tracks > 0 {
				perTrackStep[s], perTrackCPU[s] = sl.stepNs/sl.tracks, sl.cpuNs/sl.tracks
			}
			nCycles[s], cyc[s] = float64(len(sl.steps)), mean(sl.steps)
			nStarts[s], start[s] = float64(len(sl.startups)), mean(sl.startups)
		}
		stepNs.add(calmSum(perTrackStep[:], n[:], o.phases))
		cpuNs.add(calmSum(perTrackCPU[:], n[:], o.phases))
		cycNs.add(calmMean(cyc[:], nCycles[:], o.phases))
		startupNs.add(calmMean(start[:], nStarts[:], o.phases))
	}
	res.set("setup_s", setup)
	res.setCalm("tracks_per_s", tracks/(stepNs.total/1e9), stepNs)
	res.setCalm("cpu_us_per_track", cpuNs.total/1e3/tracks, cpuNs)
	res.setCalm("cycle_ms", cycNs.total/1e6, cycNs)
	res.setCalm("startup_ms", startupNs.total/1e6, startupNs)
	res.setLoss(verified, lost+failed)
	res.failed = failed
	res.set("schemes.alloc_kb_per_step", allocKB/cycles)
	res.set("buffer.arena_news_per_kcycle", news/cycles*1000)
	res.set("disk.data_reads_per_cycle", dataReads/cycles)
	res.set("disk.parity_reads_per_cycle", parityReads/cycles)
	res.set("parity.reconstructions_per_cycle", recon/cycles)
	res.set("server.request_us", median(requestUs))
	res.samples["server.request_us"] = len(requestUs)
	if cfg.trace {
		var tps [nSlices]float64
		for s := range tps {
			if sliceStepNs[s] > 0 {
				tps[s] = sliceTracks[s] / sliceStepNs[s]
			}
		}
		res.set("trace.overhead_pct", overheadPct(tps[:]))
	}
}

// engineShares turns the probes' unit costs and the engines' exact
// counts into each inner layer's computed share of Step time. The
// probes run on one goroutine while a Step spreads its clusters over
// the engine's workers, so each scheme's work is divided by that count.
func engineShares(res *result, outcomes []*schemeOutcome) {
	var stepUs, reads, recon float64
	for _, o := range outcomes {
		for s := range o.slices {
			stepUs += o.slices[s].stepNs / 1e3
		}
		reads += float64(o.stats.DataReads+o.stats.ParityReads) / float64(o.workers)
		recon += float64(o.stats.Reconstructions) / float64(o.workers)
	}
	if stepUs == 0 {
		return
	}
	disk := 100 * reads * res.values["disk.read_us_per_track"] / stepUs
	par := 100 * recon * res.values["parity.reconstruct_us"] / stepUs
	// Every track read or rebuilt takes one buffer from the arena and
	// returns it.
	buf := 100 * (reads + recon) * res.values["buffer.getput_ns"] / 1e3 / stepUs
	res.set("disk.share_pct", disk)
	res.set("parity.share_pct", par)
	res.set("schemes.self_pct", 100-disk-par-buf)
}
