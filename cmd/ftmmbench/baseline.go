// Performance-baseline mode: -bench-baseline <path> runs the data-path
// benchmark suite (one scheduling cycle per scheme, the netserve
// loopback delivery path, plus the parity substrate) via
// testing.Benchmark and writes ns/op, allocs/op, and the stream count
// to a BENCH_*.json file.
//
// If the output file already exists, its previous "benchmarks" section
// is carried forward as "pre_change" (unless it already carries one), so
// a committed baseline records both sides of an optimisation: write the
// old numbers once, re-run after the change, diff inside one file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"ftmm/internal/chaos"
	"ftmm/internal/cluster"
	"ftmm/internal/disk"
	"ftmm/internal/diskmodel"
	"ftmm/internal/layout"
	"ftmm/internal/metrics"
	"ftmm/internal/netserve"
	"ftmm/internal/node"
	"ftmm/internal/parity"
	"ftmm/internal/schemes"
	"ftmm/internal/server"
	"ftmm/internal/units"
	"ftmm/internal/workload"
)

// benchEntry is one benchmark's result in the baseline file.
type benchEntry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
	// Streams is the number of active streams the engine serves during
	// the measured cycles (0 for substrate microbenchmarks).
	Streams int `json:"streams"`
	// Extra carries b.ReportMetric columns — for the fan-out rows, the
	// pipeline phase breakdown (mean read/stage µs per cycle).
	// Informational; the compare gate ignores it.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// baselineFile is the BENCH_*.json wire shape.
type baselineFile struct {
	Schema     string       `json:"schema"`
	GoVersion  string       `json:"go_version"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	Benchmarks []benchEntry `json:"benchmarks"`
	// Capacity holds the scheme-comparison section: degraded-mode
	// stream capacity and measured rebuild window per scheme (see
	// capacity.go). Deterministic counts, unlike the timing rows.
	Capacity []capacityEntry `json:"capacity,omitempty"`
	// PreChange holds the numbers from before the change under test,
	// carried forward from the file's previous contents.
	PreChange []benchEntry `json:"pre_change,omitempty"`
}

// baselineRig mirrors the bench_test.go rig: 20 drives in clusters of 5,
// 8 objects of 200 parity groups each.
func baselineRig(tb testing.TB, placement layout.Placement) (schemes.Config, []*layout.Object) {
	p := diskmodel.Table1()
	const d, c, nObj, groups = 20, 5, 8, 200
	p.Capacity = units.ByteSize(nObj*groups*c/d+groups*c+10) * p.TrackSize
	farm, err := disk.NewFarm(d, c, p)
	if err != nil {
		tb.Fatal(err)
	}
	lay, err := layout.ForFarm(farm, placement)
	if err != nil {
		tb.Fatal(err)
	}
	trackSize := int(p.TrackSize)
	var objs []*layout.Object
	for i := 0; i < nObj; i++ {
		id := fmt.Sprintf("obj%d", i)
		obj, err := lay.AddObject(id, groups*(c-1), i%lay.Clusters(), units.MPEG1)
		if err != nil {
			tb.Fatal(err)
		}
		if err := layout.WriteObject(farm, obj, workload.SyntheticContent(id, groups*(c-1)*trackSize)); err != nil {
			tb.Fatal(err)
		}
		objs = append(objs, obj)
	}
	return schemes.Config{Farm: farm, Layout: lay, Rate: units.MPEG1}, objs
}

// declusteredBaselineRig mirrors baselineRig for the fifth scheme: the
// same catalog shape (8 objects of 200 parity groups of C=5) but placed
// on two 9-drive declustering groups via the complete (9,5) design.
func declusteredBaselineRig(tb testing.TB) (schemes.Config, []*layout.Object) {
	p := diskmodel.Table1()
	const d, g, c, nObj, groups = 18, 9, 5, 8, 200
	p.Capacity = units.ByteSize(nObj*groups*c/d+groups*c+10) * p.TrackSize
	farm, err := disk.NewFarm(d, g, p)
	if err != nil {
		tb.Fatal(err)
	}
	lay, err := layout.ForFarmDeclustered(farm, c)
	if err != nil {
		tb.Fatal(err)
	}
	trackSize := int(p.TrackSize)
	var objs []*layout.Object
	for i := 0; i < nObj; i++ {
		id := fmt.Sprintf("obj%d", i)
		obj, err := lay.AddObject(id, groups*(c-1), i%lay.Clusters(), units.MPEG1)
		if err != nil {
			tb.Fatal(err)
		}
		if err := layout.WriteObject(farm, obj, workload.SyntheticContent(id, groups*(c-1)*trackSize)); err != nil {
			tb.Fatal(err)
		}
		objs = append(objs, obj)
	}
	return schemes.Config{Farm: farm, Layout: lay, Rate: units.MPEG1}, objs
}

// benchEngineCycles drives Step b.N times, rebuilding the engine (off
// the clock) whenever its finite streams run out.
func benchEngineCycles(b *testing.B, build func(tb testing.TB) schemes.Simulator, perCycleBytes int64) {
	e := build(b)
	b.SetBytes(perCycleBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Active() == 0 {
			b.StopTimer()
			e = build(b)
			b.StartTimer()
		}
		if _, err := e.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// admitAll adds every object as a stream; prime additionally steps once
// per admission, matching the staggered-admission engines' benchmarks.
func admitAll(tb testing.TB, e schemes.Simulator, objs []*layout.Object, prime bool) {
	for _, o := range objs {
		if _, err := e.AddStream(o); err != nil {
			tb.Fatal(err)
		}
		if prime {
			if _, err := e.Step(); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// baselineSpec names one benchmark in the suite.
type baselineSpec struct {
	name    string
	streams int
	run     func(b *testing.B)
}

const baselineTrack = 50_000 // Table 1 track size in bytes

func baselineSpecs() []baselineSpec {
	const nObj = 8
	return []baselineSpec{
		{"CycleStreamingRAID", nObj, func(b *testing.B) {
			cfg, objs := baselineRig(b, layout.DedicatedParity)
			benchEngineCycles(b, func(tb testing.TB) schemes.Simulator {
				e, err := schemes.NewStreamingRAID(cfg)
				if err != nil {
					tb.Fatal(err)
				}
				admitAll(tb, e, objs, false)
				return e
			}, nObj*5*baselineTrack)
		}},
		{"CycleStaggeredGroup", nObj, func(b *testing.B) {
			cfg, objs := baselineRig(b, layout.DedicatedParity)
			benchEngineCycles(b, func(tb testing.TB) schemes.Simulator {
				e, err := schemes.NewStaggeredGroup(cfg)
				if err != nil {
					tb.Fatal(err)
				}
				admitAll(tb, e, objs, true)
				return e
			}, nObj*baselineTrack/4*5)
		}},
		{"CycleNonClustered", nObj, func(b *testing.B) {
			cfg, objs := baselineRig(b, layout.DedicatedParity)
			benchEngineCycles(b, func(tb testing.TB) schemes.Simulator {
				e, err := schemes.NewNonClustered(cfg, schemes.AlternateSwitchover, 2)
				if err != nil {
					tb.Fatal(err)
				}
				admitAll(tb, e, objs, true)
				return e
			}, nObj*baselineTrack)
		}},
		{"CycleNonClusteredDegraded", nObj, func(b *testing.B) {
			// FailDisk mutates the farm, so each engine instance needs a
			// fresh rig.
			benchEngineCycles(b, func(tb testing.TB) schemes.Simulator {
				cfg, objs := baselineRig(tb, layout.DedicatedParity)
				e, err := schemes.NewNonClustered(cfg, schemes.AlternateSwitchover, 2)
				if err != nil {
					tb.Fatal(err)
				}
				admitAll(tb, e, objs, true)
				if err := e.FailDisk(0); err != nil {
					tb.Fatal(err)
				}
				return e
			}, nObj*baselineTrack)
		}},
		{"CycleImprovedBandwidth", nObj, func(b *testing.B) {
			cfg, objs := baselineRig(b, layout.IntermixedParity)
			benchEngineCycles(b, func(tb testing.TB) schemes.Simulator {
				e, err := schemes.NewImprovedBandwidth(cfg, 2)
				if err != nil {
					tb.Fatal(err)
				}
				admitAll(tb, e, objs, false)
				return e
			}, nObj*4*baselineTrack)
		}},
		{"CycleDeclustered", nObj, func(b *testing.B) {
			cfg, objs := declusteredBaselineRig(b)
			benchEngineCycles(b, func(tb testing.TB) schemes.Simulator {
				e, err := schemes.NewDeclustered(cfg)
				if err != nil {
					tb.Fatal(err)
				}
				admitAll(tb, e, objs, false)
				return e
			}, nObj*5*baselineTrack)
		}},
		{"NetserveLoopbackStream", 1, func(b *testing.B) {
			// End-to-end network delivery, steady state: one client streams
			// long titles over loopback TCP with virtual-clock pacing and
			// reused payload buffers; the op is one TRACK frame arriving at
			// the client, with dial/admit amortized off the timer. The
			// number is protocol + socket cost of the zero-copy write path.
			ns, names, trackSize, _ := netserveBenchRig(b, 1, 128)
			defer ns.Close()
			dial := func() *netserve.Client {
				cl, err := netserve.Dial(ns.Addr().String(), 30*time.Second)
				if err != nil {
					b.Fatal(err)
				}
				cl.ReuseBuffers(true)
				if _, err := cl.Admit(names[0]); err != nil {
					b.Fatal(err)
				}
				return cl
			}
			cl := dial()
			defer func() { cl.Close() }()
			b.SetBytes(int64(trackSize))
			b.ResetTimer()
			for delivered := 0; delivered < b.N; {
				ev, err := cl.Next()
				if err != nil {
					b.Fatal(err)
				}
				switch {
				case ev.Bye != nil:
					b.StopTimer()
					cl.Close()
					cl = dial()
					b.StartTimer()
				case ev.Hiccup != nil:
					b.Fatalf("hiccup: %+v", ev.Hiccup)
				default:
					delivered++
				}
			}
		}},
		{"NetserveFanout64", 64, func(b *testing.B) {
			// Fan-out: 64 concurrent sessions over loopback, 8 per title.
			// Like the wider fan-out rows, the cohort's dials and ADMIT
			// handshakes run off the timer (64 TCP dials alone cost more
			// allocations than a whole title's delivery) and the op is one
			// delivered TRACK frame, so MB/s is the aggregate delivery rate
			// and allocs/op isolates the steady-state zero-copy path —
			// refcounted tracks shared across sessions, one vectored write
			// per session per cycle — from connection setup.
			benchFanoutTracks(b, 64, 8, 8)
		}},
		{"NetserveFanout1k", 1000, func(b *testing.B) {
			// Wide fan-out on the Zipf head: 1000 concurrent sessions, 100
			// per title, admitted in lockstep so every title's pack is
			// served from one shared merged burst per cycle. One op is one
			// TRACK frame arriving at some client; allocs/op must stay flat
			// in the session count (the gate pins it near the single-stream
			// row), which is only possible when staging, headers, and
			// payload references are shared across the pack.
			benchFanoutTracks(b, 1000, 10, 24)
		}},
		{"NetserveFlashCrowd", 96, func(b *testing.B) {
			// Flash crowd with batched starts: 96 sessions, 24 per title,
			// all arriving inside a 2-cycle admission window, so each
			// title's crowd flushes as one batch onto one shared staged
			// run. The merged-starts/run column is the acceptance number
			// (it must be well above 1 for the batching to mean anything);
			// wait-p50/p99-ms are the client-visible cost of the window.
			benchFlashCrowdTracks(b, 96, 4, 8, 2)
		}},
		{"ClusterFanout24", 24, func(b *testing.B) {
			// Sharded fan-out: 24 concurrent sessions admitted through the
			// coordinator across a 3-node cluster (each node holds its
			// rendezvous placement slice, cold titles on 2 replicas). One
			// op is a full wave — every client redirected to a holder and
			// streaming its whole title — so the number is the admission
			// plane's routing overhead plus three nodes' delivery paths
			// running concurrently.
			const fanout = 24
			nodes, coord, names, titleSize := clusterBenchRig(b, 3, 8, 8)
			defer coord.Close()
			defer func() {
				for _, n := range nodes {
					n.Close()
				}
			}()
			b.SetBytes(int64(fanout) * int64(titleSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make(chan error, fanout)
				for s := 0; s < fanout; s++ {
					wg.Add(1)
					go func(title string) {
						defer wg.Done()
						if err := streamViaOnce(coord.Addr().String(), title); err != nil {
							errs <- err
						}
					}(names[s%len(names)])
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					b.Fatal(err)
				}
			}
		}},
		{"ParityEncode", 0, func(b *testing.B) {
			blocks := parityBlocks(4)
			b.SetBytes(4 * baselineTrack)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := parity.Encode(blocks); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ParityReconstruct", 0, func(b *testing.B) {
			// Allocation-free reconstruction into a reused block; the op
			// touches four blocks (three survivors in, one rebuilt out),
			// accounted like Encode so the two rows' MB/s are comparable.
			g, err := parity.NewGroup(parityBlocks(4))
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]byte, baselineTrack)
			b.SetBytes(4 * baselineTrack)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.ReconstructDataInto(dst, 2); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ParityXORInto", 0, func(b *testing.B) {
			blocks := parityBlocks(2)
			b.SetBytes(baselineTrack)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := parity.XORInto(blocks[0], blocks[1]); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ParityXORIntoRef", 0, func(b *testing.B) {
			blocks := parityBlocks(2)
			b.SetBytes(baselineTrack)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := parity.XORIntoRef(blocks[0], blocks[1]); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// netserveBenchRig builds a loopback SR farm with the given catalog
// shape and a virtual-clock netserve front end (8 drives in clusters of
// 4, titles spread across both clusters).
func netserveBenchRig(tb testing.TB, titles, groups int) (*netserve.NetServer, []string, int, int) {
	scheme, policy, err := server.ParseScheme("sr")
	if err != nil {
		tb.Fatal(err)
	}
	const d, c, reserve = 8, 4, 2
	p := diskmodel.Table1()
	tracksPerTitle := groups * c
	p.Capacity = units.ByteSize(titles*c*tracksPerTitle/d+tracksPerTitle+50) * p.TrackSize
	srv, err := server.New(server.Options{
		Disks: d, ClusterSize: c,
		DiskParams: p, Scheme: scheme, K: reserve, NCPolicy: policy,
	})
	if err != nil {
		tb.Fatal(err)
	}
	trackSize := int(p.TrackSize)
	titleSize := groups * (c - 1) * trackSize
	names := workload.ObjectNames("bench", titles)
	for i, id := range names {
		if err := srv.AddTitle(id, units.ByteSize(titleSize), i, workload.SyntheticContent(id, titleSize)); err != nil {
			tb.Fatal(err)
		}
	}
	// The virtual clock steps cycles back to back with no pacing delay,
	// so the send queue is the only flow control: it must hold a whole
	// title's bursts or the engine outruns the clients and sheds them.
	ns, err := netserve.New(netserve.Options{Server: srv, Clock: netserve.VirtualClock(), SendQueue: groups + 8})
	if err != nil {
		tb.Fatal(err)
	}
	return ns, names, trackSize, titleSize
}

// fanoutBenchRig is netserveBenchRig's manual-clock sibling, sized for
// very wide fan-out: the admission budget is lifted to fanout slots per
// disk (the row measures the delivery plane, not the paper's admission
// bound — with merged reads the physical load is per title, not per
// session), there is no pacing clock (the bench drives StepCycle), and
// the send queue holds a whole title so no client can be shed however
// fast cycles are pushed.
func fanoutBenchRig(tb testing.TB, fanout, titles, groups, batchCycles int) (*netserve.NetServer, *server.Server, []string, int) {
	scheme, policy, err := server.ParseScheme("sr")
	if err != nil {
		tb.Fatal(err)
	}
	const d, c, reserve = 8, 4, 2
	p := diskmodel.Table1()
	tracksPerTitle := groups * c
	p.Capacity = units.ByteSize(titles*c*tracksPerTitle/d+tracksPerTitle+50) * p.TrackSize
	srv, err := server.New(server.Options{
		Disks: d, ClusterSize: c,
		DiskParams: p, Scheme: scheme, K: reserve, NCPolicy: policy,
		SlotsPerDisk: fanout,
	})
	if err != nil {
		tb.Fatal(err)
	}
	trackSize := int(p.TrackSize)
	titleSize := groups * (c - 1) * trackSize
	names := workload.ObjectNames("bench", titles)
	for i, id := range names {
		if err := srv.AddTitle(id, units.ByteSize(titleSize), i, workload.SyntheticContent(id, titleSize)); err != nil {
			tb.Fatal(err)
		}
	}
	ns, err := netserve.New(netserve.Options{Server: srv, SendQueue: groups + 8, BatchCycles: batchCycles})
	if err != nil {
		tb.Fatal(err)
	}
	return ns, srv, names, trackSize
}

// benchFanoutTracks drives the fan-out rows: admit the whole cohort off
// the timer (fanout sessions, round-robin across the titles, all in the
// same cycle so same-title packs stay in lockstep), then step cycles
// until b.N tracks have gone out, re-admitting a fresh cohort whenever
// the titles run dry. The op is one delivered TRACK frame, counted
// across all sessions, so SetBytes(trackSize) makes MB/s the aggregate
// delivery rate.
func benchFanoutTracks(b *testing.B, fanout, titles, groups int) {
	const clusterSize = 4 // fanoutBenchRig's farm shape
	perCycle := fanout * (clusterSize - 1)
	ns, srv, names, trackSize := fanoutBenchRig(b, fanout, titles, groups, 0)
	defer ns.Close()
	b.SetBytes(int64(trackSize))
	b.ResetTimer()
	for delivered := 0; delivered < b.N; {
		b.StopTimer()
		clients := make([]*netserve.Client, fanout)
		for i := range clients {
			cl, err := netserve.Dial(ns.Addr().String(), 30*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			cl.ReuseBuffers(true)
			if _, err := cl.Admit(names[i%len(names)]); err != nil {
				b.Fatal(err)
			}
			clients[i] = cl
		}
		var wg sync.WaitGroup
		var finished atomic.Int32
		errs := make(chan error, fanout)
		for _, cl := range clients {
			wg.Add(1)
			go func(cl *netserve.Client) {
				defer wg.Done()
				defer finished.Add(1)
				defer cl.Close()
				for {
					ev, err := cl.Next()
					if err != nil {
						errs <- err
						return
					}
					switch {
					case ev.Hiccup != nil:
						errs <- fmt.Errorf("hiccup: %+v", ev.Hiccup)
						return
					case ev.Bye != nil:
						if ev.Bye.Reason != "finished" {
							errs <- fmt.Errorf("bye %q", ev.Bye.Reason)
						}
						return
					}
				}
			}(cl)
		}
		b.StartTimer()
		start := time.Now()
		for cyc := 0; finished.Load() < int32(fanout) && delivered < b.N; cyc++ {
			if err := ns.StepCycle(); err != nil {
				b.Fatal(err)
			}
			if cyc < groups {
				delivered += perCycle
			} else {
				// The whole title is pushed (or queued); the cohort is
				// draining. Stepping is an idle no-op now, so yield.
				time.Sleep(200 * time.Microsecond)
				if time.Since(start) > 2*time.Minute {
					b.Fatal("fan-out cohort never drained")
				}
			}
		}
		b.StopTimer()
		if finished.Load() != int32(fanout) {
			// b.N reached mid-title: unwind the cohort off the clock. The
			// forced closes make the consumers' read errors expected, so
			// they are dropped rather than checked.
			for _, cl := range clients {
				cl.Close()
			}
			wg.Wait()
		} else {
			wg.Wait()
			close(errs)
			for err := range errs {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
	b.StopTimer()
	reportPhases(b, srv.Metrics())
}

// benchFlashCrowdTracks drives the flash-crowd row: the front end runs
// with BatchCycles, so every fresh ADMIT parks in its title's batch and
// the whole same-title pack starts in lockstep on one shared staged
// run. The cohort dials off the timer and the clock only starts once
// every connection is parked — the batch window is measured in engine
// cycles, which advance only under the bench's StepCycle, so each
// title's crowd lands in exactly one batch. One op is one TRACK frame
// arriving at some client; the extra columns report the merge payoff —
// mean batched starts per staged run and the bucket-resolution
// batch-wait percentiles, the same numbers /metricsz serves from
// net_batched_starts, net_batch_runs, and net_batch_wait_ms.
func benchFlashCrowdTracks(b *testing.B, fanout, titles, groups, batchCycles int) {
	ns, srv, names, trackSize := fanoutBenchRig(b, fanout, titles, groups, batchCycles)
	defer ns.Close()
	b.SetBytes(int64(trackSize))
	var delivered atomic.Int64
	b.ResetTimer()
	for delivered.Load() < int64(b.N) {
		b.StopTimer()
		clients := make([]*netserve.Client, fanout)
		for i := range clients {
			cl, err := netserve.Dial(ns.Addr().String(), 30*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			cl.ReuseBuffers(true)
			clients[i] = cl
		}
		var wg sync.WaitGroup
		var finished atomic.Int32
		errs := make(chan error, fanout)
		for i, cl := range clients {
			wg.Add(1)
			go func(i int, cl *netserve.Client) {
				defer wg.Done()
				defer finished.Add(1)
				defer cl.Close()
				// Admit blocks until the batch flushes under a StepCycle.
				if _, err := cl.Admit(names[i%len(names)]); err != nil {
					errs <- err
					return
				}
				for {
					ev, err := cl.Next()
					if err != nil {
						errs <- err
						return
					}
					switch {
					case ev.Hiccup != nil:
						errs <- fmt.Errorf("hiccup: %+v", ev.Hiccup)
						return
					case ev.Bye != nil:
						if ev.Bye.Reason != "finished" {
							errs <- fmt.Errorf("bye %q", ev.Bye.Reason)
						}
						return
					default:
						delivered.Add(1)
					}
				}
			}(i, cl)
		}
		// The crowd must be fully parked before the window starts
		// closing, or stragglers would spill into a second batch.
		for start := time.Now(); ns.PendingStarts() < fanout; {
			if finished.Load() > 0 {
				b.Fatal("client died during flash-crowd admission")
			}
			if time.Since(start) > time.Minute {
				b.Fatalf("only %d/%d starts parked", ns.PendingStarts(), fanout)
			}
			time.Sleep(50 * time.Microsecond)
		}
		b.StartTimer()
		start := time.Now()
		for cyc := 0; finished.Load() < int32(fanout) && delivered.Load() < int64(b.N); cyc++ {
			if err := ns.StepCycle(); err != nil {
				b.Fatal(err)
			}
			if cyc > batchCycles+groups {
				// Everything is pushed (or queued); the cohort is
				// draining. Stepping is an idle no-op now, so yield.
				time.Sleep(200 * time.Microsecond)
				if time.Since(start) > 2*time.Minute {
					b.Fatal("flash-crowd cohort never drained")
				}
			}
		}
		b.StopTimer()
		if finished.Load() != int32(fanout) {
			// b.N reached mid-title: unwind the cohort off the clock.
			for _, cl := range clients {
				cl.Close()
			}
			wg.Wait()
		} else {
			wg.Wait()
			close(errs)
			for err := range errs {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
	b.StopTimer()
	reportPhases(b, srv.Metrics())
	snap := srv.Metrics().Snapshot()
	if runs := snap.Counters["net_batch_runs"]; runs > 0 {
		b.ReportMetric(float64(snap.Counters["net_batched_starts"])/float64(runs), "merged-starts/run")
	}
	if h := snap.Histograms["net_batch_wait_ms"]; h.Count > 0 {
		b.ReportMetric(float64(h.P50), "wait-p50-ms")
		b.ReportMetric(float64(h.P99), "wait-p99-ms")
	}
}

// reportPhases turns the front end's pipeline histograms into extra
// benchmark columns: mean engine-read and staging-pass time per cycle
// (µs). The columns ride into the baseline file's "extra" field; they
// are informational, not gated.
func reportPhases(b *testing.B, m *metrics.Registry) {
	for _, p := range []struct{ hist, unit string }{
		{"pipe_read_us", "read-us/cycle"},
		{"pipe_stage_us", "stage-us/cycle"},
	} {
		if h := m.Histogram(p.hist); h.Count() > 0 {
			b.ReportMetric(h.Mean(), p.unit)
		}
	}
}

// clusterBenchRig builds nNodes loopback shards behind a coordinator,
// all on virtual clocks: each node serves its rendezvous placement
// slice of the catalog (8 drives in clusters of 4 per node, 2 replicas
// per title), and one heartbeat tick disseminates the initial view.
func clusterBenchRig(tb testing.TB, nNodes, titles, groups int) ([]*node.Node, *netserve.Coordinator, []string, int) {
	names := workload.ObjectNames("bench", titles)
	ids := make([]string, nNodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("node%d", i)
	}
	plCfg := cluster.PlacementConfig{Seed: 1, Replicas: 2}
	pl := cluster.Assign(names, ids, plCfg)
	var nodes []*node.Node
	var members []cluster.Member
	for _, id := range ids {
		n, err := node.Start(node.Config{
			ID: id, Scheme: "sr",
			Disks: 8, Cluster: 4, K: 2,
			Titles: pl.Titles(id), Groups: groups,
			Clock: netserve.VirtualClock(), SendQueue: groups + 8,
		})
		if err != nil {
			tb.Fatal(err)
		}
		nodes = append(nodes, n)
		members = append(members, cluster.Member{ID: id, Addr: n.Addr()})
	}
	coord, err := netserve.NewCoordinator(netserve.CoordinatorOptions{
		Nodes: members, Titles: names, Placement: plCfg,
	})
	if err != nil {
		tb.Fatal(err)
	}
	coord.Tick()
	return nodes, coord, names, nodes[0].TitleSize()
}

// streamViaOnce admits through the coordinator (following its REDIRECT
// to the serving node, retrying transient capacity rejections) and
// consumes one full title with reused buffers.
func streamViaOnce(addr, title string) error {
	var cl *netserve.Client
	for attempt := 0; ; attempt++ {
		c, _, err := netserve.AdmitVia(addr, title, 30*time.Second)
		if err != nil {
			var rej *netserve.RejectedError
			if errors.As(err, &rej) && rej.Reject.RetryAfterMillis >= 0 && attempt < 10000 {
				time.Sleep(200 * time.Microsecond)
				continue
			}
			return err
		}
		c.ReuseBuffers(true)
		cl = c
		break
	}
	defer cl.Close()
	for {
		ev, err := cl.Next()
		if err != nil {
			return err
		}
		if ev.Bye != nil {
			if ev.Bye.Reason != "finished" {
				return fmt.Errorf("stream %s ended with bye %q", title, ev.Bye.Reason)
			}
			return nil
		}
	}
}

// fanout10kSpec is the ten-thousand-session row: ~20k sockets on one
// box, so it first raises RLIMIT_NOFILE (needs privilege if the hard
// limit is below the ask) and runs under a longer bench time so the
// iteration count climbs past one cohort's first cycle. Part of the
// committed baseline since BENCH_6; -bench-fanout10k=false skips it on
// fd-limited machines (the compare gate tolerates the missing row).
func fanout10kSpec() baselineSpec {
	return baselineSpec{"NetserveFanout10k", 10_000, func(b *testing.B) {
		if err := raiseFDLimit(25_000); err != nil {
			// Unprivileged containers often pin the hard limit below the
			// ask; the row skips rather than failing the whole run, and
			// runBaseline drops the empty result from the file.
			// testing.Benchmark swallows skip logs, hence the direct print.
			fmt.Fprintf(os.Stderr, "NetserveFanout10k: %v (skipping row)\n", err)
			b.Skip(err)
		}
		benchFanoutTracks(b, 10_000, 10, 12)
	}}
}

// raiseFDLimit lifts the soft (and if needed, hard) RLIMIT_NOFILE to n.
func raiseFDLimit(n uint64) error {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return err
	}
	if lim.Cur >= n {
		return nil
	}
	want := lim
	want.Cur = n
	if want.Max < n {
		want.Max = n // raising the hard limit needs privilege; fails cleanly without it
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &want); err != nil {
		return fmt.Errorf("raise RLIMIT_NOFILE %d -> %d for the 10k fan-out: %w", lim.Cur, n, err)
	}
	return nil
}

func parityBlocks(n int) [][]byte {
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = workload.SyntheticContent(fmt.Sprintf("b%d", i), baselineTrack)
	}
	return blocks
}

// specScheme maps scheme-specific benchmark rows to the -schemes flag
// name that selects them; rows not listed here always run.
var specScheme = map[string]string{
	"CycleStreamingRAID":        "sr",
	"CycleStaggeredGroup":       "sg",
	"CycleNonClustered":         "nc",
	"CycleNonClusteredDegraded": "nc",
	"CycleImprovedBandwidth":    "ib",
	"CycleDeclustered":          "dc",
}

// runBaseline executes the suite and writes the baseline file,
// preserving prior numbers as pre_change. It prints a per-benchmark
// summary, including the allocs/op delta against pre_change when one is
// available. A non-empty `only` (the -schemes flag) restricts the
// scheme-specific rows and the capacity section to the named schemes;
// substrate and netserve rows always run.
func runBaseline(path string, fanout10k bool, only []string) error {
	prev, err := readBaseline(path)
	if err != nil {
		return err
	}
	keep := func(name string) bool {
		s, schemeRow := specScheme[name]
		if !schemeRow || len(only) == 0 {
			return true
		}
		for _, o := range only {
			if o == s || (s == "nc" && o == "nc-simple") {
				return true
			}
		}
		return false
	}
	var specs []baselineSpec
	for _, spec := range baselineSpecs() {
		if keep(spec.name) {
			specs = append(specs, spec)
		}
	}
	if fanout10k {
		specs = append(specs, fanout10kSpec())
	}

	out := baselineFile{
		Schema:    "ftmm-bench-baseline/1",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	if prev != nil {
		if len(prev.PreChange) > 0 {
			out.PreChange = prev.PreChange
		} else {
			out.PreChange = prev.Benchmarks
		}
	}
	pre := map[string]benchEntry{}
	for _, e := range out.PreChange {
		pre[e.Name] = e
	}

	for _, spec := range specs {
		restore := benchTimeFor(spec.name)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			spec.run(b)
		})
		restore()
		if r.N == 0 {
			// The benchmark failed or skipped (testing.Benchmark returns a
			// zero result either way); keep it out of the file so the JSON
			// stays finite and the compare gate just reports a missing row.
			fmt.Printf("%-28s skipped (no iterations; see output above)\n", spec.name)
			continue
		}
		e := benchEntry{
			Name:        spec.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Streams:     spec.streams,
		}
		if r.Bytes > 0 && r.T > 0 {
			e.MBPerSec = float64(r.Bytes) * float64(r.N) / r.T.Seconds() / 1e6
		}
		if len(r.Extra) > 0 {
			e.Extra = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				e.Extra[k] = v
			}
		}
		out.Benchmarks = append(out.Benchmarks, e)
		line := fmt.Sprintf("%-28s %12.0f ns/op %8d allocs/op %10d B/op",
			e.Name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp)
		if p, ok := pre[e.Name]; ok && p.AllocsPerOp > 0 {
			line += fmt.Sprintf("   allocs vs pre_change: %+.0f%%",
				100*(float64(e.AllocsPerOp)-float64(p.AllocsPerOp))/float64(p.AllocsPerOp))
		}
		fmt.Println(line)
		if len(e.Extra) > 0 {
			keys := make([]string, 0, len(e.Extra))
			for k := range e.Extra {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			phases := "    phases:"
			for _, k := range keys {
				phases += fmt.Sprintf(" %s=%.0f", k, e.Extra[k])
			}
			fmt.Println(phases)
		}
	}

	if err := checkParityTiers(out.Benchmarks); err != nil {
		return err
	}

	capSchemes := only
	if len(capSchemes) == 0 {
		capSchemes = chaos.SchemeNames()
	}
	if out.Capacity, err = capacityRows(capSchemes); err != nil {
		return err
	}
	if err := checkRebuildWindows(out.Capacity); err != nil {
		return err
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// checkParityTiers asserts ParityReconstruct runs at no less than half
// of ParityEncode's throughput. The two rows use identical byte
// accounting (four blocks per op), so a big gap means the reconstruct
// path fell off the word/unrolled XOR kernel onto the byte-wise
// reference — the regression that once had Reconstruct at ~2.4 GB/s
// against Encode's ~16.
func checkParityTiers(rows []benchEntry) error {
	var enc, rec float64
	for _, e := range rows {
		switch e.Name {
		case "ParityEncode":
			enc = e.MBPerSec
		case "ParityReconstruct":
			rec = e.MBPerSec
		}
	}
	if enc <= 0 || rec <= 0 {
		return nil
	}
	if rec < enc/2 {
		return fmt.Errorf("ParityReconstruct at %.0f MB/s is below half of ParityEncode's %.0f MB/s: reconstruct is off the word kernel", rec, enc)
	}
	fmt.Printf("parity tier check: Reconstruct %.0f MB/s vs Encode %.0f MB/s (>= 0.5x ok)\n", rec, enc)
	return nil
}

// benchTimeFor stretches -test.benchtime for the rows whose first
// iteration alone nearly fills the default 1s target (a 10k-session
// cycle moves ~1.5 GB), so testing.Benchmark still ramps b.N well past
// one cycle and the per-track numbers average over a real run. Returns
// a restore function for the default.
func benchTimeFor(name string) func() {
	if name != "NetserveFanout10k" {
		return func() {}
	}
	testing.Init()
	bt := flag.Lookup("test.benchtime")
	if bt == nil {
		return func() {}
	}
	old := bt.Value.String()
	_ = bt.Value.Set("8s")
	return func() { _ = bt.Value.Set(old) }
}

// readBaseline loads an existing baseline file; a missing file is not an
// error (first run), a malformed one is.
func readBaseline(path string) (*baselineFile, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var f baselineFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: existing baseline unreadable: %w", path, err)
	}
	return &f, nil
}
