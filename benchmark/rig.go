package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ftmm/internal/diskmodel"
	"ftmm/internal/server"
	"ftmm/internal/units"
	"ftmm/internal/workload"
)

// Rig constants shared by every workload.
const (
	nSlices   = 10 // the measured window is cut into this many equal slices
	setupReps = 5  // set-up is repeated and its median reported
	// waitLimit bounds every wait on the program under test, so a hang
	// is reported as an error instead of stalling the run.
	waitLimit = 30 * time.Second
)

// runConfig is one invocation's input.
type runConfig struct {
	seed    int64
	seconds float64 // length of the measured window
	warmup  float64 // discarded lead-in, seconds
	trace   bool    // record spans and run the layer probes
	toy     bool    // test-sized rigs
}

// result is one workload's outcome.
type result struct {
	workload string
	values   map[string]float64 // metric name -> value
	spread   map[string]float64 // IQR over slices / median, timing metrics
	samples  map[string]int     // samples behind each percentile
	// attempted and failed count delivered tracks; a failed track is one
	// that arrived wrong, out of order, or not at all without the engine
	// declaring the loss.
	attempted, failed int64
	violations        []string // the first maxViolationTexts, in full
	violationCount    int
	unresolved        []string
	spans             []span
	notes             []string
}

// probeBudget is how long each layer probe runs.
func (c runConfig) probeBudget() time.Duration {
	if c.toy {
		return 2 * time.Millisecond
	}
	return probeBudget
}

func newResult(name string) *result {
	return &result{
		workload: name,
		values:   make(map[string]float64),
		spread:   make(map[string]float64),
		samples:  make(map[string]int),
	}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// setSlices reports an end-to-end timing metric from its per-slice
// values (see overSlices) and remembers their spread.
func (r *result) setSlices(name string, perSlice []float64) {
	better := "lower"
	for _, d := range endToEnd {
		if d.Name == name {
			better = d.Better
		}
	}
	r.values[name], r.spread[name] = overSlices(perSlice, better)
}

// setCalm reports an end-to-end timing metric derived from a calmSum,
// with the spread of the slices behind it.
func (r *result) setCalm(name string, v float64, acc calmAcc) {
	r.values[name] = v
	if acc.total > 0 {
		r.spread[name] = acc.spread / acc.total
	}
}

// setQuantiles reports <prefix>_p50 and <prefix>_p99 of v scaled by k.
func (r *result) setQuantiles(prefix string, v []float64, k float64) {
	r.values[prefix+"_p50"] = median(v) * k
	r.values[prefix+"_p99"] = p99(v) * k
	r.samples[prefix+"_p50"] = len(v)
	r.samples[prefix+"_p99"] = len(v)
}

const maxViolationTexts = 20

// violate records a correctness violation; the first few keep their
// text, the rest only count.
func (r *result) violate(format string, args ...any) {
	r.violationCount++
	if len(r.violations) < maxViolationTexts {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// violationLog collects violations from many goroutines.
type violationLog struct {
	mu   sync.Mutex
	msgs []string
}

func (v *violationLog) add(format string, args ...any) {
	v.mu.Lock()
	v.msgs = append(v.msgs, fmt.Sprintf(format, args...))
	v.mu.Unlock()
}

func (v *violationLog) drainInto(r *result) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, m := range v.msgs {
		r.violate("%s", m)
	}
	v.msgs = nil
}

// catalog is a set of synthetic titles of one size, generated once per
// run from the seed (titles are named after it, so their bytes differ
// from seed to seed) and shared by every rig the run builds.
type catalog struct {
	names     []string
	content   map[string][]byte
	titleSize int
	tracks    int // data tracks per title
	trackSize int
}

func newCatalog(prefix string, titles, tracks int) *catalog {
	trackSize := int(diskmodel.Table1().TrackSize)
	c := &catalog{
		names:     workload.ObjectNames(prefix, titles),
		content:   make(map[string][]byte, titles),
		titleSize: tracks * trackSize,
		tracks:    tracks,
		trackSize: trackSize,
	}
	for _, id := range c.names {
		c.content[id] = workload.SyntheticContent(id, c.titleSize)
	}
	return c
}

// farmParams is the Table-1 drive with its capacity trimmed to the
// catalog (tracks per drive plus one title of staging headroom), as the
// repo's existing rigs do — a full 1 GB drive per spindle would only
// cost memory.
func farmParams(titles, groups, disks, clusterSize int) diskmodel.Params {
	p := diskmodel.Table1()
	tracksPerTitle := groups * clusterSize
	p.Capacity = units.ByteSize(titles*tracksPerTitle/disks+tracksPerTitle+50) * p.TrackSize
	return p
}

// stageCatalog archives every title on tape and pulls it onto the farm
// with an admit-and-cancel, the way node.Start prestages, so no later
// admission pays for staging. It returns the per-title staging times.
func stageCatalog(srv *server.Server, cat *catalog) ([]float64, error) {
	var ms []float64
	for i, id := range cat.names {
		t0 := time.Now()
		if err := srv.AddTitle(id, units.ByteSize(cat.titleSize), i/4, cat.content[id]); err != nil {
			return nil, err
		}
		sid, _, err := srv.Request(id)
		if err != nil {
			return nil, fmt.Errorf("prestaging %s: %w", id, err)
		}
		if err := srv.Cancel(sid); err != nil {
			return nil, err
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return ms, nil
}

// repeatSetup builds a rig setupReps times, discarding all but the last
// through discard, and returns it with every build's duration, less the
// host's share of the whole series (one build is too short to tell the
// host's share of it from a 10 ms counter). A discarded rig is collected
// before the next is built, so that later builds reuse its memory: what
// the kernel charges for fresh pages is paid once, not by the median
// build.
func repeatSetup[T any](build func() (T, error), discard func(T)) (T, []float64, error) {
	var rig, zero T
	var secs []float64
	c0 := readClocks()
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			discard(rig)
			rig = zero
			runtime.GC()
		}
		t0 := time.Now()
		r, err := build()
		if err != nil {
			return zero, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		rig = r
	}
	share := ranShare(c0, readClocks())
	for i := range secs {
		secs[i] *= share
	}
	return rig, secs, nil
}

// clocks is one reading of the three clocks an interval is timed by.
type clocks struct {
	wall   time.Time
	cpu    time.Duration // this process, user + system
	stolen time.Duration // the guest's vCPUs: ready to run, but the host ran someone else
}

func readClocks() clocks { return clocks{time.Now(), cpuTime(), stolenTime()} }

// ranShare is the share of the time this process's threads were ready to
// run, between two readings, in which a vCPU did run them: CPU time over
// CPU time plus stolen time. Whatever mix of serial and parallel work the
// interval held, each piece of it stretched by one over this share when
// the host took vCPUs away, so wall time multiplied by it is the wall
// time the same work takes on a machine of its own (README, "Noise").
// It is 1 where the kernel reports no stolen time.
func ranShare(a, b clocks) float64 {
	cpu, stolen := float64(b.cpu-a.cpu), float64(b.stolen-a.stolen)
	if cpu <= 0 || stolen <= 0 {
		return 1
	}
	return cpu / (cpu + stolen)
}

var procStat struct {
	once sync.Once
	f    *os.File
}

// stolenTime is the guest's cumulative stolen time: the eighth counter of
// the first line of /proc/stat, in ticks of 10 ms. It reads 0 where
// there is no such file or counter.
func stolenTime() time.Duration {
	procStat.once.Do(func() { procStat.f, _ = os.Open("/proc/stat") })
	if procStat.f == nil {
		return 0
	}
	var buf [256]byte
	n, _ := procStat.f.ReadAt(buf[:], 0)
	line, _, _ := strings.Cut(string(buf[:n]), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * (time.Second / 100)
}

// procSample is a reading of the process's cumulative resource use.
type procSample struct {
	cpu     time.Duration // user + system
	mallocs uint64
	bytes   uint64
	numGC   uint32
	pauseNs uint64
}

// cpuTime returns the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleProc reads CPU and heap counters. ReadMemStats stops the world,
// so it is only called at window boundaries, never inside a timed call.
func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// rssPeakMB is the process's peak resident set (Linux reports KB).
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// setProcMetrics fills the proc.* metrics from a window's two samples.
func (r *result) setProcMetrics(before, after procSample) {
	r.set("proc.rss_peak_mb", rssPeakMB())
	r.set("proc.gc_cycles", float64(after.numGC-before.numGC))
	r.set("proc.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6)
}

// setLoss fills the loss accounting: expected = verified + lost.
func (r *result) setLoss(verified, lost int64) {
	expected := verified + lost
	r.set("tracks.expected", float64(expected))
	r.set("tracks.verified", float64(verified))
	r.set("tracks.lost", float64(lost))
	if expected > 0 {
		r.set("fail_ratio", float64(lost)/float64(expected))
		r.set("delivered_pct", 100*float64(verified)/float64(expected))
	}
	r.attempted = expected
}

// sliceOf maps position i of n onto one of nSlices equal slices.
func sliceOf(i, n int) int {
	if n <= 0 {
		return 0
	}
	s := i * nSlices / n
	if s >= nSlices {
		s = nSlices - 1
	}
	return s
}

// tracedSlice reports whether spans are recorded in slice s of a traced
// run: odd slices are traced and even ones are not, so one run yields
// both sides of trace.overhead_pct.
func tracedSlice(s int) bool { return s%2 == 1 }

// overheadPct compares throughput in traced and untraced slices.
func overheadPct(perSlice []float64) float64 {
	var on, off []float64
	for s, v := range perSlice {
		if tracedSlice(s) {
			on = append(on, v)
		} else {
			off = append(off, v)
		}
	}
	if len(on) == 0 || median(off) == 0 {
		return 0
	}
	return 100 * (1 - median(on)/median(off))
}
