package sched

import (
	"runtime"
	"sync"

	"ftmm/internal/buffer"
	"ftmm/internal/metrics"
)

// Recorder bundles the instruments every cycle engine records into. A
// Recorder built over a nil registry carries nil instruments, which are
// free no-ops, so engines record unconditionally.
type Recorder struct {
	// Cycles counts completed cycles.
	Cycles *metrics.Counter
	// DataReads/ParityReads/Reconstructions mirror the CycleReport
	// counters, accumulated across the engine's lifetime.
	DataReads, ParityReads, Reconstructions *metrics.Counter
	// Deliveries and Hiccups count tracks handed out and lost.
	Deliveries, Hiccups *metrics.Counter
	// Finished and Terminated count stream completions and degradations.
	Finished, Terminated *metrics.Counter
	// DegradedClusterCycles counts (cluster, cycle) pairs spent degraded.
	DegradedClusterCycles *metrics.Counter
	// BufferInUse tracks end-of-cycle buffer occupancy in tracks.
	BufferInUse *metrics.Gauge
	// SlotsUsed observes, per cycle, the slots consumed on each disk —
	// the per-disk slot-utilization distribution.
	SlotsUsed *metrics.Histogram
}

// NewRecorder wires a Recorder to the registry (nil registry is fine:
// every instrument becomes a no-op).
func NewRecorder(reg *metrics.Registry) *Recorder {
	return &Recorder{
		Cycles:                reg.Counter("engine_cycles"),
		DataReads:             reg.Counter("engine_data_reads"),
		ParityReads:           reg.Counter("engine_parity_reads"),
		Reconstructions:       reg.Counter("engine_reconstructions"),
		Deliveries:            reg.Counter("engine_deliveries"),
		Hiccups:               reg.Counter("engine_hiccups"),
		Finished:              reg.Counter("engine_streams_finished"),
		Terminated:            reg.Counter("engine_streams_terminated"),
		DegradedClusterCycles: reg.Counter("engine_degraded_cluster_cycles"),
		BufferInUse:           reg.Gauge("engine_buffer_in_use_tracks"),
		SlotsUsed:             reg.Histogram("engine_slots_used_per_disk", 0, 1, 2, 4, 8, 16, 32),
	}
}

// observeCycle folds one finished cycle into the instruments.
func (r *Recorder) observeCycle(rep *CycleReport, slots *Slots) {
	if r == nil {
		return
	}
	r.Cycles.Inc()
	r.DataReads.Add(int64(rep.DataReads))
	r.ParityReads.Add(int64(rep.ParityReads))
	r.Reconstructions.Add(int64(rep.Reconstructions))
	r.Deliveries.Add(int64(len(rep.Delivered)))
	r.Hiccups.Add(int64(len(rep.Hiccups)))
	r.Finished.Add(int64(len(rep.Finished)))
	r.Terminated.Add(int64(len(rep.Terminated)))
	r.BufferInUse.Set(int64(rep.BufferInUse))
	if r.SlotsUsed != nil && slots != nil {
		for d := 0; d < slots.Disks(); d++ {
			r.SlotsUsed.Observe(int64(slots.Used(d)))
		}
	}
}

// CycleContext bundles everything one cycle of a scheme engine works
// against: the per-disk slot budgets, the buffer pool, the report under
// assembly, and the metrics recorder. Engines receive one per Step from
// their shared core and, for per-cluster parallel phases, hand each
// cluster a Shard whose counters are merged back deterministically.
type CycleContext struct {
	Cycle int
	Slots *Slots
	Pool  *buffer.Pool
	Rep   *CycleReport
	Rec   *Recorder
}

// NewCycleContext starts a cycle's context.
func NewCycleContext(cycle int, slots *Slots, pool *buffer.Pool, rec *Recorder) *CycleContext {
	return &CycleContext{
		Cycle: cycle,
		Slots: slots,
		Pool:  pool,
		Rep:   &CycleReport{Cycle: cycle},
		Rec:   rec,
	}
}

// Reset rewinds the context for a new cycle: slot budgets clear and the
// report empties in place. Engines call this from a persistent context
// each Step instead of allocating fresh state, which is why a report
// handed out by Step is valid only until the next Step (see
// CycleReport.Clone).
func (c *CycleContext) Reset(cycle int) {
	c.Cycle = cycle
	c.Slots.Reset()
	c.Rep.Reset(cycle)
}

// Shard derives a context for one cluster's share of a parallel phase:
// it shares the slot budgets, pool, and recorder but accumulates into a
// private report so concurrent clusters never contend, and so the merge
// order (cluster index) is deterministic regardless of scheduling.
func (c *CycleContext) Shard() *CycleContext {
	return &CycleContext{
		Cycle: c.Cycle,
		Slots: c.Slots,
		Pool:  c.Pool,
		Rep:   &CycleReport{Cycle: c.Cycle},
		Rec:   c.Rec,
	}
}

// MergeShards folds shard reports into this context in argument order.
// Counters add; list fields append. Callers pass shards in cluster-index
// order, which fixes the merged report independent of worker count.
func (c *CycleContext) MergeShards(shards ...*CycleContext) {
	for _, s := range shards {
		if s == nil {
			continue
		}
		r := s.Rep
		c.Rep.DataReads += r.DataReads
		c.Rep.ParityReads += r.ParityReads
		c.Rep.Reconstructions += r.Reconstructions
		c.Rep.Delivered = append(c.Rep.Delivered, r.Delivered...)
		c.Rep.Hiccups = append(c.Rep.Hiccups, r.Hiccups...)
		c.Rep.Finished = append(c.Rep.Finished, r.Finished...)
		c.Rep.Terminated = append(c.Rep.Terminated, r.Terminated...)
	}
}

// Finish stamps end-of-cycle state, feeds the recorder, and returns the
// assembled report.
func (c *CycleContext) Finish() *CycleReport {
	c.Rep.BufferInUse = c.Pool.InUse()
	c.Rec.observeCycle(c.Rep, c.Slots)
	return c.Rep
}

// Workers resolves a configured worker count: n <= 0 means GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ShardOf is the deterministic engine-shard assignment: cluster cl runs
// on shard cl mod shards. RunClusters partitions work this way, so
// which goroutine executes a given cluster is a pure function of the
// cluster index and the shard count — never of scheduling order — and a
// chaos replay or report diff at any shard count sees clusters grouped
// identically run to run.
func ShardOf(cl, shards int) int { return cl % shards }

// RunClusters runs fn(0..n-1) across at most workers engine shards
// (workers <= 0 means GOMAXPROCS; 1 runs inline). Clusters are
// statically partitioned by ShardOf — shard w runs clusters w, w+W,
// w+2W, … in increasing order — rather than pulled from a shared
// counter, so there is no cross-shard contention point on the dispatch
// path and the cluster→goroutine mapping is deterministic. Any worker
// count yields the same outcome for independent per-cluster work: when
// several clusters fail, the error of the lowest cluster index is
// returned.
func RunClusters(n, workers int, fn func(cl int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for cl := 0; cl < n; cl++ {
			if err := fn(cl); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for cl := w; cl < n; cl += workers {
				errs[cl] = fn(cl)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
