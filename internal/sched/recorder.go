package sched

import "ftmm/internal/metrics"

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

// ObserveCycle folds one finished cycle — its report, with BufferInUse
// already stamped, and the slots its reads took — into the instruments.
func (r *Recorder) ObserveCycle(rep *CycleReport, slots *Slots) {
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
