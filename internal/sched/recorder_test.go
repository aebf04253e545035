package sched

import (
	"testing"

	"ftmm/internal/metrics"
)

func TestFinishStampsBufferAndMetrics(t *testing.T) {
	reg := metrics.New()
	slots, _ := NewSlots(2, 3)
	slots.Take(0)
	rep := &CycleReport{DataReads: 7, Delivered: []Delivery{{}}, Erasures: []Erasure{{}, {}}, BufferInUse: 4}
	NewRecorder(reg).ObserveCycle(rep, slots)
	snap := reg.Snapshot()
	if snap.Counters["engine_cycles"] != 1 || snap.Counters["engine_data_reads"] != 7 ||
		snap.Counters["engine_deliveries"] != 1 || snap.Counters["engine_erasures"] != 2 {
		t.Fatalf("metrics not recorded: %v", snap.Counters)
	}
	if snap.Gauges["engine_buffer_in_use_tracks"].Value != 4 {
		t.Fatal("buffer gauge not set")
	}
	if snap.Histograms["engine_slots_used_per_disk"].Count != 2 {
		t.Fatal("slot histogram did not observe both disks")
	}
}
