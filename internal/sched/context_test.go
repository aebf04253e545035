package sched

import (
	"bytes"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"ftmm/internal/buffer"
	"ftmm/internal/metrics"
)

func TestFinishStampsBufferAndMetrics(t *testing.T) {
	reg := metrics.New()
	slots, _ := NewSlots(2, 3)
	pool, _ := buffer.NewPool(0)
	ctx := NewCycleContext(0, slots, pool, NewRecorder(reg))
	if err := pool.Acquire(4); err != nil {
		t.Fatal(err)
	}
	slots.Take(0)
	ctx.Rep.DataReads = 7
	ctx.Rep.Delivered = append(ctx.Rep.Delivered, Delivery{})
	rep := ctx.Finish()
	if rep.BufferInUse != 4 {
		t.Fatalf("BufferInUse = %d, want 4", rep.BufferInUse)
	}
	snap := reg.Snapshot()
	if snap.Counters["engine_cycles"] != 1 || snap.Counters["engine_data_reads"] != 7 {
		t.Fatalf("metrics not recorded: %v", snap.Counters)
	}
	if snap.Gauges["engine_buffer_in_use_tracks"].Value != 4 {
		t.Fatal("buffer gauge not set")
	}
	if snap.Histograms["engine_slots_used_per_disk"].Count != 2 {
		t.Fatal("slot histogram did not observe both disks")
	}
}

func TestRunClustersCoversAllAndPropagatesLowestError(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var n atomic.Int64
		if err := RunClusters(10, workers, func(cl int) error {
			n.Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if n.Load() != 10 {
			t.Fatalf("workers=%d ran %d clusters", workers, n.Load())
		}

		errLow := errors.New("low")
		errHigh := errors.New("high")
		err := RunClusters(10, workers, func(cl int) error {
			switch cl {
			case 2:
				return errLow
			case 7:
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("workers=%d returned %v, want lowest-index error", workers, err)
		}
	}
	if err := RunClusters(0, 4, func(int) error { return errors.New("boom") }); err != nil {
		t.Fatal("n=0 ran work")
	}
}

// goid extracts the current goroutine's ID from its stack header — a
// test-only trick to observe which goroutine ran which cluster.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	fields := bytes.Fields(buf[:n])
	id, err := strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// TestRunClustersStaticSharding pins the deterministic shard
// assignment: cluster cl always executes on shard ShardOf(cl, W), and
// within one shard clusters run in increasing order. The assignment is
// observable because all of one shard's clusters run on one goroutine.
func TestRunClustersStaticSharding(t *testing.T) {
	const n, workers = 11, 3
	var mu sync.Mutex
	perG := map[int64][]int{}
	if err := RunClusters(n, workers, func(cl int) error {
		id := goid()
		mu.Lock()
		defer mu.Unlock()
		perG[id] = append(perG[id], cl)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(perG) != workers {
		t.Fatalf("ran on %d goroutines, want %d", len(perG), workers)
	}
	for _, cls := range perG {
		if len(cls) == 0 {
			continue
		}
		shard := ShardOf(cls[0], workers)
		for i, cl := range cls {
			if ShardOf(cl, workers) != shard {
				t.Fatalf("goroutine mixes shards: clusters %v", cls)
			}
			if i > 0 && cl != cls[i-1]+workers {
				t.Fatalf("shard %d ran clusters out of stride order: %v", shard, cls)
			}
		}
	}
	// Every cluster of shard s is ≡ s mod workers.
	for cl := 0; cl < n; cl++ {
		if ShardOf(cl, workers) != cl%workers {
			t.Fatalf("ShardOf(%d,%d) = %d", cl, workers, ShardOf(cl, workers))
		}
	}
}
