package failure

import (
	"bytes"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunTrialsCoversAllAndPropagatesLowestError(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var n atomic.Int64
		if err := RunTrials(10, workers, func(int) error {
			n.Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if n.Load() != 10 {
			t.Fatalf("workers=%d ran %d items", workers, n.Load())
		}

		errLow := errors.New("low")
		errHigh := errors.New("high")
		err := RunTrials(10, workers, func(i int) error {
			switch i {
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
	if err := RunTrials(0, 4, func(int) error { return errors.New("boom") }); err != nil {
		t.Fatal("n=0 ran work")
	}
}

// goid extracts the current goroutine's ID from its stack header — a
// test-only trick to observe which goroutine ran which item.
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

// TestRunTrialsStaticSharding pins the deterministic assignment: item i
// always runs on worker i mod W, and one worker runs its items in
// increasing order. The assignment is observable because all of one
// worker's items run on one goroutine.
func TestRunTrialsStaticSharding(t *testing.T) {
	const n, workers = 11, 3
	var mu sync.Mutex
	perG := map[int64][]int{}
	if err := RunTrials(n, workers, func(i int) error {
		id := goid()
		mu.Lock()
		defer mu.Unlock()
		perG[id] = append(perG[id], i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(perG) != workers {
		t.Fatalf("ran on %d goroutines, want %d", len(perG), workers)
	}
	for _, items := range perG {
		for k, i := range items {
			if i%workers != items[0]%workers {
				t.Fatalf("goroutine mixes shards: items %v", items)
			}
			if k > 0 && i != items[k-1]+workers {
				t.Fatalf("shard ran items out of stride order: %v", items)
			}
		}
	}
}
