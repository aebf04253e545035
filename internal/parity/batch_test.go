package parity

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestBatchMatchesSerialFold is the batch's differential test: random
// batches of folds over 1…9 sources, at sizes on both sides of every
// chunk boundary, sources shared between folds and some destinations
// aliasing their own srcs[0], must leave every destination equal to
// what the serial fold gives. Run it under -cpu 1,2,4 so the batch runs
// inline and spread over workers.
func TestBatchMatchesSerialFold(t *testing.T) {
	if err := randomBatches(rand.New(rand.NewSource(51)), 40); err != nil {
		t.Fatal(err)
	}
}

// TestBatchConcurrentBatches runs batches from several goroutines at
// once, each with its own Batch, over the one set of fold workers.
func TestBatchConcurrentBatches(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			if err := randomBatches(rand.New(rand.NewSource(seed)), 12); err != nil {
				t.Error(err)
			}
		}(int64(60 + g))
	}
	wg.Wait()
}

// randomBatches runs rounds random batches through one Batch and checks
// each destination against the serial fold.
func randomBatches(r *rand.Rand, rounds int) error {
	sizes := []int{0, 1, 63, 64, 127, 128, 129, 255, 256, 50_000, 50_001, 51_200}
	var b Batch
	for round := 0; round < rounds; round++ {
		n := sizes[round%len(sizes)]
		pool := randBlocks(r, 12, n)
		folds := 1 + r.Intn(12)
		dsts := make([][]byte, folds)
		want := make([][]byte, folds)
		for i := range dsts {
			srcs := make([][]byte, 1+r.Intn(9))
			for j := range srcs {
				srcs[j] = pool[r.Intn(len(pool))]
			}
			dsts[i] = make([]byte, n)
			r.Read(dsts[i])
			if r.Intn(3) == 0 {
				// dst aliasing srcs[0]: an accumulator folding in place.
				copy(dsts[i], srcs[0])
				srcs[0] = dsts[i]
			}
			want[i] = make([]byte, n)
			fold(want[i], append([][]byte{bytes.Clone(srcs[0])}, srcs[1:]...))
			if err := b.Add(dsts[i], srcs...); err != nil {
				return err
			}
		}
		if len(b.folds) != folds {
			return fmt.Errorf("round %d: %d folds queued, want %d", round, len(b.folds), folds)
		}
		if err := b.Run(); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		if len(b.folds) != 0 {
			return fmt.Errorf("round %d: %d folds left queued after Run", round, len(b.folds))
		}
		for i := range dsts {
			if !bytes.Equal(dsts[i], want[i]) {
				return fmt.Errorf("round %d, size %d: fold %d of %d differs from the serial fold", round, n, i, folds)
			}
		}
	}
	return nil
}

// runRefused checks that b refuses its queue with ErrAliased, leaves
// every destination untouched and the queue empty.
func runRefused(t *testing.T, b *Batch, dsts ...[]byte) {
	t.Helper()
	before := make([][]byte, len(dsts))
	for i, d := range dsts {
		before[i] = bytes.Clone(d)
	}
	if err := b.Run(); !errors.Is(err, ErrAliased) {
		t.Fatalf("Run = %v, want ErrAliased", err)
	}
	for i, d := range dsts {
		if !bytes.Equal(d, before[i]) {
			t.Fatalf("refused batch wrote destination %d", i)
		}
	}
	if len(b.folds) != 0 {
		t.Fatalf("refused batch left %d folds queued", len(b.folds))
	}
}

// TestBatchRefusesDestinationQueuedTwice: two folds into one buffer, or
// into overlapping parts of one, would race.
func TestBatchRefusesDestinationQueuedTwice(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	src := randBlocks(r, 3, 256)
	dst := make([]byte, 512)
	var b Batch
	for _, other := range [][]byte{dst[:256], dst[128:384]} {
		for _, d := range [][]byte{dst[:256], other} {
			if err := b.Add(d, src...); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Add(make([]byte, 256), src[0]); err != nil {
			t.Fatal(err)
		}
		runRefused(t, &b, dst)
	}
}

// TestBatchRefusesDestinationAsSource: a fold reading a buffer another
// fold of the batch writes would read it half made; so would a fold
// reading its own destination anywhere but as srcs[0].
func TestBatchRefusesDestinationAsSource(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	src := randBlocks(r, 3, 256)
	made, other := make([]byte, 256), make([]byte, 256)
	var b Batch
	// The made track is a later fold's survivor.
	if err := b.Add(made, src...); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(other, src[0], made, src[1]); err != nil {
		t.Fatal(err)
	}
	runRefused(t, &b, made, other)
	// A source overlapping another fold's destination by one byte.
	wide := make([]byte, 512)
	if err := b.Add(wide[:256], src...); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(other, wide[255:511]); err != nil {
		t.Fatal(err)
	}
	runRefused(t, &b, wide, other)
	// A fold whose own destination is its second source.
	if err := b.Add(made, src[0], made); err != nil {
		t.Fatal(err)
	}
	runRefused(t, &b, made)
}

// TestBatchAddErrors: Add checks the fold as EncodeInto does and queues
// nothing on an error.
func TestBatchAddErrors(t *testing.T) {
	var b Batch
	if err := b.Add(make([]byte, 8)); !errors.Is(err, ErrEmptyGroup) {
		t.Errorf("no sources: %v, want ErrEmptyGroup", err)
	}
	if err := b.Add(make([]byte, 8), make([]byte, 8), make([]byte, 7)); !errors.Is(err, ErrSizeMismatch) {
		t.Errorf("short source: %v, want ErrSizeMismatch", err)
	}
	if len(b.folds) != 0 {
		t.Errorf("%d folds queued after refused Adds", len(b.folds))
	}
}

// TestBatchZeroAllocs pins Add and Run to no allocations once the queue
// has grown, with more folds than CPUs so the workers take part.
func TestBatchZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	srcs := randBlocks(r, 5, 50_000)
	dsts := randBlocks(r, 8, 50_000)
	var b Batch
	if n := allocsPerRun(50, func() {
		for _, d := range dsts {
			if err := b.Add(d, srcs...); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Run(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Batch Add+Run allocates %.1f per batch at GOMAXPROCS %d, want 0", n, runtime.GOMAXPROCS(0))
	}
}

// allocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1), under
// which every batch would fold inline: it counts at the GOMAXPROCS the
// test runs at (-cpu), after one warm-up call, and divides as
// AllocsPerRun does.
func allocsPerRun(runs int, f func()) float64 {
	f()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&ms)
	return float64((ms.Mallocs - before) / uint64(runs))
}
