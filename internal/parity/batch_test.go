package parity

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestBatchMatchesSerialFold is the batch's differential test: random
// batches of folds over 1…9 sources, at sizes on both sides of every
// chunk boundary, sources shared between folds and some destinations
// aliasing their own srcs[0], must leave every destination equal to
// what the serial fold gives. Run it under -cpu 1,2,4 so the batch runs
// inline and spread over workers.
func TestBatchMatchesSerialFold(t *testing.T) {
	if err := randomBatches(rand.New(rand.NewSource(51)), 40, false); err != nil {
		t.Fatal(err)
	}
}

// TestBatchFoldsBehind is the same differential with each round
// started once queued, as a cycle's end starts it: the workers fold
// while the caller writes into buffers no fold touches, and Run, called
// at the next cycle's start, waits for them. Some rounds Run mid-round
// first, as a made track's return to the arena does, and some queue a
// fold after Start that reads a started fold's destination: that Add
// must wait for the started round, not refuse the fold as aliased.
func TestBatchFoldsBehind(t *testing.T) {
	if err := randomBatches(rand.New(rand.NewSource(55)), 40, true); err != nil {
		t.Fatal(err)
	}
}

// TestBatchConcurrentBatches runs batches from several goroutines at
// once, each with its own Batch, over the one set of fold workers; half
// of them start their rounds and fold behind.
func TestBatchConcurrentBatches(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64, behind bool) {
			defer wg.Done()
			if err := randomBatches(rand.New(rand.NewSource(seed)), 12, behind); err != nil {
				t.Error(err)
			}
		}(int64(60+g), g%2 == 1)
	}
	wg.Wait()
}

// randomBatches runs rounds random batches through one Batch and checks
// each destination against the serial fold. With behind, each round
// runs once mid-round, is started once queued, and is Run only after
// the caller has written buffers of its own; every other round then
// queues one more fold, reading a started fold's destination, before
// that Run.
func randomBatches(r *rand.Rand, rounds int, behind bool) error {
	sizes := []int{0, 1, 63, 64, 127, 128, 129, 255, 256, 50_000, 50_001, 51_200}
	var b Batch
	for round := 0; round < rounds; round++ {
		n := sizes[round%len(sizes)]
		pool := randBlocks(r, 12, n)
		folds := 1 + r.Intn(12)
		mid := -1
		if behind {
			mid = r.Intn(folds)
		}
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
			if i == mid {
				b.Run()
				if len(b.folds) != 0 {
					return fmt.Errorf("round %d: %d folds left queued after a mid-round Run", round, len(b.folds))
				}
				for j := 0; j <= i; j++ {
					if !bytes.Equal(dsts[j], want[j]) {
						return fmt.Errorf("round %d, size %d: fold %d of %d differs from the serial fold after a mid-round Run", round, n, j, folds)
					}
				}
			}
		}
		if queued := folds - mid - 1; len(b.folds) != queued {
			return fmt.Errorf("round %d: %d folds queued, want %d", round, len(b.folds), queued)
		}
		if n > 0 && folds-1 > mid && !b.Queued(dsts[folds-1]) {
			return fmt.Errorf("round %d: the last fold's destination is not reported queued", round)
		}
		var copied []byte
		if behind {
			b.Start()
			// The caller's own work while the folds run behind it.
			own := make([]byte, n)
			r.Read(own)
			for i := range own {
				own[i] ^= byte(i)
			}
			if round%2 == 1 {
				// A fold reading the last fold's destination: the Add
				// runs the started round, then queues it alone.
				copied = make([]byte, n)
				if err := b.Add(copied, dsts[folds-1]); err != nil {
					return fmt.Errorf("round %d: Add after Start: %v", round, err)
				}
				if len(b.folds) != 1 {
					return fmt.Errorf("round %d: %d folds queued after an Add after Start, want 1", round, len(b.folds))
				}
				for i := range dsts {
					if !bytes.Equal(dsts[i], want[i]) {
						return fmt.Errorf("round %d, size %d: fold %d of %d not done when an Add after Start returned", round, n, i, folds)
					}
				}
			}
		}
		b.Run()
		if len(b.folds) != 0 {
			return fmt.Errorf("round %d: %d folds left queued after Run", round, len(b.folds))
		}
		if n > 0 && b.Queued(dsts[folds-1]) {
			return fmt.Errorf("round %d: a destination is reported queued after Run", round)
		}
		for i := range dsts {
			if !bytes.Equal(dsts[i], want[i]) {
				return fmt.Errorf("round %d, size %d: fold %d of %d differs from the serial fold", round, n, i, folds)
			}
		}
		if copied != nil && !bytes.Equal(copied, want[folds-1]) {
			return fmt.Errorf("round %d, size %d: the fold queued after Start differs from the serial fold", round, n)
		}
	}
	return nil
}

// addRefused checks that b refuses the fold dst = srcs… with
// ErrAliased, queues nothing and leaves dst untouched.
func addRefused(t *testing.T, b *Batch, dst []byte, srcs ...[]byte) {
	t.Helper()
	before, queued := bytes.Clone(dst), len(b.folds)
	if err := b.Add(dst, srcs...); !errors.Is(err, ErrAliased) {
		t.Fatalf("Add = %v, want ErrAliased", err)
	}
	if len(b.folds) != queued {
		t.Fatalf("refused fold left %d folds queued, want %d", len(b.folds), queued)
	}
	if !bytes.Equal(dst, before) {
		t.Fatal("refused fold wrote its destination")
	}
}

// runFolded runs b and checks each dsts[i] against the serial fold of
// srcs[i].
func runFolded(t *testing.T, b *Batch, dsts [][]byte, srcs [][][]byte) {
	t.Helper()
	want := make([][]byte, len(dsts))
	for i := range dsts {
		want[i] = make([]byte, len(dsts[i]))
		fold(want[i], srcs[i])
	}
	b.Run()
	for i := range dsts {
		if !bytes.Equal(dsts[i], want[i]) {
			t.Fatalf("fold %d queued before a refusal differs from the serial fold", i)
		}
	}
}

// TestBatchRefusesDestinationQueuedTwice: two folds into one buffer, or
// into overlapping parts of one, would race, so Add refuses the second.
func TestBatchRefusesDestinationQueuedTwice(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	src := randBlocks(r, 3, 256)
	dst := make([]byte, 512)
	var b Batch
	for _, other := range [][]byte{dst[:256], dst[128:384]} {
		if err := b.Add(dst[:256], src...); err != nil {
			t.Fatal(err)
		}
		addRefused(t, &b, other, src...)
		lone := make([]byte, 256)
		if err := b.Add(lone, src[0]); err != nil {
			t.Fatal(err)
		}
		runFolded(t, &b, [][]byte{dst[:256], lone}, [][][]byte{src, src[:1]})
	}
}

// TestBatchRefusesDestinationAsSource: a fold reading a buffer another
// fold of the batch writes would read it half made, and a fold writing
// a buffer another reads would change its input; so would a fold
// reading its own destination anywhere but as srcs[0]. Add refuses each.
func TestBatchRefusesDestinationAsSource(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	src := randBlocks(r, 3, 256)
	made, other := make([]byte, 256), make([]byte, 256)
	var b Batch
	// The made track is a later fold's survivor.
	if err := b.Add(made, src...); err != nil {
		t.Fatal(err)
	}
	addRefused(t, &b, other, src[0], made, src[1])
	runFolded(t, &b, [][]byte{made}, [][][]byte{src})
	// A source overlapping another fold's destination by one byte.
	wide := make([]byte, 512)
	if err := b.Add(wide[:256], src...); err != nil {
		t.Fatal(err)
	}
	addRefused(t, &b, other, wide[255:511])
	runFolded(t, &b, [][]byte{wide[:256]}, [][][]byte{src})
	// A destination overlapping another fold's source.
	if err := b.Add(other, wide[256:]); err != nil {
		t.Fatal(err)
	}
	addRefused(t, &b, wide[128:384], src...)
	runFolded(t, &b, [][]byte{other}, [][][]byte{{wide[256:]}})
	// A fold whose own destination is its second source.
	addRefused(t, &b, made, src[0], made)
	if len(b.folds) != 0 {
		t.Fatalf("%d folds queued after a refused Add on an empty batch", len(b.folds))
	}
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

// TestBatchZeroAllocs pins Add and Run, Add, Start and Run, and two
// batches queued, started and run at once, to no allocations once the
// queues have grown, with more folds than CPUs so the workers take part:
// handed the batch by Run, or by Start.
func TestBatchZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	srcs := randBlocks(r, 5, 50_000)
	dsts := randBlocks(r, 8, 50_000)
	for _, mode := range []string{"run", "start", "start two"} {
		batches := []*Batch{new(Batch)}
		if mode == "start two" {
			batches = append(batches, new(Batch))
		}
		share := len(dsts) / len(batches)
		for _, b := range batches {
			b.Grow(share, share*len(srcs))
		}
		if n := allocsPerRun(50, func() {
			for i, b := range batches {
				for _, d := range dsts[i*share : (i+1)*share] {
					if err := b.Add(d, srcs...); err != nil {
						t.Fatal(err)
					}
				}
				if mode != "run" {
					b.Start()
				}
			}
			for _, b := range batches {
				b.Run()
			}
		}); n != 0 {
			t.Errorf("Batch %s allocates %.1f per round at GOMAXPROCS %d, want 0", mode, n, runtime.GOMAXPROCS(0))
		}
	}
}

// TestBatchStartedBehindBusyPool: a batch started while another started
// batch holds the fold workers still goes to a worker, which folds it
// with no Run from the caller. At GOMAXPROCS 2 a Start hands its batch to
// one worker, so without a new worker the second batch would wait for
// its caller's Run.
func TestBatchStartedBehindBusyPool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	r := rand.New(rand.NewSource(57))
	srcs := randBlocks(r, 6, 51_200)
	var busy, behind Batch
	busyDsts := randBlocks(r, 16, 51_200)
	for _, d := range busyDsts {
		if err := busy.Add(d, srcs...); err != nil {
			t.Fatal(err)
		}
	}
	busy.Start()
	dst := make([]byte, 51_200)
	if err := behind.Add(dst, srcs...); err != nil {
		t.Fatal(err)
	}
	behind.Start()
	for deadline := time.Now().Add(10 * time.Second); behind.next.Load() < 1 || behind.helpers.Load() > 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("a batch started behind a busy pool was not folded without its Run")
		}
	}
	want := make([]byte, len(dst))
	fold(want, srcs)
	if !bytes.Equal(dst, want) {
		t.Fatal("the worker's fold differs from the serial fold")
	}
	behind.Run()
	busySrcs := make([][][]byte, len(busyDsts))
	for i := range busySrcs {
		busySrcs[i] = srcs
	}
	runFolded(t, &busy, busyDsts, busySrcs)
}

// TestBatchQueuedAfterAdds: Queued answers for the folds queued so far,
// in any order of addresses, a part of a destination and a buffer next
// to one included, and again after more Adds.
func TestBatchQueuedAfterAdds(t *testing.T) {
	arena := make([]byte, 64*10)
	part := func(i int) []byte { return arena[i*64 : (i+1)*64] }
	src := make([]byte, 64)
	var b Batch
	for _, i := range []int{7, 2, 5} {
		if err := b.Add(part(i), src); err != nil {
			t.Fatal(err)
		}
	}
	check := func(queued ...int) {
		t.Helper()
		for i := 0; i < 10; i++ {
			if got, want := b.Queued(part(i)), slices.Contains(queued, i); got != want {
				t.Fatalf("Queued(part %d) = %v, want %v", i, got, want)
			}
		}
	}
	check(2, 5, 7)
	if !b.Queued(arena[2*64+10:2*64+11]) || !b.Queued(arena[3*64-1:3*64+1]) || b.Queued(arena[2*64:2*64]) {
		t.Fatal("Queued misjudges a byte inside a destination, a buffer straddling its end or an empty one")
	}
	if err := b.Add(part(0), src); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(part(9), src); err != nil {
		t.Fatal(err)
	}
	check(0, 2, 5, 7, 9)
	b.Run()
	check()
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
