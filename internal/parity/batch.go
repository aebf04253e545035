package parity

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"unsafe"
)

// ErrAliased is Add's refusal of a fold whose destination overlaps a
// queued buffer or one of its own sources but srcs[0], or whose source
// overlaps a queued destination.
var ErrAliased = errors.New("parity: batch destination aliases another queued buffer")

// Batch is a queue of folds run together: Add queues one, Start hands
// the queue to fold workers and returns at once, and Run, the only wait,
// folds what no worker claimed, waits for the workers and empties the
// queue. Run without Start spreads the queue over min(GOMAXPROCS,
// folds) goroutines, the caller's among them; a batch of one fold runs
// inline, and an empty one costs a length check. Once the queue has grown
// (Grow), Start, Add and Run allocate nothing. A Batch is used by one
// goroutine at a time.
type Batch struct {
	folds []queued
	srcs  [][]byte // every fold's sources; Add copies the list, not the bytes
	// dsts and reads are the address ranges of the queued destinations
	// and sources, for Add's alias check and Queued; sorted says dsts is
	// in address order, as Queued leaves it.
	dsts, reads []span
	sorted      bool

	// What the workers read. shared is the queue as it was handed over
	// (empty until then), next is the next fold to claim, and helpers
	// counts the workers handed the batch that are not done with it.
	shared        []queued
	next, helpers atomic.Int64
}

// queued is one fold. srcs is its window of Batch.srcs, taken at Add.
type queued struct {
	dst  []byte
	srcs [][]byte
}

// span is the address range of a buffer, for Add's alias check.
type span struct{ start, end uintptr }

func spanOf(p []byte) span {
	start := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	return span{start, start + uintptr(len(p))}
}

func (s span) overlaps(t span) bool { return s.start < t.end && t.start < s.end }

// overlapsAny reports whether s overlaps any of spans.
func (s span) overlapsAny(spans []span) bool {
	for _, t := range spans {
		if s.overlaps(t) {
			return true
		}
	}
	return false
}

// Grow makes room for folds more folds over srcs more sources.
func (b *Batch) Grow(folds, srcs int) {
	b.folds, b.srcs = slices.Grow(b.folds, folds), slices.Grow(b.srcs, srcs)
	b.dsts, b.reads = slices.Grow(b.dsts, folds), slices.Grow(b.reads, srcs)
}

// Start hands the queued folds to up to min(GOMAXPROCS−1, folds) fold
// workers and returns at once: the folds run behind the caller's own
// work. Run waits for them; until it returns, no queued destination
// may be read and no queued buffer written. An Add after Start runs Run
// first.
func (b *Batch) Start() {
	if n := len(b.folds); n > 0 && len(b.shared) == 0 {
		b.share(min(runtime.GOMAXPROCS(0)-1, n))
	}
}

// Add queues the fold dst = srcs[0] ⊕ … ⊕ srcs[k-1], checked as
// EncodeInto checks it: dst may alias srcs[0] but no other source. The
// folds of a batch run at once and in no order, so Add refuses with
// ErrAliased a fold whose destination overlaps a queued buffer or whose
// source overlaps a queued destination. A refused fold queues nothing.
// Neither dst nor any source may be written until Run returns.
func (b *Batch) Add(dst []byte, srcs ...[]byte) error {
	if len(b.shared) > 0 {
		b.Run() // the started folds are the workers': wait for them
	}
	if len(srcs) == 0 {
		return ErrEmptyGroup
	}
	for i, s := range srcs {
		if len(s) != len(dst) {
			return fmt.Errorf("%w: block %d is %d bytes, dst %d", ErrSizeMismatch, i, len(s), len(dst))
		}
	}
	if len(dst) > 0 {
		if err := b.check(dst, srcs); err != nil {
			return err
		}
		b.dsts, b.sorted = append(b.dsts, spanOf(dst)), false
		for k, s := range srcs {
			if k > 0 || !accumulates(dst, s) {
				b.reads = append(b.reads, spanOf(s))
			}
		}
	}
	lo := len(b.srcs)
	b.srcs = append(b.srcs, srcs...)
	b.folds = append(b.folds, queued{dst, b.srcs[lo:]})
	return nil
}

// Queued reports whether p overlaps the destination of a fold queued
// and not yet run: bytes that hold no result until Run returns. The
// first call after an Add sorts the destinations, which are disjoint, so
// a call is a binary search.
func (b *Batch) Queued(p []byte) bool {
	if len(p) == 0 {
		return false
	}
	if !b.sorted {
		slices.SortFunc(b.dsts, func(s, t span) int { return cmp.Compare(s.start, t.start) })
		b.sorted = true
	}
	q := spanOf(p)
	// The first destination that ends past p's start is the one p can
	// overlap: the ends are in order too.
	i, _ := slices.BinarySearchFunc(b.dsts, q.start, func(s span, start uintptr) int {
		if s.end <= start {
			return -1
		}
		return 1
	})
	return i < len(b.dsts) && b.dsts[i].start < q.end
}

// accumulates reports whether src, a fold's srcs[0], is its destination
// dst: a fold in place, which the check leaves out.
func accumulates(dst, src []byte) bool { return unsafe.SliceData(src) == unsafe.SliceData(dst) }

// check is Add's alias check of a fold over non-empty buffers: dst may
// overlap no queued buffer and none of its own sources but an
// accumulating srcs[0], and a source may overlap no queued destination.
// Sources may share bytes.
func (b *Batch) check(dst []byte, srcs [][]byte) error {
	d := spanOf(dst)
	if d.overlapsAny(b.dsts) || d.overlapsAny(b.reads) {
		return ErrAliased
	}
	for k, s := range srcs {
		if k == 0 && accumulates(dst, s) {
			continue
		}
		if r := spanOf(s); r.overlaps(d) || r.overlapsAny(b.dsts) {
			return ErrAliased
		}
	}
	return nil
}

// Run runs every queued fold, returns once all are done, and empties
// the queue. The caller folds what no worker has claimed.
func (b *Batch) Run() {
	n := len(b.folds)
	if n == 0 {
		return
	}
	if len(b.shared) == 0 {
		b.share(min(runtime.GOMAXPROCS(0), n) - 1)
	}
	b.work()
	// Yield, not park, while workers finish: parking would take a wait
	// record, which can drift to another P's cache and be allocated anew.
	for b.helpers.Load() > 0 {
		runtime.Gosched()
	}
	b.folds, b.srcs = b.folds[:0], b.srcs[:0]
	b.dsts, b.reads = b.dsts[:0], b.reads[:0]
	b.shared = nil
	b.next.Store(0)
}

// share hands the queue over: it becomes shared, then goes to up to w
// fold workers, each an idle one or, when none is idle, a new one
// started on this batch while the pool is below its ceiling. A fold no
// worker claims is the caller's, at Run.
func (b *Batch) share(w int) {
	b.shared = b.folds
	for ; w > 0; w-- {
		b.helpers.Add(1)
		select {
		case idle <- b:
		default:
			if addWorker() {
				go foldWorker(b)
			} else {
				b.helpers.Add(-1) // the pool is busy and full: the caller folds its share
			}
		}
	}
}

// work claims and runs shared folds until none is left.
func (b *Batch) work() {
	for {
		i := b.next.Add(1) - 1
		if i >= int64(len(b.shared)) {
			return
		}
		f := b.shared[i]
		fold(f.dst, f.srcs)
	}
}

// The fold workers serve every Batch: each parks on idle until a Start
// or a Run hands it one (a pointer, so the hand-off allocates nothing)
// and folds from it. A batch handed over while every worker is busy
// starts a new worker on it, so a started batch runs behind its caller
// even while another batch holds the pool, and one Batch's Run waits
// only for its own folds. The pool grows to at most 2·(GOMAXPROCS−1):
// a server starts at most two batches a cycle, its engine's and its
// online rebuild's, each handed to up to GOMAXPROCS−1 workers. The
// workers hold nothing between batches and are never stopped.
var (
	idle    = make(chan *Batch)
	workers atomic.Int64
)

// addWorker counts one more fold worker, unless the pool is at its
// ceiling.
func addWorker() bool {
	ceiling := int64(2 * (runtime.GOMAXPROCS(0) - 1))
	for have := workers.Load(); have < ceiling; have = workers.Load() {
		if workers.CompareAndSwap(have, have+1) {
			return true
		}
	}
	return false
}

// foldWorker folds from b, then from every batch idle hands it.
func foldWorker(b *Batch) {
	for {
		b.work()
		b.helpers.Add(-1)
		b = <-idle
	}
}
