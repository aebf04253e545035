package parity

import (
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

// Batch is a queue of folds run together: Add queues one, Run runs them
// all over min(GOMAXPROCS, folds) goroutines — the caller's and idle
// fold workers — and empties the queue. Open, at the start of a round of
// Adds, hands the batch to the workers early, and they fold each fold
// as Add queues it. A batch of one fold runs inline, an empty one costs
// a length check, and once the queue has grown (Grow) Open, Add and Run
// allocate nothing. A Batch is used by one goroutine at a time.
type Batch struct {
	folds []queued
	srcs  [][]byte // every fold's sources; Add copies the list, not the bytes
	// dsts and reads are the address ranges of the queued destinations
	// and sources, for Add's alias check.
	dsts, reads []span
	// added counts the folds queued since the last Open, and open says
	// whether Open handed this round to a worker.
	added int
	open  bool

	// What the workers read. shared is the queue's backing array as the
	// batch was handed over; Add writes a fold into it before it counts
	// the fold in published. next is the next fold to claim, closed says
	// Run has begun (nothing more is published), and helpers counts the
	// workers handed the batch that are not done with it.
	shared                   []queued
	published, next, helpers atomic.Int64
	closed                   atomic.Bool
}

// queued is one fold. srcs is its window of Batch.srcs, taken at Add,
// so a worker reads it safely while a later Add grows Batch.srcs.
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

// Open begins a round of folds, such as a cycle's. If the last round
// queued more than one fold, it hands the batch to up to
// min(GOMAXPROCS, that count)−1 idle fold workers now, and they fold
// what Add queues while the caller goes on, so their wake-up overlaps
// the caller's work rather than Run's. Run ends the round: an opened
// batch must be Run, or its workers wait on it for ever.
func (b *Batch) Open() {
	last := b.added
	b.added = 0
	if !b.open {
		b.open = b.share(last)
	}
}

// Add queues the fold dst = srcs[0] ⊕ … ⊕ srcs[k-1], checked as
// EncodeInto checks it: dst may alias srcs[0] but no other source. The
// folds of a batch run at once and in no order, so Add refuses with
// ErrAliased a fold whose destination overlaps a queued buffer or whose
// source overlaps a queued destination. A refused fold queues nothing.
// Neither dst nor any source may be written until Run returns.
func (b *Batch) Add(dst []byte, srcs ...[]byte) error {
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
		b.dsts = append(b.dsts, spanOf(dst))
		for k, s := range srcs {
			if k > 0 || !accumulates(dst, s) {
				b.reads = append(b.reads, spanOf(s))
			}
		}
	}
	lo, n := len(b.srcs), len(b.folds)
	b.srcs = append(b.srcs, srcs...)
	b.folds = append(b.folds, queued{dst, b.srcs[lo:len(b.srcs):len(b.srcs)]})
	b.added++
	if b.open && n < len(b.shared) {
		b.published.Store(int64(n + 1))
	}
	return nil
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
// the queue; it ends the round Open began. The caller folds what no
// worker has claimed.
func (b *Batch) Run() {
	n := len(b.folds)
	if n == 0 && !b.open {
		return
	}
	b.closed.Store(true)
	if !b.open {
		b.share(n)
	}
	b.work()
	// Folds queued past the room the workers were shown were never
	// published: they are the caller's.
	for _, f := range b.folds[b.published.Load():] {
		fold(f.dst, f.srcs)
	}
	// Yield, not park, while workers finish: parking would take a wait
	// record, which can drift to another P's cache and be allocated anew.
	for b.helpers.Load() > 0 {
		runtime.Gosched()
	}
	b.folds, b.srcs = b.folds[:0], b.srcs[:0]
	b.dsts, b.reads = b.dsts[:0], b.reads[:0]
	b.open = false
	b.next.Store(0)
	b.published.Store(0)
	b.closed.Store(false)
}

// share publishes the queue and hands the batch to up to
// min(GOMAXPROCS, folds)−1 idle fold workers, starting the workers
// first if GOMAXPROCS has grown. It reports whether a worker took it.
func (b *Batch) share(folds int) bool {
	procs := runtime.GOMAXPROCS(0)
	w := min(procs, folds) - 1
	if w < 1 {
		return false
	}
	for have := workers.Load(); have < int64(procs-1); have = workers.Load() {
		if workers.CompareAndSwap(have, have+1) {
			go foldWorker()
		}
	}
	b.shared = b.folds[:cap(b.folds)]
	b.published.Store(int64(len(b.folds)))
	handed := false
	for ; w > 0; w-- {
		b.helpers.Add(1)
		select {
		case idle <- b:
			handed = true
		default:
			b.helpers.Add(-1) // no worker is idle: the caller folds its share
		}
	}
	return handed
}

// work claims and runs published folds until none is left and Run has
// begun; before that, it waits for Add to publish more.
func (b *Batch) work() {
	for {
		closed := b.closed.Load()
		i := b.next.Load()
		if i < b.published.Load() {
			if b.next.CompareAndSwap(i, i+1) {
				f := b.shared[i]
				fold(f.dst, f.srcs)
			}
			continue
		}
		if closed {
			return
		}
		runtime.Gosched()
	}
}

// The fold workers serve every Batch: each parks on idle until an Open
// or a Run hands it one (a pointer, so the hand-off allocates nothing)
// and folds from it. They hold nothing between batches, so they are
// started as GOMAXPROCS first calls for them and never stopped.
var (
	idle    = make(chan *Batch)
	workers atomic.Int64
)

func foldWorker() {
	for b := range idle {
		b.work()
		b.helpers.Add(-1)
	}
}
