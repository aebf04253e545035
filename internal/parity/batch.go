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

// ErrAliased is Run's refusal of a batch in which a destination overlaps
// another destination or any source but its own fold's srcs[0].
var ErrAliased = errors.New("parity: batch destination aliases another queued buffer")

// Batch is a queue of folds run together: Add queues one, Run runs them
// all over min(GOMAXPROCS, folds) goroutines — the caller's and idle
// fold workers — and empties the queue. A batch of one fold runs inline,
// an empty one costs a length check, and once the queue has grown
// (Grow) Add and Run allocate nothing. A Batch is used by one goroutine
// at a time.
type Batch struct {
	folds []queued
	srcs  [][]byte // every fold's sources; Add copies the list, not the bytes
	spans []span
	// next is the next fold to claim; helpers counts the workers handed
	// the batch that are not done with it.
	next, helpers atomic.Int64
}

type queued struct {
	dst    []byte
	lo, hi int // the fold's sources are srcs[lo:hi]
}

// span is one address range for Run's alias check; kind is 1 for a
// destination, 0 for a source.
type span struct {
	start, end uintptr
	kind       int
}

// Grow makes room for folds more folds over srcs more sources.
func (b *Batch) Grow(folds, srcs int) {
	b.folds, b.srcs = slices.Grow(b.folds, folds), slices.Grow(b.srcs, srcs)
	b.spans = slices.Grow(b.spans, folds+srcs)
}

// Add queues the fold dst = srcs[0] ⊕ … ⊕ srcs[k-1], checked as
// EncodeInto checks it: dst may alias srcs[0] but no other source.
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
	lo := len(b.srcs)
	b.srcs = append(b.srcs, srcs...)
	b.folds = append(b.folds, queued{dst, lo, len(b.srcs)})
	return nil
}

// Run runs every queued fold, returns once all are done, and empties
// the queue. The folds run at once and in no order, so a batch in which
// a destination is written twice or read by another fold is refused
// unrun, with ErrAliased.
func (b *Batch) Run() error {
	n := len(b.folds)
	if n == 0 {
		return nil
	}
	defer func() { b.folds, b.srcs = b.folds[:0], b.srcs[:0] }()
	if err := b.check(); err != nil {
		return err
	}
	b.next.Store(0)
	if w := min(runtime.GOMAXPROCS(0), n); w > 1 {
		for have := workers.Load(); have < int64(runtime.GOMAXPROCS(0)-1); have = workers.Load() {
			if workers.CompareAndSwap(have, have+1) {
				go foldWorker()
			}
		}
		for ; w > 1; w-- {
			b.helpers.Add(1)
			select {
			case idle <- b:
			default:
				b.helpers.Add(-1) // no worker is idle: fold its share here
			}
		}
	}
	b.work()
	// Yield, not park, while workers finish: parking would take a wait
	// record, which can drift to another P's cache and be allocated anew.
	for b.helpers.Load() > 0 {
		runtime.Gosched()
	}
	return nil
}

// work claims and runs queued folds until none is left.
func (b *Batch) work() {
	for i := int(b.next.Add(1)) - 1; i < len(b.folds); i = int(b.next.Add(1)) - 1 {
		f := b.folds[i]
		fold(f.dst, b.srcs[f.lo:f.hi])
	}
}

// check sorts the address ranges of every destination and source and
// sweeps them once: a destination may overlap nothing, except its own
// fold's srcs[0] exactly, which is left out. Sources may share bytes.
func (b *Batch) check() error {
	b.spans = b.spans[:0]
	add := func(p []byte, kind int) {
		if start := uintptr(unsafe.Pointer(unsafe.SliceData(p))); len(p) > 0 {
			b.spans = append(b.spans, span{start, start + uintptr(len(p)), kind})
		}
	}
	for _, f := range b.folds {
		add(f.dst, 1)
		for k, s := range b.srcs[f.lo:f.hi] {
			if k > 0 || unsafe.SliceData(s) != unsafe.SliceData(f.dst) {
				add(s, 0)
			}
		}
	}
	slices.SortFunc(b.spans, func(x, y span) int { return cmp.Compare(x.start, y.start) })
	var end [2]uintptr // the furthest end so far of sources and destinations
	for _, s := range b.spans {
		if s.start < end[1] || s.kind == 1 && s.start < end[0] {
			return ErrAliased
		}
		end[s.kind] = max(end[s.kind], s.end)
	}
	return nil
}

// The fold workers serve every Batch: each parks on idle until a Run
// hands it one (a pointer, so the hand-off allocates nothing) and folds
// from it. They hold nothing between batches, so they are started as
// GOMAXPROCS first calls for them and never stopped.
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
