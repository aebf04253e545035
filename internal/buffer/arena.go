package buffer

import (
	"sync"
	"sync/atomic"
)

// Arena recycles track-sized byte buffers through a free list so the
// steady-state data path stops allocating one slice per track the engine
// makes. It is distinct from Pool: Pool is the paper's track-count
// *accounting* (capacity and peak, §5's buffer-space penalty), Arena is
// the Go-level byte-buffer recycler underneath it. The two compose —
// engines acquire accounting from a Pool and bytes from an Arena.
//
// The engines take from it only the tracks they make: reconstructions
// and XOR accumulators. A track read off a platter is the drive's own
// slice, never copied, and never enters the free list. The arena also
// recycles the headers of the Refs it Shares.
//
// Ownership rule: a buffer obtained from Get/GetZeroed is owned by the
// caller until it is passed to Put, after which it must not be touched.
// Put-then-read is the use-after-free of this design; the race detector
// will not catch it (the free list hands buffers out data-race-free), so
// the engines follow a strict acquire-at-make, release-at-delivery
// discipline documented in DESIGN.md.
type Arena struct {
	trackSize int
	mu        sync.Mutex
	// free is a LIFO stack: the most recently returned buffer, the one
	// most likely still in cache, goes out first. It survives garbage
	// collection and boxes nothing on Put.
	free [][]byte
	// refs is the free list of released Ref headers, guarded by mu too.
	refs []*Ref
	gets atomic.Int64
	puts atomic.Int64
	news atomic.Int64
}

// NewArena creates an arena handing out buffers of exactly trackSize
// bytes. A nil *Arena is valid: Get allocates fresh and Put discards.
func NewArena(trackSize int) *Arena {
	return &Arena{trackSize: trackSize}
}

// TrackSize returns the buffer size this arena hands out.
func (a *Arena) TrackSize() int {
	if a == nil {
		return 0
	}
	return a.trackSize
}

// Get returns a track-sized buffer with undefined contents: the last
// one returned, or a fresh allocation when the free list is empty.
// Callers that fully overwrite the buffer (parity folds) should use Get;
// XOR accumulators need GetZeroed.
func (a *Arena) Get() []byte {
	if a == nil {
		return nil
	}
	a.gets.Add(1)
	a.mu.Lock()
	if n := len(a.free); n > 0 {
		buf := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		a.mu.Unlock()
		return buf
	}
	a.mu.Unlock()
	a.news.Add(1)
	return make([]byte, a.trackSize)
}

// GetZeroed returns a track-sized buffer with every byte zero, for use
// as an XOR accumulator.
func (a *Arena) GetZeroed() []byte {
	buf := a.Get()
	clear(buf)
	return buf
}

// Put returns a buffer to the arena. nil buffers and buffers of the
// wrong size (e.g. slices that came from somewhere else) are ignored, so
// callers can Put unconditionally at their release points. After Put the
// caller must not touch the buffer again. A platter view must never be
// Put: the next Get would hand the platter's bytes out to be written.
func (a *Arena) Put(buf []byte) { a.put(buf, nil) }

// put is Put plus, for a released Ref, its header: both go back on their
// free lists under one lock.
func (a *Arena) put(buf []byte, r *Ref) {
	if a == nil {
		return
	}
	track := buf != nil && len(buf) == a.trackSize
	if track {
		a.puts.Add(1)
	}
	a.mu.Lock()
	if track {
		a.free = append(a.free, buf)
	}
	if r != nil {
		a.refs = append(a.refs, r)
	}
	a.mu.Unlock()
}

// takeRef returns a spare Ref header, or a fresh one when none is spare
// (always, on a nil arena).
func (a *Arena) takeRef() *Ref {
	if a == nil {
		return new(Ref)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.refs)
	if n == 0 {
		return new(Ref)
	}
	r := a.refs[n-1]
	a.refs[n-1] = nil
	a.refs = a.refs[:n-1]
	return r
}

// Stats reports lifetime counters: buffers handed out, buffers returned,
// and fresh allocations made because the free list was empty. gets -
// news is the number of recycled hand-outs.
func (a *Arena) Stats() (gets, puts, news int64) {
	if a == nil {
		return 0, 0, 0
	}
	return a.gets.Load(), a.puts.Load(), a.news.Load()
}
