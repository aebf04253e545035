package buffer

import (
	"sync"
	"sync/atomic"
)

// Ref is a refcounted handle on a delivered track. It exists so one
// delivered track can be handed to N consumers (the session writers of
// a merged read) without copying: the producer Shares or Lends the
// bytes once, each consumer Retains the Ref, and the last holder's
// Release ends it. Ref headers themselves are pooled, so steady-state
// sharing allocates nothing.
//
// Two kinds of bytes sit behind a Ref, and Release treats them
// differently:
//   - Share wraps an arena buffer: a track the engine made. The last
//     Release Puts it back on the arena.
//   - Lend wraps a view someone else owns and never mutates (a platter
//     track, disk.Drive.View). The last Release drops the slice; it is
//     never Put, because the arena's next Get would hand it out to be
//     written.
//
// Either way the Ref counts in its arena's Outstanding until its last
// Release, so a leaked Ref shows in the leak audits whatever its kind.
//
// Ownership rule: Share transfers the buffer from plain Get/Put
// discipline into refcounted discipline — after Share the producer must
// not Put the raw slice, only Release the Ref. Bytes must not be read
// after the holder's own Release (another stream may be filling the
// recycled buffer by then), and no holder ever writes them.
type Ref struct {
	arena *Arena
	buf   []byte
	lent  bool
	refs  atomic.Int32
}

// refHeaders pools Ref structs for arenas (including the nil arena) so
// Share and Lend are allocation-free in steady state.
var refHeaders = sync.Pool{New: func() any { return new(Ref) }}

// Share wraps buf in a Ref with an initial count of one, transferring
// ownership of the slice to the Ref. Works on a nil arena too (the
// final Release then simply drops the slice for the GC).
func (a *Arena) Share(buf []byte) *Ref {
	r := refHeaders.Get().(*Ref)
	r.arena = a
	r.buf = buf
	r.refs.Store(1)
	return r
}

// Lend wraps a read-only view the caller does not own in a Ref with an
// initial count of one. The view counts toward Outstanding until the
// last Release, which drops it without returning it to the arena.
func (a *Arena) Lend(view []byte) *Ref {
	r := a.Share(view)
	r.lent = true
	if a != nil {
		a.lent.Add(1)
	}
	return r
}

// Bytes returns the shared buffer. Valid only while the caller holds an
// unreleased reference.
func (r *Ref) Bytes() []byte { return r.buf }

// Retain adds a reference. The caller must already hold one (retaining
// a Ref that may concurrently hit zero is a use-after-free).
func (r *Ref) Retain() {
	if r.refs.Add(1) <= 1 {
		panic("buffer: Retain on released Ref")
	}
}

// Release drops one reference. When the last one drops, a shared buffer
// goes back to the arena, a lent view is dropped, and the header goes
// back to its pool; the Ref must not be touched afterwards.
func (r *Ref) Release() {
	n := r.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("buffer: Release on released Ref")
	}
	a, buf, lent := r.arena, r.buf, r.lent
	r.arena, r.buf, r.lent = nil, nil, false
	switch {
	case !lent:
		a.Put(buf)
	case a != nil:
		a.lent.Add(-1)
	}
	refHeaders.Put(r)
}

// Outstanding is the number of buffers currently checked out of the
// arena (handed out and not yet returned) plus the views lent through
// it and not yet released. Leak tests assert it drops back to zero once
// every consumer has Released.
func (a *Arena) Outstanding() int64 {
	if a == nil {
		return 0
	}
	return a.gets.Load() - a.puts.Load() + a.lent.Load()
}
