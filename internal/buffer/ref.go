package buffer

import "sync/atomic"

// Ref is a refcounted handle on a track the engine made (a
// reconstruction), the one kind of delivered track whose bytes go back
// to the arena. It exists so a made track can outlive the Step that made
// it without copying: the engine Shares the buffer once and holds that
// reference until its next Step, a consumer that ships the track later
// (a network session's writer) Retains the Ref, and the last holder's
// Release Puts the buffer back. A track read off a platter
// carries no Ref: it is the drive's own immutable slice, which the GC
// keeps alive for as long as anyone holds it. Ref headers are recycled
// through the arena's own free list, so steady-state sharing allocates
// nothing.
//
// Ownership rule: Share transfers the buffer from plain Get/Put
// discipline into refcounted discipline — after Share the producer must
// not Put the raw slice, only Release the Ref. Bytes must not be read
// after the holder's own Release (another stream may be filling the
// recycled buffer by then), and no holder ever writes them.
type Ref struct {
	arena *Arena
	buf   []byte
	refs  atomic.Int32
}

// Share wraps buf in a Ref with an initial count of one, transferring
// ownership of the slice to the Ref. The header comes off the arena's
// free list when one is spare. Works on a nil arena too: the header is
// then allocated, and the final Release drops the slice for the GC.
func (a *Arena) Share(buf []byte) *Ref {
	r := a.takeRef()
	r.arena = a
	r.buf = buf
	r.refs.Store(1)
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

// Release drops one reference. When the last one drops, the buffer and
// the header go back to the arena; the Ref must not be touched
// afterwards.
func (r *Ref) Release() {
	n := r.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("buffer: Release on released Ref")
	}
	a, buf := r.arena, r.buf
	r.arena, r.buf = nil, nil
	a.put(buf, r)
}

// Outstanding is the number of buffers currently checked out of the
// arena (handed out and not yet returned). Leak tests assert it drops
// back to zero once every consumer has Released.
func (a *Arena) Outstanding() int64 {
	if a == nil {
		return 0
	}
	return a.gets.Load() - a.puts.Load()
}
