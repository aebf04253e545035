// Package sched provides the shared machinery of the paper's cycle-based
// schedulers (§2): per-disk per-cycle slot budgets, the reporting types
// every scheme simulator emits, and stream bookkeeping.
//
// Time advances in cycles. During each cycle a scheme reads tracks from
// disks into buffers (ordered freely within the cycle, so one maximum
// seek per disk per cycle is charged by the disk model) while the data
// read earlier is transmitted. A disk can read at most its slot budget of
// tracks per cycle; schemes enforce the budget both at admission and when
// failures add reconstruction reads to the schedule.
package sched

import (
	"fmt"

	"ftmm/internal/buffer"
	"ftmm/internal/layout"
)

// Slots tracks per-disk track-read budgets within one cycle.
type Slots struct {
	perDisk int
	used    []int
}

// NewSlots creates budgets for the given number of disks with perDisk
// track reads allowed per disk per cycle.
func NewSlots(disks, perDisk int) (*Slots, error) {
	if disks < 1 {
		return nil, fmt.Errorf("sched: disks %d must be >= 1", disks)
	}
	if perDisk < 1 {
		return nil, fmt.Errorf("sched: per-disk budget %d must be >= 1", perDisk)
	}
	return &Slots{perDisk: perDisk, used: make([]int, disks)}, nil
}

// PerDisk returns the per-disk budget.
func (s *Slots) PerDisk() int { return s.perDisk }

// Disks returns the number of disks budgeted.
func (s *Slots) Disks() int { return len(s.used) }

// check panics on an out-of-range disk index. A bad index is always a
// scheduling bug (a scheme reading a drive that does not exist), never a
// budget condition, so it must fail loudly rather than masquerade as an
// exhausted or empty budget.
func (s *Slots) check(disk int) {
	if disk < 0 || disk >= len(s.used) {
		panic(fmt.Sprintf("sched: disk index %d out of range [0,%d)", disk, len(s.used)))
	}
}

// Take consumes one slot on the disk; it reports false when the disk's
// budget is exhausted. It panics on an out-of-range disk index.
func (s *Slots) Take(disk int) bool {
	s.check(disk)
	if s.used[disk] >= s.perDisk {
		return false
	}
	s.used[disk]++
	return true
}

// Put returns one slot on the disk (used when a tentatively scheduled
// read is dropped in favor of another). It panics on an out-of-range
// index or when the disk has no slot to return.
func (s *Slots) Put(disk int) {
	s.check(disk)
	if s.used[disk] == 0 {
		panic(fmt.Sprintf("sched: Put on disk %d with no slot taken", disk))
	}
	s.used[disk]--
}

// Used returns the slots consumed on the disk this cycle. It panics on
// an out-of-range disk index.
func (s *Slots) Used(disk int) int {
	s.check(disk)
	return s.used[disk]
}

// Free returns the remaining slots on the disk this cycle. It panics on
// an out-of-range disk index.
func (s *Slots) Free(disk int) int {
	s.check(disk)
	return s.perDisk - s.used[disk]
}

// Reset clears all budgets for the next cycle.
func (s *Slots) Reset() {
	for i := range s.used {
		s.used[i] = 0
	}
}

// Delivery is one track handed to the network in a cycle.
type Delivery struct {
	StreamID int
	ObjectID string
	// Track is the object-relative data track index.
	Track int
	// Data is the delivered track content. It is read-only for every
	// consumer: a track the engine read is the platter's own slice
	// (disk.Drive.View), so a write into it would change the stored
	// track for every later reader.
	Data []byte
	// Buf is the refcounted handle behind a made track's Data (a
	// reconstruction, an arena buffer the engine recycles); a read track
	// has none, as its Data is an immutable platter view the GC keeps
	// alive. The engine holds its own reference until the next Step
	// (which is what bounds the report's validity); a consumer that
	// needs a made track's Data to outlive that calls Buf.Retain and
	// later Release instead of copying.
	Buf *buffer.Ref
	// Reconstructed marks tracks rebuilt from parity rather than read.
	Reconstructed bool
}

// Hiccup is a track that was due in a cycle but could not be delivered —
// the paper's discontinuity in delivery.
type Hiccup struct {
	StreamID int
	ObjectID string
	Track    int
	// Reason explains the loss, e.g. "disk failed mid-read" or "dropped
	// in degraded-mode transition".
	Reason string
	// Failure is the drive failure the loss belongs to; the zero value
	// names none.
	Failure Failure
}

// Failure names one drive failure: Drive failed in Cycle, as the
// server's drive log stamps it. Named is false only in the zero value.
type Failure struct {
	Drive, Cycle int
	Named        bool
}

// Erasure is one member of parity group Group (its index in the object)
// that a stream's read found erased: the read of Loc got Err, which is
// disk.ErrFailed or disk.ErrEmptyTrack, as disk.Farm.Missed records.
type Erasure struct {
	StreamID, Group int
	Loc             layout.Location
	Err             error
}

// CycleReport summarizes one simulated cycle.
type CycleReport struct {
	Cycle int
	// Delivered lists the tracks transmitted this cycle, in stream order.
	Delivered []Delivery
	// Hiccups lists tracks lost this cycle.
	Hiccups []Hiccup
	// DataReads and ParityReads count successful track reads this cycle.
	DataReads   int
	ParityReads int
	// Reconstructions counts tracks rebuilt from parity this cycle.
	Reconstructions int
	// Erasures lists, in read order, the group members this cycle's
	// reads found erased.
	Erasures []Erasure
	// Finished lists streams that completed delivery this cycle.
	Finished []int
	// Terminated lists streams dropped this cycle because the system
	// could not continue serving them (degradation of service).
	Terminated []int
	// BufferInUse is the farm-wide buffer occupancy in tracks at the end
	// of the cycle.
	BufferInUse int
}

// Reset clears the report for reuse on a new cycle, keeping the backing
// slices so steady-state cycles do not reallocate them.
func (r *CycleReport) Reset(cycle int) {
	r.Cycle = cycle
	r.Delivered = r.Delivered[:0]
	r.Hiccups = r.Hiccups[:0]
	r.Erasures = r.Erasures[:0]
	r.Finished = r.Finished[:0]
	r.Terminated = r.Terminated[:0]
	r.DataReads = 0
	r.ParityReads = 0
	r.Reconstructions = 0
	r.BufferInUse = 0
}

// Clone deep-copies the report, including every Delivery's Data bytes.
// This is the one statement of report validity: an engine reuses its
// report struct and releases its references on the made tracks it
// delivered at the start of the next Step, so a report (and the Data it
// references) is valid until the next Step and no longer. Callers that
// keep a report further must Clone it first; callers that keep only
// track bytes Retain the Delivery's Buf where it has one.
func (r *CycleReport) Clone() *CycleReport {
	out := *r
	out.Delivered = make([]Delivery, len(r.Delivered))
	for i, d := range r.Delivered {
		d.Data = append([]byte(nil), d.Data...)
		d.Buf = nil // the clone owns a private copy, not a reference
		out.Delivered[i] = d
	}
	out.Hiccups = append([]Hiccup(nil), r.Hiccups...)
	out.Erasures = append([]Erasure(nil), r.Erasures...)
	out.Finished = append([]int(nil), r.Finished...)
	out.Terminated = append([]int(nil), r.Terminated...)
	return &out
}

// Stream is one active delivery: a client receiving an object at its
// bandwidth, one track at a time.
type Stream struct {
	ID  int
	Obj *layout.Object
	// NextDeliver is the next data track index owed to the client.
	NextDeliver int
	// Done marks a completed stream.
	Done bool
	// Terminated marks a stream dropped due to degradation of service.
	Terminated bool
}

// Remaining returns the number of tracks still owed.
func (st *Stream) Remaining() int {
	if st.Done || st.Terminated {
		return 0
	}
	return st.Obj.Tracks - st.NextDeliver
}

// Advance records count tracks as dealt with (delivered or lost) and
// flips Done at the end of the object.
func (st *Stream) Advance(count int) {
	st.NextDeliver += count
	if st.NextDeliver >= st.Obj.Tracks {
		st.NextDeliver = st.Obj.Tracks
		st.Done = true
	}
}
