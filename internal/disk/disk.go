// Package disk simulates the multimedia server's disk farm: a set of
// drives that store whole tracks of real bytes, can fail and be replaced,
// and are organized into fixed clusters of C drives for parity layout.
//
// A drive is in one of the paper's three modes. It is Operational, or
// Failed (its contents gone), or Restoring: replaced by a blank drive
// whose contents are being rebuilt (§1's rebuild mode — "the disks are
// still down, but the process of rebuilding the missing information on
// spare disks is in progress"). Replace moves a drive from Failed to
// Restoring, and only Restored, called when the restore is complete,
// makes it Operational again. So the drive itself is the one record of
// whether it is whole.
//
// A farm's drives are also the one record of what a cycle's reads met:
// every lookup that finds its track erased is noted with its cause until
// Farm.BeginCycle, and Farm.Missed answers from that note, not from the
// drive's state now, which a restore later in the cycle may change.
//
// A drive's track table is a slice indexed by track number, grown on
// write up to the highest track written and never preallocated to the
// drive's capacity: the layouts hand tracks out densely from 0, so the
// table costs one slice header per track up to the highest one in use,
// and a lookup is one index, no hashing.
//
// Timing is not simulated here — the cycle scheduler budgets disk time
// with the analytic model from internal/diskmodel — but data movement is:
// every track read returns the stored bytes (or an error from a failed
// drive), which lets the layers above prove that parity reconstruction
// reproduces the original content exactly.
//
// A Farm, its drives and its record are not safe for concurrent use;
// the server's owner serializes calls. What a lookup lends may cross
// goroutines: a view's bytes are never written again (see View), so a
// reader handed one over a channel, or any other happens-before edge
// from the owner, reads it with no lock.
package disk

import (
	"errors"
	"fmt"
	"slices"

	"ftmm/internal/diskmodel"
)

// State is the operational state of one drive.
type State int

const (
	// Operational drives serve reads and writes.
	Operational State = iota
	// Failed drives reject all I/O; their contents are lost.
	Failed
	// Restoring drives are replacements whose contents are still being
	// rebuilt. They serve reads and writes like an operational drive,
	// but a track not yet restored reads as ErrEmptyTrack.
	Restoring
)

// String names the state.
func (s State) String() string {
	switch s {
	case Operational:
		return "operational"
	case Failed:
		return "failed"
	case Restoring:
		return "restoring"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Errors returned by drive I/O.
var (
	ErrFailed      = errors.New("disk: drive has failed")
	ErrBadTrack    = errors.New("disk: track number out of range")
	ErrEmptyTrack  = errors.New("disk: track has never been written")
	ErrBadSize     = errors.New("disk: data must be exactly one track")
	ErrNotFailed   = errors.New("disk: drive is not failed")
	ErrDoubleFault = errors.New("disk: drive already failed")
)

// Drive is one simulated disk.
type Drive struct {
	id     int
	params diskmodel.Params
	// ntracks is the drive's capacity in tracks, fixed when it is built.
	ntracks int

	state State
	// tracks is the track table: tracks[i] is track i's stored bytes,
	// nil if never written. It grows on write only as far as the highest
	// track written, so len(tracks) <= ntracks.
	tracks [][]byte
	reads  int64
	writes int64
	// rec is the farm's record of erased lookups; nil outside a farm.
	rec *record
}

// record notes a cycle's lookups that found their track erased, for
// every drive of one farm, in a slice Farm.BeginCycle truncates.
type record struct {
	misses []miss
}

// miss is one lookup that found its track erased, and the error it got.
type miss struct {
	drive, track int
	err          error
}

// note records that a lookup of the drive's track got err, and returns
// err.
func (r *record) note(drive, track int, err error) error {
	if r != nil {
		r.misses = append(r.misses, miss{drive, track, err})
	}
	return err
}

// NewDrive creates an empty operational drive.
func NewDrive(id int, params diskmodel.Params) *Drive {
	return &Drive{id: id, params: params, ntracks: params.TracksPerDisk()}
}

// ID returns the drive's farm-wide index.
func (d *Drive) ID() int { return d.id }

// State returns the drive's current state.
func (d *Drive) State() State { return d.state }

// Tracks returns the drive's track count.
func (d *Drive) Tracks() int { return d.ntracks }

// WriteTrack stores one track of data. The drive keeps data itself, not a
// copy: the caller hands the slice over and must never write into it
// again, which is what lets a title byte reach the platter with no copy
// past the tape archive's. The stored slice's capacity is clipped to its
// length, so an append to a view cannot reach whatever follows it in
// the caller's array (the title's next track). It replaces the track's
// previous slice. A track past the table's end grows the table to it.
func (d *Drive) WriteTrack(track int, data []byte) error {
	if err := d.Writable(track, len(data)); err != nil {
		return err
	}
	if track >= len(d.tracks) {
		d.tracks = slices.Grow(d.tracks, track+1-len(d.tracks))[:track+1]
	}
	d.tracks[track] = data[:len(data):len(data)]
	d.writes++
	return nil
}

// Writable returns the error WriteTrack would return for n bytes at the
// track, or nil if it would store them: for a caller that writes later
// and must fail now, as the write would.
func (d *Drive) Writable(track, n int) error {
	if track < 0 || track >= d.ntracks {
		return fmt.Errorf("%w: %d (drive has %d)", ErrBadTrack, track, d.ntracks)
	}
	if n != int(d.params.TrackSize) {
		return fmt.Errorf("%w: got %d bytes, track is %d", ErrBadSize, n, d.params.TrackSize)
	}
	if d.state == Failed {
		return fmt.Errorf("drive %d: %w", d.id, ErrFailed)
	}
	return nil
}

// View lends one track's stored bytes, read-only, and counts a read. It
// is the drive's one lookup; ReadTrackInto is a copy of it. Every reader
// that only reads takes the view: the scheme engines' scheduled reads
// (which deliver it to clients as is), rebuild and scrub.
//
// Invariant: a stored track's slice is replaced, never written into.
// WriteTrack installs the slice its caller handed over and writes into
// no more, Fail and Replace drop the whole table, and nothing else
// touches the bytes. A view therefore keeps reading what the track held
// when it was taken, on whatever goroutine it is handed to, whatever
// happens to the drive afterwards. The caller must not write into it.
//
// A failed drive and an unwritten track return the bare ErrFailed and
// ErrEmptyTrack, so a degraded read allocates nothing; a caller that
// surfaces the error adds the drive's ID. Either is noted in the farm's
// record of the cycle (Farm.Missed).
func (d *Drive) View(track int) ([]byte, error) {
	if track < 0 || track >= d.ntracks {
		return nil, fmt.Errorf("%w: %d (drive has %d)", ErrBadTrack, track, d.ntracks)
	}
	if d.state == Failed {
		return nil, d.rec.note(d.id, track, ErrFailed)
	}
	var data []byte
	if track < len(d.tracks) {
		data = d.tracks[track]
	}
	if data == nil {
		return nil, d.rec.note(d.id, track, ErrEmptyTrack)
	}
	d.reads++
	return data, nil
}

// ReadTrackInto copies one track's data into dst, which must be exactly
// one track long. On error dst is left unmodified. It is for a caller
// that needs a private, writable copy in a buffer it already owns; a
// reader that only reads takes View and copies nothing.
func (d *Drive) ReadTrackInto(dst []byte, track int) error {
	if len(dst) != int(d.params.TrackSize) {
		return fmt.Errorf("%w: dst is %d bytes, track is %d", ErrBadSize, len(dst), d.params.TrackSize)
	}
	data, err := d.View(track)
	if err != nil {
		return err
	}
	copy(dst, data)
	return nil
}

// Fail marks the drive failed and discards its contents (the paper's
// failure model: a failed disk's data is gone until rebuilt from parity
// or tertiary storage onto a replacement). A restoring drive can fail
// too, losing what its restore had written.
func (d *Drive) Fail() error {
	if d.state == Failed {
		return fmt.Errorf("drive %d: %w", d.id, ErrDoubleFault)
	}
	d.state = Failed
	d.tracks = nil
	return nil
}

// Replace swaps in a blank drive (the physical repair of the paper's
// MTTR), which starts Restoring: it is the rebuild machinery's job to
// restore its content and then call Restored.
func (d *Drive) Replace() error {
	if d.state != Failed {
		return fmt.Errorf("drive %d: %w", d.id, ErrNotFailed)
	}
	d.state = Restoring
	d.tracks = nil
	return nil
}

// Restored ends a restore: the drive's contents are whole again, and it
// is Operational. Restoring an operational drive (a tape reload of a
// healthy one) leaves it so; a failed drive must be replaced first.
func (d *Drive) Restored() error {
	if d.state == Failed {
		return fmt.Errorf("drive %d: %w", d.id, ErrFailed)
	}
	d.state = Operational
	return nil
}

// Counters reports lifetime successful reads and writes.
func (d *Drive) Counters() (reads, writes int64) { return d.reads, d.writes }

// Farm is the full disk subsystem: D drives in clusters of C.
type Farm struct {
	params      diskmodel.Params
	clusterSize int
	drives      []*Drive
	rec         *record
}

// NewFarm builds a farm of d drives in clusters of c (c includes the
// parity disk). d must be a whole number of clusters.
func NewFarm(d, c int, params diskmodel.Params) (*Farm, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if c < 2 {
		return nil, fmt.Errorf("disk: cluster size %d must be >= 2", c)
	}
	if d < c || d%c != 0 {
		return nil, fmt.Errorf("disk: %d drives is not a whole number of clusters of %d", d, c)
	}
	f := &Farm{params: params, clusterSize: c, drives: make([]*Drive, d), rec: new(record)}
	for i := range f.drives {
		f.drives[i] = NewDrive(i, params)
		f.drives[i].rec = f.rec
	}
	return f, nil
}

// Params returns the drive parameters the farm was built with.
func (f *Farm) Params() diskmodel.Params { return f.params }

// Size returns D, the total drive count.
func (f *Farm) Size() int { return len(f.drives) }

// ClusterSize returns C.
func (f *Farm) ClusterSize() int { return f.clusterSize }

// BeginCycle opens a cycle: the record of lookups that found their track
// erased starts empty.
func (f *Farm) BeginCycle() { f.rec.misses = f.rec.misses[:0] }

// Missed reports what this cycle's first lookup of the drive's track that
// found it erased got: ErrFailed or ErrEmptyTrack, or nil if no lookup
// since BeginCycle found it erased.
func (f *Farm) Missed(drive, track int) error {
	for _, m := range f.rec.misses {
		if m.drive == drive && m.track == track {
			return m.err
		}
	}
	return nil
}

// Clusters returns the number of clusters, D/C.
func (f *Farm) Clusters() int { return len(f.drives) / f.clusterSize }

// Drive returns drive i.
func (f *Farm) Drive(i int) (*Drive, error) {
	if i < 0 || i >= len(f.drives) {
		return nil, fmt.Errorf("disk: drive %d out of range [0,%d)", i, len(f.drives))
	}
	return f.drives[i], nil
}

// Cluster returns the C drives of cluster i, in disk order; the layout
// packages decide which of them holds parity.
func (f *Farm) Cluster(i int) ([]*Drive, error) {
	if i < 0 || i >= f.Clusters() {
		return nil, fmt.Errorf("disk: cluster %d out of range [0,%d)", i, f.Clusters())
	}
	start := i * f.clusterSize
	return f.drives[start : start+f.clusterSize], nil
}

// ClusterOf returns the cluster index that drive i belongs to.
func (f *Farm) ClusterOf(driveID int) (int, error) {
	if driveID < 0 || driveID >= len(f.drives) {
		return 0, fmt.Errorf("disk: drive %d out of range [0,%d)", driveID, len(f.drives))
	}
	return driveID / f.clusterSize, nil
}
