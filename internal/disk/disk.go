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
// Timing is not simulated here — the cycle scheduler budgets disk time
// with the analytic model from internal/diskmodel — but data movement is:
// every track read returns the stored bytes (or an error from a failed
// drive), which lets the layers above prove that parity reconstruction
// reproduces the original content exactly.
package disk

import (
	"errors"
	"fmt"
	"sync"

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

	mu     sync.Mutex
	state  State
	tracks map[int][]byte
	reads  int64
	writes int64
	// rec is the farm's record of erased lookups; nil outside a farm.
	rec *record
}

// record notes a cycle's lookups that found their track erased, for
// every drive of one farm, in a slice Farm.BeginCycle truncates.
type record struct {
	mu     sync.Mutex
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
		r.mu.Lock()
		r.misses = append(r.misses, miss{drive, track, err})
		r.mu.Unlock()
	}
	return err
}

// NewDrive creates an empty operational drive.
func NewDrive(id int, params diskmodel.Params) *Drive {
	return &Drive{id: id, params: params, tracks: make(map[int][]byte)}
}

// ID returns the drive's farm-wide index.
func (d *Drive) ID() int { return d.id }

// State returns the drive's current state.
func (d *Drive) State() State {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state
}

// Tracks returns the drive's track count.
func (d *Drive) Tracks() int { return d.params.TracksPerDisk() }

// WriteTrack stores one track of data. The data is copied — the one copy
// a byte pays on its way to a platter — into a fresh slice that replaces
// the track's previous one.
func (d *Drive) WriteTrack(track int, data []byte) error {
	if track < 0 || track >= d.Tracks() {
		return fmt.Errorf("%w: %d (drive has %d)", ErrBadTrack, track, d.Tracks())
	}
	if len(data) != int(d.params.TrackSize) {
		return fmt.Errorf("%w: got %d bytes, track is %d", ErrBadSize, len(data), d.params.TrackSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == Failed {
		return fmt.Errorf("drive %d: %w", d.id, ErrFailed)
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	d.tracks[track] = buf
	d.writes++
	return nil
}

// View lends one track's stored bytes, read-only, and counts a read. It
// is the drive's one lookup; ReadTrackInto is a copy of it. Every reader
// that only reads takes the view: the scheme engines' scheduled reads
// (which deliver it to clients as is), rebuild and scrub.
//
// Invariant: a stored track's slice is replaced, never written into.
// WriteTrack installs a fresh slice, Fail and Replace drop the whole
// map, and nothing else touches the bytes. A view therefore keeps
// reading what the track held when it was taken, with no lock held,
// whatever happens to the drive afterwards. The caller must not write
// into it.
//
// A failed drive and an unwritten track return the bare ErrFailed and
// ErrEmptyTrack, so a degraded read allocates nothing; a caller that
// surfaces the error adds the drive's ID. Either is noted in the farm's
// record of the cycle (Farm.Missed).
func (d *Drive) View(track int) ([]byte, error) {
	if track < 0 || track >= d.Tracks() {
		return nil, fmt.Errorf("%w: %d (drive has %d)", ErrBadTrack, track, d.Tracks())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == Failed {
		return nil, d.rec.note(d.id, track, ErrFailed)
	}
	data, ok := d.tracks[track]
	if !ok {
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
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == Failed {
		return fmt.Errorf("drive %d: %w", d.id, ErrDoubleFault)
	}
	d.state = Failed
	d.tracks = make(map[int][]byte)
	return nil
}

// Replace swaps in a blank drive (the physical repair of the paper's
// MTTR), which starts Restoring: it is the rebuild machinery's job to
// restore its content and then call Restored.
func (d *Drive) Replace() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != Failed {
		return fmt.Errorf("drive %d: %w", d.id, ErrNotFailed)
	}
	d.state = Restoring
	d.tracks = make(map[int][]byte)
	return nil
}

// Restored ends a restore: the drive's contents are whole again, and it
// is Operational. Restoring an operational drive (a tape reload of a
// healthy one) leaves it so; a failed drive must be replaced first.
func (d *Drive) Restored() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == Failed {
		return fmt.Errorf("drive %d: %w", d.id, ErrFailed)
	}
	d.state = Operational
	return nil
}

// Counters reports lifetime successful reads and writes.
func (d *Drive) Counters() (reads, writes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads, d.writes
}

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
func (f *Farm) BeginCycle() {
	f.rec.mu.Lock()
	f.rec.misses = f.rec.misses[:0]
	f.rec.mu.Unlock()
}

// Missed reports what this cycle's first lookup of the drive's track that
// found it erased got: ErrFailed or ErrEmptyTrack, or nil if no lookup
// since BeginCycle found it erased.
func (f *Farm) Missed(drive, track int) error {
	f.rec.mu.Lock()
	defer f.rec.mu.Unlock()
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
