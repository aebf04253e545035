// Package layout maps multimedia objects onto the disk farm the way the
// paper's schemes require.
//
// An object's data tracks are grouped into parity groups of C-1 tracks
// plus one parity track. The sequence of parity groups is allocated
// round-robin over the clusters: if the first group of an object lands on
// cluster h, group j lands on cluster (h+j) mod Nc (§2). Two placements
// are supported:
//
//   - DedicatedParity (Streaming RAID, Staggered-group, Non-clustered):
//     each cluster's last drive is its parity disk; the C-1 data tracks of
//     a group go to the cluster's C-1 data drives, one each (Figure 3).
//
//   - IntermixedParity (Improved-bandwidth, §4): every drive stores data;
//     a group's C-1 data tracks go to C-1 of the C drives of cluster i
//     (rotating which drive is skipped so load spreads evenly) and its
//     parity track goes to a drive of cluster i+1, also rotating
//     (Figure 8). A drive therefore belongs to two parity group families:
//     data for its own cluster and parity for the cluster to its left.
//
//   - DeclusteredParity (parity declustering via block designs): the farm
//     is divided into declustering groups of G drives, but parity groups
//     keep size C < G. Each group is mapped onto a C-drive block of a
//     balanced incomplete block design over the G drives (design.go),
//     cycling through the design's blocks and rotating which block member
//     holds parity. Rebuilding a failed drive then reads every survivor
//     of its declustering group at rate (C−1)/(G−1) instead of
//     saturating C−1 cluster mates. Built with NewDeclustered; the
//     layout's "cluster" is the G-drive declustering group.
//
// Observation 1 of the paper — never mix blocks of different objects in
// one parity group — is enforced structurally: groups are built from a
// single object's consecutive tracks, padding the final short group with
// zero tracks.
package layout

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"ftmm/internal/disk"
	"ftmm/internal/parity"
	"ftmm/internal/units"
)

// Placement selects the parity placement family.
type Placement int

const (
	// DedicatedParity reserves the last drive of each cluster for parity.
	DedicatedParity Placement = iota
	// IntermixedParity spreads parity of cluster i over cluster i+1.
	IntermixedParity
	// DeclusteredParity maps size-C parity groups onto block-design
	// subsets of a G-drive declustering group (NewDeclustered).
	DeclusteredParity
)

// String names the placement.
func (p Placement) String() string {
	switch p {
	case DedicatedParity:
		return "dedicated-parity"
	case IntermixedParity:
		return "intermixed-parity"
	case DeclusteredParity:
		return "declustered-parity"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// Location addresses one track on one drive.
type Location struct {
	Disk  int
	Track int
}

// Group is one placed parity group: C-1 data track locations, in object
// order, plus the parity track location.
type Group struct {
	// Index is the group's sequence number within its object.
	Index int
	// Cluster is the cluster holding the data tracks.
	Cluster int
	// Data lists the data track locations; entries beyond the object's
	// last track are zero-padding tracks that still exist on disk.
	Data []Location
	// Parity is the parity track location.
	Parity Location
	// ValidTracks is how many of Data hold real object content (the rest
	// is padding in the object's final group).
	ValidTracks int
}

// Touches reports whether the group stores a track, data or parity, on
// the drive.
func (g *Group) Touches(drive int) bool {
	if g.Parity.Disk == drive {
		return true
	}
	for _, loc := range g.Data {
		if loc.Disk == drive {
			return true
		}
	}
	return false
}

// Object is one placed object.
type Object struct {
	// ID names the object.
	ID string
	// Tracks is the number of real data tracks.
	Tracks int
	// Rate is the object's delivery bandwidth b0.
	Rate units.Rate
	// StartCluster is h, the cluster of group 0.
	StartCluster int
	// Groups are the object's parity groups in order.
	Groups []Group
}

// DataLocation returns where data track i of the object lives.
func (o *Object) DataLocation(i int) (Location, error) {
	if i < 0 || i >= o.Tracks {
		return Location{}, fmt.Errorf("layout: track %d out of range [0,%d)", i, o.Tracks)
	}
	g := i / len(o.Groups[0].Data)
	off := i % len(o.Groups[0].Data)
	return o.Groups[g].Data[off], nil
}

// GroupOf returns the parity group covering data track i and the track's
// offset within the group.
func (o *Object) GroupOf(i int) (*Group, int, error) {
	if i < 0 || i >= o.Tracks {
		return nil, 0, fmt.Errorf("layout: track %d out of range [0,%d)", i, o.Tracks)
	}
	width := len(o.Groups[0].Data)
	return &o.Groups[i/width], i % width, nil
}

// Layout owns track allocation across a farm-shaped topology and the
// placed objects.
type Layout struct {
	d, c          int
	tracksPerDisk int
	placement     Placement
	// groupC is the parity group size: equal to c for the clustered
	// placements, and the block size C < c (= G) under DeclusteredParity.
	groupC int
	// design is the block design mapping groups onto drive subsets;
	// non-nil only under DeclusteredParity.
	design *Design

	objects map[string]*Object
	// free[disk] is a stack of reusable track numbers; cursor[disk] is
	// the next never-used track.
	free   [][]int
	cursor []int
}

// New creates an empty layout for d drives in clusters of c, each with
// tracksPerDisk tracks.
func New(d, c, tracksPerDisk int, placement Placement) (*Layout, error) {
	if c < 2 {
		return nil, fmt.Errorf("layout: cluster size %d must be >= 2", c)
	}
	if d < c || d%c != 0 {
		return nil, fmt.Errorf("layout: %d drives is not a whole number of clusters of %d", d, c)
	}
	if placement == IntermixedParity && d/c < 2 {
		return nil, errors.New("layout: intermixed parity needs at least 2 clusters")
	}
	if placement == DeclusteredParity {
		return nil, errors.New("layout: declustered parity needs a parity group size; use NewDeclustered")
	}
	if tracksPerDisk < 1 {
		return nil, fmt.Errorf("layout: tracksPerDisk %d must be >= 1", tracksPerDisk)
	}
	return &Layout{
		d: d, c: c, tracksPerDisk: tracksPerDisk, placement: placement,
		groupC:  c,
		objects: make(map[string]*Object),
		free:    make([][]int, d),
		cursor:  make([]int, d),
	}, nil
}

// NewDeclustered creates an empty declustered-parity layout for d drives
// in declustering groups of g, placing parity groups of c tracks onto
// block-design subsets of each group. Invalid (g, c) geometries surface
// the design layer's *DesignError.
func NewDeclustered(d, g, c, tracksPerDisk int) (*Layout, error) {
	design, err := NewDesign(g, c)
	if err != nil {
		return nil, err
	}
	if d < g || d%g != 0 {
		return nil, fmt.Errorf("layout: %d drives is not a whole number of declustering groups of %d", d, g)
	}
	if tracksPerDisk < 1 {
		return nil, fmt.Errorf("layout: tracksPerDisk %d must be >= 1", tracksPerDisk)
	}
	return &Layout{
		d: d, c: g, tracksPerDisk: tracksPerDisk, placement: DeclusteredParity,
		groupC: c, design: design,
		objects: make(map[string]*Object),
		free:    make([][]int, d),
		cursor:  make([]int, d),
	}, nil
}

// ForFarm creates a layout matching an existing farm.
func ForFarm(f *disk.Farm, placement Placement) (*Layout, error) {
	return New(f.Size(), f.ClusterSize(), f.Params().TracksPerDisk(), placement)
}

// ForFarmDeclustered creates a declustered layout matching an existing
// farm whose clusters are the G-drive declustering groups, with parity
// groups of c tracks.
func ForFarmDeclustered(f *disk.Farm, c int) (*Layout, error) {
	return NewDeclustered(f.Size(), f.ClusterSize(), c, f.Params().TracksPerDisk())
}

// Clusters returns the cluster count.
func (l *Layout) Clusters() int { return l.d / l.c }

// ClusterSize returns C.
func (l *Layout) ClusterSize() int { return l.c }

// Placement returns the parity placement family.
func (l *Layout) Placement() Placement { return l.placement }

// GroupWidth returns the data tracks per parity group: C-1, where C is
// the parity group size (smaller than the declustering group under
// DeclusteredParity).
func (l *Layout) GroupWidth() int { return l.groupC - 1 }

// DeclusterGroup returns G, the drives per declustering group, or 0 for
// the clustered placements.
func (l *Layout) DeclusterGroup() int {
	if l.placement != DeclusteredParity {
		return 0
	}
	return l.c
}

// Design returns the block design behind a declustered layout (nil for
// the clustered placements).
func (l *Layout) Design() *Design { return l.design }

// Object returns a placed object by ID.
func (l *Layout) Object(id string) (*Object, bool) {
	o, ok := l.objects[id]
	return o, ok
}

// Objects returns the number of placed objects.
func (l *Layout) Objects() int { return len(l.objects) }

// FreeTracks reports how many unallocated tracks remain farm-wide.
func (l *Layout) FreeTracks() int {
	n := 0
	for d := 0; d < l.d; d++ {
		n += l.tracksPerDisk - l.cursor[d] + len(l.free[d])
	}
	return n
}

// allocTrack takes one track on the given drive.
func (l *Layout) allocTrack(d int) (int, error) {
	if n := len(l.free[d]); n > 0 {
		t := l.free[d][n-1]
		l.free[d] = l.free[d][:n-1]
		return t, nil
	}
	if l.cursor[d] >= l.tracksPerDisk {
		return 0, fmt.Errorf("layout: drive %d is full", d)
	}
	t := l.cursor[d]
	l.cursor[d]++
	return t, nil
}

// groupDrives returns, for group g on cluster cl, the drives holding its
// data tracks (in order) and the drive holding its parity track.
func (l *Layout) groupDrives(cl, g int) (data []int, par int) {
	base := cl * l.c
	switch l.placement {
	case DedicatedParity:
		data = make([]int, l.c-1)
		for i := range data {
			data[i] = base + i
		}
		return data, base + l.c - 1
	case IntermixedParity:
		// Skip one drive of the cluster, rotating per group, so every
		// drive carries data; parity goes to the next cluster, also
		// rotating over its drives.
		skip := g % l.c
		data = make([]int, 0, l.c-1)
		for i := 0; i < l.c; i++ {
			if i != skip {
				data = append(data, base+i)
			}
		}
		nextBase := ((cl + 1) % l.Clusters()) * l.c
		return data, nextBase + g%l.c
	case DeclusteredParity:
		// Map the group onto a block of the design, cycling through the
		// blocks so consecutive groups hit different drive subsets, and
		// rotate which block member holds parity so parity storage
		// spreads over the whole declustering group.
		b := len(l.design.Blocks)
		block := l.design.Blocks[g%b]
		pi := g % len(block)
		data = make([]int, 0, len(block)-1)
		for i, m := range block {
			if i == pi {
				continue
			}
			data = append(data, base+m)
		}
		return data, base + block[pi]
	default:
		return nil, -1
	}
}

// ParityHomeCluster returns the cluster whose drives hold the parity for
// data stored on cluster cl: cl itself under dedicated parity, cl+1 under
// intermixed parity.
func (l *Layout) ParityHomeCluster(cl int) int {
	if l.placement == IntermixedParity {
		return (cl + 1) % l.Clusters()
	}
	return cl
}

// AddObject places an object of dataTracks tracks starting at cluster
// startCluster. The final group is padded to full width. On allocation
// failure the layout is left unchanged.
func (l *Layout) AddObject(id string, dataTracks, startCluster int, rate units.Rate) (*Object, error) {
	if _, dup := l.objects[id]; dup {
		return nil, fmt.Errorf("layout: object %q already placed", id)
	}
	if dataTracks < 1 {
		return nil, fmt.Errorf("layout: object %q has %d tracks; need >= 1", id, dataTracks)
	}
	if startCluster < 0 || startCluster >= l.Clusters() {
		return nil, fmt.Errorf("layout: start cluster %d out of range [0,%d)", startCluster, l.Clusters())
	}
	width := l.GroupWidth()
	nGroups := (dataTracks + width - 1) / width

	// Snapshot allocation state for rollback.
	savedCursor := append([]int(nil), l.cursor...)
	savedFree := make([][]int, l.d)
	for i := range l.free {
		savedFree[i] = append([]int(nil), l.free[i]...)
	}
	rollback := func() {
		l.cursor = savedCursor
		l.free = savedFree
	}

	obj := &Object{ID: id, Tracks: dataTracks, Rate: rate, StartCluster: startCluster,
		Groups: make([]Group, 0, nGroups)}
	for g := 0; g < nGroups; g++ {
		cl := (startCluster + g) % l.Clusters()
		dataDrives, parDrive := l.groupDrives(cl, g)
		grp := Group{Index: g, Cluster: cl, Data: make([]Location, 0, width)}
		for _, d := range dataDrives {
			t, err := l.allocTrack(d)
			if err != nil {
				rollback()
				return nil, fmt.Errorf("layout: placing %q group %d: %w", id, g, err)
			}
			grp.Data = append(grp.Data, Location{Disk: d, Track: t})
		}
		pt, err := l.allocTrack(parDrive)
		if err != nil {
			rollback()
			return nil, fmt.Errorf("layout: placing %q group %d parity: %w", id, g, err)
		}
		grp.Parity = Location{Disk: parDrive, Track: pt}
		grp.ValidTracks = width
		if g == nGroups-1 {
			if rem := dataTracks % width; rem != 0 {
				grp.ValidTracks = rem
			}
		}
		obj.Groups = append(obj.Groups, grp)
	}
	l.objects[id] = obj
	return obj, nil
}

// RemoveObject frees an object's tracks (the purge of §1, making space
// for a newly requested object).
func (l *Layout) RemoveObject(id string) error {
	obj, ok := l.objects[id]
	if !ok {
		return fmt.Errorf("layout: object %q not placed", id)
	}
	for _, g := range obj.Groups {
		for _, loc := range g.Data {
			l.free[loc.Disk] = append(l.free[loc.Disk], loc.Track)
		}
		l.free[g.Parity.Disk] = append(l.free[g.Parity.Disk], g.Parity.Track)
	}
	delete(l.objects, id)
	return nil
}

// AllDrives, as a writer's drive filter, selects every drive.
const AllDrives = -1

// WriteObject materializes an object's content onto the farm: the byte
// stream is cut into tracks, the final group zero-padded, and every
// group's parity computed and written. content longer than the object's
// track count is rejected. content is only read: whole tracks are handed
// to the drives as slices of it, so Drive.WriteTrack's is the only copy.
func WriteObject(f *disk.Farm, obj *Object, content []byte) error {
	_, err := writeObject(f, obj, content, AllDrives, false)
	return err
}

// WriteObjectTolerant is WriteObject for recovery scenarios: tracks whose
// home drive is failed are skipped (counted in skipped) instead of
// aborting the whole write, so a multi-drive catastrophe can be recovered
// drive by drive. Parity tracks are likewise skipped when their drive is
// down. With only set to a drive rather than AllDrives, just the tracks
// whose home is that drive are written — a tape reload of one drive
// leaves every other platter alone.
func WriteObjectTolerant(f *disk.Farm, obj *Object, content []byte, only int) (skipped int, err error) {
	return writeObject(f, obj, content, only, true)
}

// writeObject is the one writer. It builds two things: a parity scratch
// track and, when a track of it is actually written, the zero-padded tail
// (from the first track content does not fill to the end of the last
// group).
func writeObject(f *disk.Farm, obj *Object, content []byte, only int, tolerant bool) (skipped int, err error) {
	trackSize := int(f.Params().TrackSize)
	if len(content) > obj.Tracks*trackSize {
		return 0, fmt.Errorf("layout: content %d bytes exceeds object's %d tracks", len(content), obj.Tracks)
	}
	width := len(obj.Groups[0].Data)
	whole := len(content) / trackSize // tracks that are slices of content
	par := make([]byte, trackSize)
	var tail []byte
	trackData := func(i int) []byte {
		if i < whole {
			return content[i*trackSize : (i+1)*trackSize]
		}
		if tail == nil {
			tail = make([]byte, (len(obj.Groups)*width-whole)*trackSize)
			copy(tail, content[whole*trackSize:])
		}
		return tail[(i-whole)*trackSize:][:trackSize]
	}
	// home returns the drive a track is to be written to, or nil when the
	// track is left alone: filtered out, or (tolerant) its drive is down.
	home := func(loc Location) (*disk.Drive, error) {
		if only != AllDrives && loc.Disk != only {
			return nil, nil
		}
		drv, err := f.Drive(loc.Disk)
		if err != nil {
			return nil, err
		}
		if tolerant && drv.State() != disk.Operational {
			skipped++
			return nil, nil
		}
		return drv, nil
	}
	blocks := make([][]byte, width)
	for gi := range obj.Groups {
		g := &obj.Groups[gi]
		for off, loc := range g.Data {
			drv, err := home(loc)
			if err != nil {
				return skipped, err
			}
			if drv == nil {
				continue
			}
			if err := drv.WriteTrack(loc.Track, trackData(g.Index*width+off)); err != nil {
				return skipped, fmt.Errorf("layout: writing %q group %d track %d: %w", obj.ID, g.Index, off, err)
			}
		}
		drv, err := home(g.Parity)
		if err != nil {
			return skipped, err
		}
		if drv == nil {
			continue
		}
		for off := range blocks {
			blocks[off] = trackData(g.Index*width + off)
		}
		if err := parity.EncodeInto(par, blocks); err != nil {
			return skipped, err
		}
		if err := drv.WriteTrack(g.Parity.Track, par); err != nil {
			return skipped, fmt.Errorf("layout: writing %q group %d parity: %w", obj.ID, g.Index, err)
		}
	}
	return skipped, nil
}

// ReadDataTrack reads data track i of the object directly (no
// reconstruction); it fails if the holding drive has failed.
func ReadDataTrack(f *disk.Farm, obj *Object, i int) ([]byte, error) {
	loc, err := obj.DataLocation(i)
	if err != nil {
		return nil, err
	}
	blk, err := viewTrack(f, loc)
	if err != nil {
		return nil, fmt.Errorf("layout: %q track %d on drive %d: %w", obj.ID, i, loc.Disk, err)
	}
	return bytes.Clone(blk), nil
}

// AllObjects returns every placed object, sorted by ID. The order is
// deterministic on purpose: consumers like the incremental rebuilder
// derive track-restore order from it, and the chaos harness requires
// bit-identical runs for a given seed.
func (l *Layout) AllObjects() []*Object {
	out := make([]*Object, 0, len(l.objects))
	for _, o := range l.objects {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ReconstructDataTrack rebuilds data track i of the object from the rest
// of its parity group, without touching the drive that holds it. This is
// the on-the-fly degraded-mode read of Observation 2. The survivors are
// read through views; the result is the one track allocated.
func ReconstructDataTrack(f *disk.Farm, obj *Object, i int) ([]byte, error) {
	g, off, err := obj.GroupOf(i)
	if err != nil {
		return nil, err
	}
	survivors := make([][]byte, 0, len(g.Data))
	for j, loc := range g.Data {
		if j == off {
			continue
		}
		blk, err := viewTrack(f, loc)
		if err != nil {
			return nil, fmt.Errorf("layout: reconstructing %q track %d needs drive %d: %w", obj.ID, i, loc.Disk, err)
		}
		survivors = append(survivors, blk)
	}
	p, err := viewTrack(f, g.Parity)
	if err != nil {
		return nil, fmt.Errorf("layout: reconstructing %q track %d needs parity drive %d: %w", obj.ID, i, g.Parity.Disk, err)
	}
	rec := make([]byte, len(p))
	if err := parity.ReconstructInto(rec, append(survivors, p)); err != nil {
		return nil, err
	}
	return rec, nil
}

// viewTrack lends the stored track at loc, read-only (disk.Drive.View).
func viewTrack(f *disk.Farm, loc Location) ([]byte, error) {
	drv, err := f.Drive(loc.Disk)
	if err != nil {
		return nil, err
	}
	return drv.View(loc.Track)
}
