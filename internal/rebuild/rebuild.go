// Package rebuild implements the paper's third operating mode — rebuild
// mode, which §1 defines ("the disks are still down, but the process of
// rebuilding the missing information on spare disks is in progress") and
// the paper then defers "due to lack of space". It restores a replaced
// drive's contents *online*, a bounded number of tracks per scheduling
// cycle, using only spare disk bandwidth, so active streams keep their
// guarantees while redundancy is restored.
//
// Restoring one data track reads the C-2 surviving data tracks plus the
// parity track of its group (C-1 reads) and XORs them; restoring a parity
// track reads the group's C-1 data tracks and re-encodes. The rebuild
// duration in cycles is therefore ceil(tracks·(C-1)/readBudget), which
// the paper's MTTR parameter summarizes — this package lets experiments
// measure it instead of assuming it.
//
// A cycle's restores run in two halves: Begin queues the folds and hands
// them to the fold workers (parity.Batch.Start), and Finish waits for
// them and writes the restored tracks. Step is the two at once; a server
// runs them a cycle apart, so the folds run behind its cycle.
package rebuild

import (
	"errors"
	"fmt"

	"ftmm/internal/disk"
	"ftmm/internal/layout"
	"ftmm/internal/parity"
)

// item is one track to restore.
type item struct {
	obj *layout.Object
	// group index within the object.
	group int
	// dataOffset is the in-group offset of the lost data track, or -1
	// when the lost track is the group's parity.
	dataOffset int
}

// Rebuilder restores one replaced drive incrementally.
type Rebuilder struct {
	farm   *disk.Farm
	lay    *layout.Layout
	drive  int
	target *disk.Drive

	queue    []item
	done     int
	restored int
	reads    int
	// readsBy[d] counts the track reads served by drive d so far — the
	// per-drive rebuild-read histogram. Under the clustered placements
	// the load lands on exactly C-1 drives; under declustered parity it
	// spreads uniformly over the failed drive's G-1 group mates.
	readsBy []int
	// used[d] counts drive d's reads in one StepPerDrive call.
	used []int

	// blocks holds the C-1 views a restore folds, reused from track to
	// track.
	blocks [][]byte
	// folds queues the restores in flight, and landing holds their
	// destination tracks until Finish writes them.
	folds   parity.Batch
	landing []landing
}

// landing is one restored track in flight: its fold's destination and
// where on the drive it goes.
type landing struct {
	track int
	data  []byte
}

// New plans the rebuild of the given drive, which must already be
// replaced (Restoring, not Failed). The plan covers every placed
// object's tracks that lived on the drive — data and parity.
func New(farm *disk.Farm, lay *layout.Layout, driveID int) (*Rebuilder, error) {
	if farm == nil || lay == nil {
		return nil, errors.New("rebuild: nil farm or layout")
	}
	drv, err := farm.Drive(driveID)
	if err != nil {
		return nil, err
	}
	if drv.State() == disk.Failed {
		return nil, fmt.Errorf("rebuild: drive %d must be replaced before rebuild (state %v)", driveID, drv.State())
	}
	r := &Rebuilder{farm: farm, lay: lay, drive: driveID, target: drv,
		readsBy: make([]int, farm.Size()), used: make([]int, farm.Size()),
		blocks: make([][]byte, 0, lay.GroupWidth())}
	for _, obj := range lay.AllObjects() {
		for gi := range obj.Groups {
			g := &obj.Groups[gi]
			for off, loc := range g.Data {
				if loc.Disk == driveID {
					r.queue = append(r.queue, item{obj: obj, group: gi, dataOffset: off})
				}
			}
			if g.Parity.Disk == driveID {
				r.queue = append(r.queue, item{obj: obj, group: gi, dataOffset: -1})
			}
		}
	}
	return r, nil
}

// Remaining returns the tracks still to restore, those in flight
// included: a track is restored once Finish has written it.
func (r *Rebuilder) Remaining() int { return len(r.queue) - r.done + len(r.landing) }

// Restored returns the tracks restored so far.
func (r *Rebuilder) Restored() int { return r.restored }

// Reads returns the surviving-drive track reads consumed so far.
func (r *Rebuilder) Reads() int { return r.reads }

// ReadsByDrive returns the per-drive rebuild-read histogram: entry d is
// how many track reads drive d has served for this rebuild so far.
func (r *Rebuilder) ReadsByDrive() []int {
	return append([]int(nil), r.readsBy...)
}

// Done reports completion.
func (r *Rebuilder) Done() bool { return r.Remaining() == 0 }

// ReadsPerTrack returns the surviving reads needed per restored track:
// C-1, the restored track's parity-group mates. Note C is the parity
// group size, not the declustering group size — under declustered
// parity the farm's "cluster" is the G-drive declustering group, but a
// track restore still only reads its C-1 block mates.
func (r *Rebuilder) ReadsPerTrack() int { return r.lay.GroupWidth() }

// CyclesNeeded estimates the remaining rebuild duration given a spare
// read budget per cycle.
func (r *Rebuilder) CyclesNeeded(readBudget int) int {
	if readBudget < r.ReadsPerTrack() {
		return -1 // cannot make progress
	}
	perCycle := readBudget / r.ReadsPerTrack()
	return (r.Remaining() + perCycle - 1) / perCycle
}

// Step restores as many tracks as the given read budget allows this
// cycle and returns the number restored: Begin, then Finish. A budget
// below C-1 restores nothing (one track needs a whole group's worth of
// reads within the cycle, per Observation 2's all-at-once requirement).
func (r *Rebuilder) Step(readBudget int) (int, error) {
	before := r.restored
	_, err := r.Begin(readBudget)
	if ferr := r.Finish(); err == nil {
		err = ferr
	}
	return r.restored - before, err
}

// Begin starts the restores Step would make under the read budget and
// returns how many it queued: it reads their survivors, queues each fold
// into a new track and hands the folds to the fold workers. No track is
// on the drive until Finish. A restore that cannot be made (a survivor
// or the drive itself has failed) ends Begin with its error, as Step
// would end, and what was queued before it still lands at Finish.
// Restores still in flight are finished first.
func (r *Rebuilder) Begin(readBudget int) (int, error) {
	if err := r.Finish(); err != nil {
		return 0, err
	}
	queued := 0
	for r.done < len(r.queue) && readBudget >= r.ReadsPerTrack() {
		if err := r.restore(r.queue[r.done]); err != nil {
			return queued, err
		}
		readBudget -= r.ReadsPerTrack()
		r.done++
		queued++
	}
	r.folds.Start()
	return queued, nil
}

// Finish waits for the folds in flight and writes their tracks to the
// drive, which keeps them. With nothing in flight it does nothing. A
// write that fails (the drive failed after Begin) drops the tracks left.
func (r *Rebuilder) Finish() error {
	r.folds.Run()
	var err error
	for _, l := range r.landing {
		if err = r.target.WriteTrack(l.track, l.data); err != nil {
			break
		}
		r.restored++
	}
	clear(r.landing)
	r.landing = r.landing[:0]
	return err
}

// sourceDrives appends the drives a restore of it would read from: the
// group's other data drives plus parity for a data track, or every data
// drive for a parity track.
func (r *Rebuilder) sourceDrives(dst []int, it item) []int {
	g := &it.obj.Groups[it.group]
	for j, loc := range g.Data {
		if j != it.dataOffset {
			dst = append(dst, loc.Disk)
		}
	}
	if it.dataOffset >= 0 {
		dst = append(dst, g.Parity.Disk)
	}
	return dst
}

// StepPerDrive restores tracks for one cycle under a per-drive spare
// read budget: every surviving drive serves at most budget track reads
// this cycle. Unlike Step's aggregate budget, this models the real
// rebuild bottleneck — the busiest survivor — and is what separates the
// clustered schemes (whole rebuild through C-1 drives) from declustered
// parity (load spread over G-1 drives, window shrunk by (C-1)/(G-1)).
// Tracks whose sources are saturated are skipped this cycle and retried
// the next, so declustered rebuilds fill every drive's budget. Its
// restores are Begin's, and it finishes them before it returns.
func (r *Rebuilder) StepPerDrive(budget int) (int, error) {
	if budget < 1 {
		return 0, nil
	}
	if err := r.Finish(); err != nil {
		return 0, err
	}
	before := r.restored
	clear(r.used)
	var srcs []int
	var err error
	pending := r.queue[r.done:]
	kept := 0
	for i := 0; i < len(pending); i++ {
		it := pending[i]
		srcs = r.sourceDrives(srcs[:0], it)
		feasible := true
		for _, d := range srcs {
			if r.used[d]+1 > budget {
				feasible = false
				break
			}
		}
		if !feasible {
			pending[kept] = it
			kept++
			continue
		}
		if err = r.restore(it); err != nil {
			// Preserve the unprocessed tail before reporting.
			kept += copy(pending[kept:], pending[i+1:])
			break
		}
		for _, d := range srcs {
			r.used[d]++
		}
	}
	r.queue = r.queue[:r.done+kept]
	if ferr := r.Finish(); err == nil {
		err = ferr
	}
	return r.restored - before, err
}

// RunPerDrive drives StepPerDrive until done and returns the rebuild
// window in cycles.
func (r *Rebuilder) RunPerDrive(budget, maxCycles int) (int, error) {
	for cycles := 0; cycles < maxCycles; cycles++ {
		if r.Done() {
			return cycles, nil
		}
		n, err := r.StepPerDrive(budget)
		if err != nil {
			return cycles, err
		}
		if n == 0 {
			return cycles, fmt.Errorf("rebuild: no progress with per-drive budget %d", budget)
		}
	}
	if !r.Done() {
		return maxCycles, fmt.Errorf("rebuild: incomplete after %d cycles (%d tracks left)", maxCycles, r.Remaining())
	}
	return maxCycles, nil
}

// Run drives Step until done, returning the cycles consumed.
func (r *Rebuilder) Run(readBudget, maxCycles int) (int, error) {
	for cycles := 0; cycles < maxCycles; cycles++ {
		if r.Done() {
			return cycles, nil
		}
		n, err := r.Step(readBudget)
		if err != nil {
			return cycles, err
		}
		if n == 0 {
			return cycles, fmt.Errorf("rebuild: no progress with budget %d (need >= %d)", readBudget, r.ReadsPerTrack())
		}
	}
	if !r.Done() {
		return maxCycles, fmt.Errorf("rebuild: incomplete after %d cycles (%d tracks left)", maxCycles, r.Remaining())
	}
	return maxCycles, nil
}

// restore queues the rebuild of one track onto the replacement drive:
// the XOR of the group's other members — for a data track the surviving
// data plus parity, for a parity track every data track — read through
// views and folded straight into a new track, which Finish hands to the
// drive. It fails as the write would if the drive cannot take it now.
func (r *Rebuilder) restore(it item) error {
	g := &it.obj.Groups[it.group]
	dst := g.Parity
	blocks := r.blocks[:0]
	for j, loc := range g.Data {
		if j == it.dataOffset {
			dst = loc
			continue
		}
		blk, err := r.viewTrack(loc)
		if err != nil {
			return fmt.Errorf("rebuild: %s group %d: %w", it.obj.ID, it.group, err)
		}
		blocks = append(blocks, blk)
	}
	if it.dataOffset >= 0 {
		pblk, err := r.viewTrack(g.Parity)
		if err != nil {
			return fmt.Errorf("rebuild: %s group %d parity: %w", it.obj.ID, it.group, err)
		}
		blocks = append(blocks, pblk)
	}
	track := make([]byte, r.farm.Params().TrackSize)
	if err := r.target.Writable(dst.Track, len(track)); err != nil {
		return err
	}
	if err := r.folds.Add(track, blocks...); err != nil {
		return err
	}
	r.landing = append(r.landing, landing{dst.Track, track})
	return nil
}

// viewTrack lends one surviving track, charging the read to the serving
// drive's histogram entry.
func (r *Rebuilder) viewTrack(loc layout.Location) ([]byte, error) {
	drv, err := r.farm.Drive(loc.Disk)
	if err != nil {
		return nil, err
	}
	blk, err := drv.View(loc.Track)
	if err != nil {
		return nil, fmt.Errorf("drive %d track %d: %w", loc.Disk, loc.Track, err)
	}
	r.reads++
	r.readsBy[loc.Disk]++
	return blk, nil
}
