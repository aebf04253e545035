package rebuild

import (
	"bytes"
	"fmt"

	"ftmm/internal/disk"
	"ftmm/internal/layout"
	"ftmm/internal/parity"
)

// CheckDrive verifies parity consistency for every parity group that has
// a member (data or parity) on the given drive. Groups with a member
// drive that is not Operational — Failed, or Restoring — are skipped:
// their parity equation cannot be audited until the restore ends. For a
// fully-operational group the check is strict:
//
//   - every member track must be readable, so an ErrEmptyTrack on a
//     restored drive is itself a violation (a rebuild that skipped a
//     write leaves exactly this hole), and
//   - the XOR of the data tracks must equal the parity track byte for
//     byte.
//
// The strictness assumes every placed object was materialized with
// layout.WriteObject (true for scenario runs and the chaos harness);
// placed-but-unwritten objects would report false positives.
func CheckDrive(farm *disk.Farm, lay *layout.Layout, driveID int) error {
	if farm == nil || lay == nil {
		return fmt.Errorf("rebuild: nil farm or layout")
	}
	if _, err := farm.Drive(driveID); err != nil {
		return err
	}
	scratch := make([]byte, farm.Params().TrackSize)
	for _, obj := range lay.AllObjects() {
		for gi := range obj.Groups {
			g := &obj.Groups[gi]
			if !g.Touches(driveID) {
				continue
			}
			if err := checkGroup(farm, obj, g, scratch); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckAll verifies parity consistency for every parity group of every
// placed object, with the same skip rule (groups with a member not
// Operational)
// and strictness as CheckDrive.
func CheckAll(farm *disk.Farm, lay *layout.Layout) error {
	if farm == nil || lay == nil {
		return fmt.Errorf("rebuild: nil farm or layout")
	}
	scratch := make([]byte, farm.Params().TrackSize)
	for _, obj := range lay.AllObjects() {
		for gi := range obj.Groups {
			if err := checkGroup(farm, obj, &obj.Groups[gi], scratch); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkGroup audits one parity group, skipping it when any member drive
// is not Operational. The members are read through views and the data
// folded into scratch (one track, the caller's), so an audit copies
// nothing.
func checkGroup(farm *disk.Farm, obj *layout.Object, g *layout.Group, scratch []byte) error {
	locs := make([]layout.Location, 0, len(g.Data)+1)
	locs = append(locs, g.Data...)
	locs = append(locs, g.Parity)
	for _, loc := range locs {
		drv, err := farm.Drive(loc.Disk)
		if err != nil {
			return err
		}
		if drv.State() != disk.Operational {
			return nil // unauditable until the member's restore ends
		}
	}
	blocks := make([][]byte, 0, len(g.Data))
	for off, loc := range g.Data {
		drv, _ := farm.Drive(loc.Disk)
		blk, err := drv.View(loc.Track)
		if err != nil {
			return fmt.Errorf("rebuild: %s group %d data[%d] on drive %d unreadable in fully-operational group: %w",
				obj.ID, g.Index, off, loc.Disk, err)
		}
		blocks = append(blocks, blk)
	}
	pdrv, _ := farm.Drive(g.Parity.Disk)
	pblk, err := pdrv.View(g.Parity.Track)
	if err != nil {
		return fmt.Errorf("rebuild: %s group %d parity on drive %d unreadable in fully-operational group: %w",
			obj.ID, g.Index, g.Parity.Disk, err)
	}
	if err := parity.EncodeInto(scratch, blocks); err != nil {
		return err
	}
	if !bytes.Equal(scratch, pblk) {
		return fmt.Errorf("rebuild: %s group %d parity on drive %d track %d does not match XOR of its data tracks",
			obj.ID, g.Index, g.Parity.Disk, g.Parity.Track)
	}
	return nil
}
