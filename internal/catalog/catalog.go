// Package catalog manages which objects are disk-resident: the paper's
// §1 storage hierarchy, where "the entire database permanently resides on
// tertiary storage, from which objects are retrieved and placed on disk
// drives for delivery on demand", and "if the secondary storage capacity
// is exhausted ... one or more disk-resident objects must be purged".
//
// Purging is least-recently-used among objects with no active streams
// (an object being delivered cannot be evicted). Staging an object
// reports the simulated tertiary retrieval time so experiments can charge
// for it.
package catalog

import (
	"errors"
	"fmt"
	"time"

	"ftmm/internal/disk"
	"ftmm/internal/layout"
	"ftmm/internal/tertiary"
	"ftmm/internal/units"
)

// ErrNoSpace is returned when an object cannot fit even after evicting
// everything evictable.
var ErrNoSpace = errors.New("catalog: insufficient disk space")

// ErrNotResident is returned for operations on objects not on disk.
var ErrNotResident = errors.New("catalog: object not resident")

type entry struct {
	obj      *layout.Object
	lastUsed int64
	pins     int
}

// Catalog tracks disk residency over one farm and layout.
type Catalog struct {
	lib  *tertiary.Library
	farm *disk.Farm
	lay  *layout.Layout

	resident    map[string]*entry
	clock       int64
	nextCluster int

	evictions int
	stagings  int
}

// New creates a catalog over the given library and farm, placing
// objects with the given layout of the farm's drives.
func New(lib *tertiary.Library, farm *disk.Farm, lay *layout.Layout) (*Catalog, error) {
	if lib == nil || farm == nil || lay == nil {
		return nil, errors.New("catalog: nil library, farm or layout")
	}
	return &Catalog{lib: lib, farm: farm, lay: lay, resident: make(map[string]*entry)}, nil
}

// Layout exposes the underlying layout (read-mostly, for schedulers).
func (c *Catalog) Layout() *layout.Layout { return c.lay }

// Resident reports whether the object is currently on disk.
func (c *Catalog) Resident(id string) bool {
	_, ok := c.resident[id]
	return ok
}

// Object returns the placed object if resident.
func (c *Catalog) Object(id string) (*layout.Object, error) {
	e, ok := c.resident[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotResident, id)
	}
	return e.obj, nil
}

// Stats reports lifetime staging and eviction counts.
func (c *Catalog) Stats() (stagings, evictions int) {
	return c.stagings, c.evictions
}

// tracksFor returns the data-track count an object of the given size
// occupies.
func (c *Catalog) tracksFor(size int) int {
	ts := int(c.farm.Params().TrackSize)
	return (size + ts - 1) / ts
}

// Ensure makes the object disk-resident, staging it from tertiary
// storage (and evicting LRU unpinned objects as needed). It returns the
// placed object and the simulated staging time (zero when already
// resident).
func (c *Catalog) Ensure(id string, rate units.Rate) (*layout.Object, time.Duration, error) {
	c.clock++
	if e, ok := c.resident[id]; ok {
		e.lastUsed = c.clock
		return e.obj, 0, nil
	}
	content, cost, err := c.lib.Fetch(id)
	if err != nil {
		return nil, 0, err
	}
	tracks := c.tracksFor(len(content))
	obj, err := c.place(id, tracks, rate)
	if err != nil {
		return nil, 0, err
	}
	if err := layout.WriteObject(c.farm, obj, content); err != nil {
		// Leave the layout consistent: undo the placement.
		_ = c.lay.RemoveObject(id)
		return nil, 0, err
	}
	c.resident[id] = &entry{obj: obj, lastUsed: c.clock}
	c.stagings++
	return obj, cost, nil
}

// place allocates layout space, evicting LRU unpinned objects until the
// object fits.
func (c *Catalog) place(id string, tracks int, rate units.Rate) (*layout.Object, error) {
	for {
		obj, err := c.lay.AddObject(id, tracks, c.nextCluster, rate)
		if err == nil {
			c.nextCluster = (c.nextCluster + 1) % c.lay.Clusters()
			return obj, nil
		}
		victim := c.lruVictim()
		if victim == "" {
			return nil, fmt.Errorf("%w: %q needs %d tracks and nothing is evictable", ErrNoSpace, id, tracks)
		}
		if err := c.evict(victim); err != nil {
			return nil, err
		}
	}
}

// lruVictim returns the least recently used unpinned resident object, or
// "" if none.
func (c *Catalog) lruVictim() string {
	var victim string
	var oldest int64
	for id, e := range c.resident {
		if e.pins > 0 {
			continue
		}
		if victim == "" || e.lastUsed < oldest {
			victim, oldest = id, e.lastUsed
		}
	}
	return victim
}

// evict removes one resident object and frees its tracks.
func (c *Catalog) evict(id string) error {
	e, ok := c.resident[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotResident, id)
	}
	if e.pins > 0 {
		return fmt.Errorf("catalog: %q has %d active streams", id, e.pins)
	}
	if err := c.lay.RemoveObject(id); err != nil {
		return err
	}
	delete(c.resident, id)
	c.evictions++
	return nil
}

// Evict explicitly purges an unpinned object from disk.
func (c *Catalog) Evict(id string) error { return c.evict(id) }

// Pin marks the object as having one more active stream; pinned objects
// cannot be evicted.
func (c *Catalog) Pin(id string) error {
	e, ok := c.resident[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotResident, id)
	}
	e.pins++
	c.clock++
	e.lastUsed = c.clock
	return nil
}

// Unpin releases one active-stream reference.
func (c *Catalog) Unpin(id string) error {
	e, ok := c.resident[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotResident, id)
	}
	if e.pins == 0 {
		return fmt.Errorf("catalog: %q is not pinned", id)
	}
	e.pins--
	return nil
}

// Pins returns the active-stream count for a resident object.
func (c *Catalog) Pins(id string) (int, error) {
	e, ok := c.resident[id]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotResident, id)
	}
	return e.pins, nil
}

// ResidentIDs returns the number of resident objects.
func (c *Catalog) ResidentIDs() int { return len(c.resident) }
