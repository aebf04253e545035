// Package tertiary simulates the tape library at the bottom of the
// paper's storage hierarchy (Figure 1): the entire database resides here
// permanently, objects are staged to disk on demand, and a catastrophic
// disk failure forces portions of many objects to be re-read — "many
// tapes may need to be referenced and that is very time consuming".
//
// Only the properties the paper's design depends on are modelled: long
// mount/position latency, low per-drive bandwidth (the footnote prices a
// ~4 Mbit/s tape drive against a ~32 Mbit/s disk), and the
// one-object-per-fetch serialization of a tape drive. Fetches lend a
// read-only view of the archived bytes plus the simulated wall-clock time
// the retrieval costs, so rebuild experiments can account for time
// without sleeping.
//
// The library owns a title's bytes: Store copies them in once, and from
// then on an archived slice is replaced (a re-Store) but never written
// into, which is what makes a lent view safe to read without the lock.
package tertiary

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ftmm/internal/units"
)

// ErrNotFound is returned for objects the library does not hold.
var ErrNotFound = errors.New("tertiary: object not found")

// Config sets the library's performance characteristics.
type Config struct {
	// MountLatency is the time to fetch, mount and position one tape.
	MountLatency time.Duration
	// DriveRate is the sustained transfer bandwidth of one tape drive.
	DriveRate units.Rate
}

// DefaultConfig matches the paper's footnote: a 4 Mbit/s tape drive, with
// a representative 60 s robot-mount-and-position latency.
func DefaultConfig() Config {
	return Config{
		MountLatency: 60 * time.Second,
		DriveRate:    units.FromMegabitsPerSecond(4),
	}
}

type storedObject struct {
	tape    int
	content []byte
}

// Library is the simulated tape library.
type Library struct {
	cfg Config

	mu      sync.Mutex
	objects map[string]*storedObject
	// busy accumulates the total simulated drive-seconds consumed, a
	// measure of rebuild cost.
	busy time.Duration
}

// NewLibrary creates an empty library.
func NewLibrary(cfg Config) (*Library, error) {
	if cfg.MountLatency < 0 {
		return nil, errors.New("tertiary: negative mount latency")
	}
	if cfg.DriveRate <= 0 {
		return nil, errors.New("tertiary: drive rate must be positive")
	}
	return &Library{cfg: cfg, objects: make(map[string]*storedObject)}, nil
}

// Store archives an object's full content on the given tape. Content is
// copied. Re-storing an ID overwrites it.
func (l *Library) Store(id string, tape int, content []byte) error {
	if id == "" {
		return errors.New("tertiary: empty object id")
	}
	if tape < 0 {
		return fmt.Errorf("tertiary: negative tape number %d", tape)
	}
	if len(content) == 0 {
		return fmt.Errorf("tertiary: object %q has no content", id)
	}
	buf := make([]byte, len(content))
	copy(buf, content)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.objects[id] = &storedObject{tape: tape, content: buf}
	return nil
}

// Has reports whether the library holds the object.
func (l *Library) Has(id string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.objects[id]
	return ok
}

// Size returns the object's archived length.
func (l *Library) Size(id string) (units.ByteSize, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	o, ok := l.objects[id]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return units.ByteSize(len(o.content)), nil
}

// Objects returns the number of archived objects.
func (l *Library) Objects() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.objects)
}

// IDs returns the archived object IDs, sorted — the server's title
// catalog as clients (ftmmserve /titlesz, ftmmload) see it.
func (l *Library) IDs() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	ids := make([]string, 0, len(l.objects))
	for id := range l.objects {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Fetch retrieves the object's full content and the simulated time the
// retrieval took (one mount plus the transfer). The content is a view,
// as for FetchRange.
func (l *Library) Fetch(id string) ([]byte, time.Duration, error) {
	return l.FetchRange(id, 0, -1)
}

// FetchRange retrieves length bytes starting at offset (length < 0 means
// "to the end") and the simulated retrieval time. The bytes returned are
// a read-only view of the archive, not a copy: the caller must not write
// into them, and its capacity is clipped so an append cannot. The view
// stays valid, and unchanged, after the object is re-stored. (Nothing in
// the repo issues a partial fetch today: a tape reload re-reads whole
// objects, as the paper has it.)
func (l *Library) FetchRange(id string, offset, length int) ([]byte, time.Duration, error) {
	if offset < 0 {
		return nil, 0, fmt.Errorf("tertiary: negative offset %d", offset)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	o, ok := l.objects[id]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if offset > len(o.content) {
		return nil, 0, fmt.Errorf("tertiary: offset %d beyond object %q (%d bytes)", offset, id, len(o.content))
	}
	end := len(o.content)
	if length >= 0 {
		if offset+length > end {
			return nil, 0, fmt.Errorf("tertiary: range [%d,%d) beyond object %q (%d bytes)", offset, offset+length, id, end)
		}
		end = offset + length
	}
	out := o.content[offset:end:end]
	cost := l.cfg.MountLatency + l.cfg.DriveRate.TimeFor(units.ByteSize(len(out)))
	l.busy += cost
	return out, cost, nil
}

// BusyTime returns the cumulative simulated drive time consumed.
func (l *Library) BusyTime() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.busy
}

// Need is one item of a rebuild plan: a byte range of one object.
type Need struct {
	ObjectID string
	Offset   int
	Length   int
}

// PlanCost estimates the simulated time to satisfy a set of needs with
// one tape drive: needs on the same tape share a single mount (the robot
// keeps the tape loaded), distinct tapes each pay MountLatency. This is
// why the paper calls rebuild from tertiary "a slow process".
func (l *Library) PlanCost(needs []Need) (time.Duration, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	tapes := map[int]bool{}
	var transfer units.ByteSize
	for _, n := range needs {
		o, ok := l.objects[n.ObjectID]
		if !ok {
			return 0, fmt.Errorf("%w: %q", ErrNotFound, n.ObjectID)
		}
		if n.Offset < 0 || n.Length < 0 || n.Offset+n.Length > len(o.content) {
			return 0, fmt.Errorf("tertiary: bad range [%d,%d) for %q", n.Offset, n.Offset+n.Length, n.ObjectID)
		}
		tapes[o.tape] = true
		transfer += units.ByteSize(n.Length)
	}
	return time.Duration(len(tapes))*l.cfg.MountLatency + l.cfg.DriveRate.TimeFor(transfer), nil
}

// TapesOf returns the sorted distinct tapes holding the given objects.
func (l *Library) TapesOf(ids []string) ([]int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seen := map[int]bool{}
	for _, id := range ids {
		o, ok := l.objects[id]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
		}
		seen[o.tape] = true
	}
	out := make([]int, 0, len(seen))
	for tp := range seen {
		out = append(out, tp)
	}
	sort.Ints(out)
	return out, nil
}
