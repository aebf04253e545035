// Package buffer provides the main-memory accounting the paper's schemes
// are compared on: track-granularity buffer pools with peak tracking
// (buffer space is one of the three redundancy penalties of §5), and the
// Non-clustered scheme's shared buffer servers (§3) — "one or more extra
// processors containing a buffer pool to help handle clusters operating
// in degraded mode", shared by all clusters, sized for K simultaneous
// degraded clusters.
//
// A Pool and a Servers are not safe for concurrent use; the server's
// owner serializes calls. Only the Arena, whose buffers and Refs are
// released by the goroutines that ship them, is shared.
package buffer

import (
	"errors"
	"fmt"
	"sort"
)

// ErrExhausted is returned when a buffer-server attach cannot be
// satisfied; at the system level this is the paper's degradation of
// service.
var ErrExhausted = errors.New("buffer: exhausted")

// Pool is a track-granularity buffer count: the tracks an engine holds
// and their high-water mark, which is what a workload would need. It is
// unbounded; it refuses only an accounting fault.
type Pool struct {
	inUse int
	peak  int
}

// NewPool creates an empty pool.
func NewPool() *Pool { return &Pool{} }

// Acquire takes n ≥ 0 tracks from the pool, which has no bound to
// refuse them.
func (p *Pool) Acquire(n int) {
	p.inUse += n
	p.peak = max(p.peak, p.inUse)
}

// Release returns n tracks to the pool.
func (p *Pool) Release(n int) error {
	if n < 0 {
		return fmt.Errorf("buffer: negative release %d", n)
	}
	if n > p.inUse {
		return fmt.Errorf("buffer: releasing %d tracks with only %d in use", n, p.inUse)
	}
	p.inUse -= n
	return nil
}

// InUse returns the tracks currently held.
func (p *Pool) InUse() int { return p.inUse }

// Peak returns the high-water mark of InUse since creation.
func (p *Pool) Peak() int { return p.peak }

// Servers models the Non-clustered scheme's shared buffer-server pool: K
// servers, each able to carry exactly one cluster operating in degraded
// mode. When a cluster's disk fails it attaches to a server; the server
// performs the parity computation and holds the staggered-group-sized
// buffers for that cluster until the disk is rebuilt.
type Servers struct {
	k        int
	attached map[int]bool
}

// NewServers creates a pool of k buffer servers.
func NewServers(k int) (*Servers, error) {
	if k < 0 {
		return nil, fmt.Errorf("buffer: negative server count %d", k)
	}
	return &Servers{k: k, attached: make(map[int]bool)}, nil
}

// Attach reserves a buffer server for the given cluster. Attaching an
// already-attached cluster is a no-op. When all K servers are busy the
// attach fails with ErrExhausted — the paper's degradation of service for
// the Non-clustered scheme.
func (s *Servers) Attach(cluster int) error {
	if s.attached[cluster] {
		return nil
	}
	if len(s.attached) >= s.k {
		return fmt.Errorf("%w: all %d buffer servers busy", ErrExhausted, s.k)
	}
	s.attached[cluster] = true
	return nil
}

// Detach releases the server held by the cluster (after its failed disk
// has been rebuilt).
func (s *Servers) Detach(cluster int) error {
	if !s.attached[cluster] {
		return fmt.Errorf("buffer: cluster %d holds no server", cluster)
	}
	delete(s.attached, cluster)
	return nil
}

// InUse returns the number of busy servers.
func (s *Servers) InUse() int { return len(s.attached) }

// Free returns the number of idle servers.
func (s *Servers) Free() int { return s.k - len(s.attached) }

// Size returns K.
func (s *Servers) Size() int { return s.k }

// Attached lists the clusters currently holding servers, sorted.
func (s *Servers) Attached() []int {
	out := make([]int, 0, len(s.attached))
	for c := range s.attached {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}
