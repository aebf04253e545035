// Package chaos is the repo's deterministic fault-injection harness: a
// seed-reproducible campaign engine that drives every scheme engine
// through randomized admission/failure/repair/rebuild/cancel schedules
// while pluggable invariant checkers audit each cycle, in the spirit of
// the paper's §3-§5 claims about behavior *under failure*:
//
//   - delivery continuity: SR/SG/IB mask single failures with zero
//     hiccups (an IB drive failing mid-cycle costs each stream at most
//     its one in-flight track); Non-clustered loses per stream, inside a
//     bounded transition window, at most the rest of a group under the
//     simple switchover and the failed drive's one track under the
//     alternate, plus reads refused for want of a slot (Figures 6-7),
//     unless the cluster runs unprotected (degradation of service);
//   - parity-group consistency after every repair and online rebuild;
//   - buffer accounting: no leaked arena buffers or pool tracks once
//     the server drains;
//   - admission: live streams never exceed the analytic N_p bound
//     (equations (8)-(11));
//   - report retention: a read track's delivered bytes (a platter view)
//     are unchanged after the next Step and the events before it, and
//     the report's buffer gauge matches the engine's;
//   - bit-exact continuity (run-wide, on one node or many): every
//     session receives its title's bytes exactly, one consecutive track
//     at a time across its whole ownership chain, and a finished session
//     received all of them. This is the repo's one delivery verifier.
//
// A Schedule is also the scenario file format: ParseSchedule reads the
// files under scenarios/, and a shrunk trace is written out as the
// Schedule JSON it is. Run is the repo's one schedule interpreter:
// generated schedules and scenario files alike, on one node or across
// many, go through it and its single event table (apply).
//
// Everything is reproducible from one int64 seed at any worker count.
// On violation the campaign shrinks the schedule with delta debugging
// to a 1-minimal reproducing trace that cmd/ftmmsim can write out and
// replay (`-scenario`); regression traces live under scenarios/.
package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"ftmm/internal/analytic"
	"ftmm/internal/diskmodel"
	"ftmm/internal/server"
	"ftmm/internal/units"
)

// EventKind names a schedule event type.
type EventKind string

const (
	// EventAdmit requests a stream for Title; admission rejections are
	// tolerated (the analytic bound is the invariant, not acceptance).
	EventAdmit EventKind = "admit"
	// EventFail fails Drive at the cycle boundary. It and the next four
	// are the server's drive faults (server.Server.Apply), spelled as
	// its fault kinds.
	EventFail = EventKind(server.FaultFail)
	// EventFailMidCycle (ib schedules only) fails Drive halfway through
	// the cycle's reads: the tracks it had yet to serve are the §4
	// isolated hiccups, one per stream at most, and later cycles shift.
	EventFailMidCycle = EventKind(server.FaultFailMidCycle)
	// EventRepair replaces Drive and rebuilds it instantly from parity.
	EventRepair = EventKind(server.FaultRepair)
	// EventRebuild replaces Drive and starts the paper's online rebuild
	// with Budget spare track reads per cycle.
	EventRebuild = EventKind(server.FaultRebuild)
	// EventTertiary replaces Drive and reloads every object touching it
	// from the tape library — the only way back from a catastrophic
	// failure (two drives of one parity group), where parity cannot
	// rebuild.
	EventTertiary = EventKind(server.FaultTertiary)
	// EventCancel hangs up the stream of the Stream-th successful
	// admission (0-based).
	EventCancel EventKind = "cancel"
	// EventNodeKill (cluster runs only) kills node Node at the cycle
	// boundary: it stops stepping forever and its live sessions fail
	// over to surviving replica holders at the next group boundary.
	EventNodeKill EventKind = "node-kill"
	// EventNodeDrain (cluster runs only) drains node Node: it stops
	// taking admissions and failovers while its streams play out, and
	// must end empty (the leak checker still audits it).
	EventNodeDrain EventKind = "node-drain"
	// EventPause parks the stream of the Stream-th successful admission:
	// its engine stream is cancelled (the slot returns to the admission
	// pool) and its position held for a later vcr-resume.
	EventPause EventKind = "pause"
	// EventVcrResume re-admits a paused stream at the parity-group floor
	// of its held position. A rejection is tolerated — the stream simply
	// stays parked, like a viewer holding a Retry-After.
	EventVcrResume EventKind = "vcr-resume"
	// EventFF sets the stream's playback multiplier to Rate (k′-weighted
	// admission decides; a refusal is tolerated). Only engines with rate
	// support (sr, dc) apply it; elsewhere it is a no-op.
	EventFF EventKind = "ff"
	// EventRewind jumps the stream to absolute track Track (clamped to
	// the title), re-admitting at the enclosing group boundary; if the
	// farm refuses, the stream is left parked at the target.
	EventRewind EventKind = "rewind"
)

// Event is one scheduled action. Events are applied best-effort so that
// every subset of a schedule remains runnable — the shrinker removes
// events freely and a repair whose failure was removed simply becomes a
// no-op.
type Event struct {
	Cycle  int       `json:"cycle"`
	Kind   EventKind `json:"kind"`
	Title  string    `json:"title,omitempty"`
	Drive  int       `json:"drive,omitempty"`
	Budget int       `json:"budget,omitempty"`
	Stream int       `json:"stream,omitempty"`
	// Node is the target node: the killed/drained node for node events,
	// the shard whose drive a fail/repair/rebuild/tertiary hits.
	// Single-node schedules leave it 0.
	Node int `json:"node,omitempty"`
	// Rate is the playback multiplier of ff events; Track the absolute
	// jump target of rewind events.
	Rate  int `json:"rate,omitempty"`
	Track int `json:"track,omitempty"`
}

// Schedule is one complete chaos run description: a farm shape, a
// catalog, and an event timeline. It is the unit the generator emits,
// the runner executes, the shrinker minimizes, and a scenario file
// holds. Same-cycle events apply in the order they are listed.
type Schedule struct {
	// Scheme is a server.ParseScheme name: sr, sg, nc, nc-simple, ib,
	// dc.
	Scheme      string `json:"scheme"`
	Disks       int    `json:"disks"`
	ClusterSize int    `json:"cluster_size"`
	// DeclusterGroup is G, the declustering group size, for the dc
	// scheme (0 = 2·ClusterSize-1); ignored otherwise.
	DeclusterGroup int     `json:"decluster_group,omitempty"`
	K              int     `json:"k"`
	Titles         int     `json:"titles"`
	TitleGroups    int     `json:"title_groups"`
	MaxCycles      int     `json:"max_cycles"`
	Events         []Event `json:"events"`
	// SlotsPerDisk overrides each drive's per-cycle read budget (0 = the
	// disk model's); the paper's Figures 5-8 are drawn at 1 or 2.
	SlotsPerDisk int `json:"slots_per_disk,omitempty"`
	// Nodes is how many farm-per-node shards the run spreads across; 0
	// means 1. Replicas and PlacementSeed feed the rendezvous placement
	// that decides which nodes hold which titles.
	Nodes         int   `json:"nodes,omitempty"`
	Replicas      int   `json:"replicas,omitempty"`
	PlacementSeed int64 `json:"placement_seed,omitempty"`
}

// FarmUnit returns the drive-group size the farm is built from: the
// declustering group G for the dc scheme (defaulting to 2C-1), the
// cluster C otherwise. Disks must be a whole number of these units.
func (s *Schedule) FarmUnit() int {
	if scheme, _, err := server.ParseScheme(s.Scheme); err == nil && scheme == analytic.DeclusteredParity {
		return analytic.Config{C: s.ClusterSize, G: s.DeclusterGroup}.DeclusterGroup()
	}
	return s.ClusterSize
}

// DiskParams sizes drives to hold the catalog comfortably. Every node of
// a run gets this geometry, so a replayed trace reproduces its run byte
// for byte.
func (s *Schedule) DiskParams() diskmodel.Params {
	p := diskmodel.Table1()
	tracksPerTitle := s.TitleGroups * s.ClusterSize
	p.Capacity = units.ByteSize((s.Titles*tracksPerTitle)/s.Disks+tracksPerTitle+50) * p.TrackSize
	return p
}

// ParseSchedule decodes a scenario file. Unknown fields are rejected so
// typos fail loudly, and max_cycles defaults to 10 000. A file must
// admit at least one stream; that rule is the file's alone, because the
// shrinker's subsets may drop every admission and must still run.
func ParseSchedule(data []byte) (*Schedule, error) {
	var s Schedule
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	if s.MaxCycles == 0 {
		s.MaxCycles = 10_000
	}
	if !slices.ContainsFunc(s.Events, func(ev Event) bool { return ev.Kind == EventAdmit }) {
		return nil, errors.New("chaos: schedule admits no stream")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the schedule's shape.
func (s *Schedule) Validate() error {
	scheme, _, err := server.ParseScheme(s.Scheme)
	if err != nil {
		return err
	}
	unit := s.FarmUnit()
	switch {
	case s.ClusterSize < 2 || unit < s.ClusterSize || s.Disks < unit || s.Disks%unit != 0:
		return fmt.Errorf("chaos: bad farm %dx%d (unit %d)", s.Disks, s.ClusterSize, unit)
	case s.Titles < 1 || s.TitleGroups < 1:
		return errors.New("chaos: need at least one title with one group")
	case s.MaxCycles < 1:
		return errors.New("chaos: MaxCycles must be positive")
	case s.K < 0:
		return errors.New("chaos: negative K")
	case s.SlotsPerDisk < 0:
		return errors.New("chaos: negative slots per disk")
	case s.Nodes < 0:
		return errors.New("chaos: negative node count")
	case s.Replicas < 0 || (s.Nodes > 1 && s.Replicas > s.Nodes):
		return fmt.Errorf("chaos: %d replicas do not fit %d nodes", s.Replicas, s.Nodes)
	}
	nodes := s.Nodes
	if nodes < 1 {
		nodes = 1
	}
	for _, ev := range s.Events {
		if ev.Cycle < 0 {
			return fmt.Errorf("chaos: event %+v before cycle 0", ev)
		}
		if ev.Node < 0 || ev.Node >= nodes {
			return fmt.Errorf("chaos: event %+v on node outside [0,%d)", ev, nodes)
		}
		switch ev.Kind {
		case EventAdmit:
			if ev.Title == "" {
				return fmt.Errorf("chaos: admit without title at cycle %d", ev.Cycle)
			}
		case EventFail, EventRepair, EventTertiary, EventFailMidCycle:
			if ev.Drive < 0 || ev.Drive >= s.Disks {
				return fmt.Errorf("chaos: event %+v on drive outside [0,%d)", ev, s.Disks)
			}
			if ev.Kind == EventFailMidCycle && scheme != analytic.ImprovedBandwidth {
				return fmt.Errorf("chaos: %s at cycle %d under %s: only ib models it", ev.Kind, ev.Cycle, s.Scheme)
			}
		case EventRebuild:
			if ev.Drive < 0 || ev.Drive >= s.Disks {
				return fmt.Errorf("chaos: event %+v on drive outside [0,%d)", ev, s.Disks)
			}
			if ev.Budget < s.ClusterSize-1 {
				return fmt.Errorf("chaos: rebuild budget %d below C-1=%d", ev.Budget, s.ClusterSize-1)
			}
		case EventCancel, EventPause, EventVcrResume:
			if ev.Stream < 0 {
				return fmt.Errorf("chaos: %s of negative stream ordinal %d", ev.Kind, ev.Stream)
			}
		case EventFF:
			if ev.Stream < 0 {
				return fmt.Errorf("chaos: ff of negative stream ordinal %d", ev.Stream)
			}
			if ev.Rate < 1 {
				return fmt.Errorf("chaos: ff rate %d below 1 at cycle %d", ev.Rate, ev.Cycle)
			}
		case EventRewind:
			if ev.Stream < 0 {
				return fmt.Errorf("chaos: rewind of negative stream ordinal %d", ev.Stream)
			}
			if ev.Track < 0 {
				return fmt.Errorf("chaos: rewind to negative track %d at cycle %d", ev.Track, ev.Cycle)
			}
		case EventNodeKill, EventNodeDrain:
			if s.Nodes < 2 {
				return fmt.Errorf("chaos: %s event in a single-node schedule", ev.Kind)
			}
		default:
			return fmt.Errorf("chaos: unknown event kind %q", ev.Kind)
		}
	}
	return nil
}
