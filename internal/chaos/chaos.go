// Package chaos is the repo's deterministic fault-injection harness: a
// seed-reproducible campaign engine that drives every scheme engine
// through randomized admission/failure/repair/rebuild/cancel schedules
// while pluggable invariant checkers audit each cycle, in the spirit of
// the paper's §3-§5 claims about behavior *under failure*:
//
//   - delivery continuity: SR/SG/IB mask single failures with zero
//     hiccups; Non-clustered loses at most one parity group's worth of
//     tracks per stream, inside a bounded transition window (Figures
//     6-7), unless the cluster runs unprotected (degradation of
//     service);
//   - parity-group consistency after every repair and online rebuild;
//   - buffer accounting: no leaked arena buffers or pool tracks once
//     the server drains;
//   - admission: live streams never exceed the analytic N_p bound
//     (equations (8)-(11));
//   - report retention: a Clone of a cycle report stays equal to the
//     live report, delivered bytes match the stored content, and
//     per-stream delivery advances one consecutive track at a time.
//
// Run is the repo's one schedule interpreter: generated schedules and
// scenario files (FromSpec) alike, on one node or across many, go
// through it and its single event table (apply).
//
// Everything is reproducible from one int64 seed at any worker count.
// On violation the campaign shrinks the schedule with delta debugging
// to a 1-minimal reproducing trace and can export it as a scenario file
// that cmd/ftmmsim replays (`-scenario`); regression traces live under
// scenarios/.
package chaos

import (
	"errors"
	"fmt"

	"ftmm/internal/analytic"
	"ftmm/internal/scenario"
	"ftmm/internal/server"
)

// EventKind names a schedule event type.
type EventKind string

const (
	// EventAdmit requests a stream for Title; admission rejections are
	// tolerated (the analytic bound is the invariant, not acceptance).
	EventAdmit EventKind = "admit"
	// EventFail fails Drive at the cycle boundary.
	EventFail EventKind = "fail"
	// EventRepair replaces Drive and rebuilds it instantly from parity.
	EventRepair EventKind = "repair"
	// EventRebuild replaces Drive and starts the paper's online rebuild
	// with Budget spare track reads per cycle.
	EventRebuild EventKind = "rebuild"
	// EventTertiary replaces Drive and reloads every object touching it
	// from the tape library — the only way back from a catastrophic
	// failure (two drives of one parity group), where parity cannot
	// rebuild.
	EventTertiary EventKind = "tertiary"
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
// the runner executes, and the shrinker minimizes.
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
		if s.DeclusterGroup > 0 {
			return s.DeclusterGroup
		}
		return 2*s.ClusterSize - 1
	}
	return s.ClusterSize
}

// Validate checks the schedule's shape.
func (s *Schedule) Validate() error {
	if _, _, err := server.ParseScheme(s.Scheme); err != nil {
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
		case EventFail, EventRepair, EventTertiary:
			if ev.Drive < 0 || ev.Drive >= s.Disks {
				return fmt.Errorf("chaos: event %+v on drive outside [0,%d)", ev, s.Disks)
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

// ToSpec converts the schedule into a replayable scenario.Spec: the
// exact form `ftmmsim -scenario` consumes and the regression corpus
// under scenarios/ is stored in. Fail events pair with the next repair,
// rebuild or tape reload of the same drive; repairs whose failure is
// absent from the schedule are dropped (the runner treats them as
// no-ops anyway).
func (s *Schedule) ToSpec() *scenario.Spec {
	spec := &scenario.Spec{
		Scheme: s.Scheme, Disks: s.Disks, ClusterSize: s.ClusterSize,
		DeclusterGroup: s.DeclusterGroup,
		K:              s.K, Titles: s.Titles, TitleGroups: s.TitleGroups,
		MaxCycles: s.MaxCycles,
		Nodes:     s.Nodes, Replicas: s.Replicas, PlacementSeed: s.PlacementSeed,
	}
	for _, ev := range s.Events {
		switch ev.Kind {
		case EventAdmit:
			spec.Requests = append(spec.Requests, scenario.Request{Cycle: ev.Cycle, Title: ev.Title})
		case EventCancel:
			spec.Cancels = append(spec.Cancels, scenario.Cancel{Cycle: ev.Cycle, Stream: ev.Stream})
		case EventFail:
			spec.Failures = append(spec.Failures, scenario.Failure{Cycle: ev.Cycle, Drive: ev.Drive, Node: ev.Node})
		case EventNodeKill:
			spec.NodeEvents = append(spec.NodeEvents, scenario.NodeEvent{Cycle: ev.Cycle, Kind: "kill", Node: ev.Node})
		case EventNodeDrain:
			spec.NodeEvents = append(spec.NodeEvents, scenario.NodeEvent{Cycle: ev.Cycle, Kind: "drain", Node: ev.Node})
		case EventPause:
			spec.VcrEvents = append(spec.VcrEvents, scenario.VcrEvent{Cycle: ev.Cycle, Kind: "pause", Stream: ev.Stream})
		case EventVcrResume:
			spec.VcrEvents = append(spec.VcrEvents, scenario.VcrEvent{Cycle: ev.Cycle, Kind: "resume", Stream: ev.Stream})
		case EventFF:
			spec.VcrEvents = append(spec.VcrEvents, scenario.VcrEvent{Cycle: ev.Cycle, Kind: "ff", Stream: ev.Stream, Rate: ev.Rate})
		case EventRewind:
			spec.VcrEvents = append(spec.VcrEvents, scenario.VcrEvent{Cycle: ev.Cycle, Kind: "rewind", Stream: ev.Stream, Track: ev.Track})
		case EventRepair, EventRebuild, EventTertiary:
			for i := len(spec.Failures) - 1; i >= 0; i-- {
				f := &spec.Failures[i]
				if f.Drive == ev.Drive && f.Node == ev.Node && f.RepairCycle == 0 && f.Cycle < ev.Cycle {
					f.RepairCycle = ev.Cycle
					f.RebuildBudget = ev.Budget
					f.Tertiary = ev.Kind == EventTertiary
					break
				}
			}
		}
	}
	return spec
}

// FromSpec converts a scenario into a chaos schedule — the only way a
// scenario file runs: `ftmmsim -scenario` and the corpus test both walk
// scenarios/*.json through this and Run.
func FromSpec(spec *scenario.Spec) *Schedule {
	s := &Schedule{
		Scheme: spec.Scheme, Disks: spec.Disks, ClusterSize: spec.ClusterSize,
		DeclusterGroup: spec.DeclusterGroup,
		K:              spec.K, Titles: spec.Titles, TitleGroups: spec.TitleGroups,
		MaxCycles: spec.MaxCycles,
		Nodes:     spec.Nodes, Replicas: spec.Replicas, PlacementSeed: spec.PlacementSeed,
	}
	if s.MaxCycles == 0 {
		s.MaxCycles = 10_000
	}
	for _, r := range spec.Requests {
		s.Events = append(s.Events, Event{Cycle: r.Cycle, Kind: EventAdmit, Title: r.Title})
	}
	for _, f := range spec.Failures {
		s.Events = append(s.Events, Event{Cycle: f.Cycle, Kind: EventFail, Drive: f.Drive, Node: f.Node})
		if f.RepairCycle > 0 {
			kind := EventRepair
			switch {
			case f.Tertiary:
				kind = EventTertiary
			case f.RebuildBudget > 0:
				kind = EventRebuild
			}
			s.Events = append(s.Events, Event{Cycle: f.RepairCycle, Kind: kind, Drive: f.Drive, Budget: f.RebuildBudget, Node: f.Node})
		}
	}
	for _, ne := range spec.NodeEvents {
		kind := EventNodeKill
		if ne.Kind == "drain" {
			kind = EventNodeDrain
		}
		s.Events = append(s.Events, Event{Cycle: ne.Cycle, Kind: kind, Node: ne.Node})
	}
	for _, c := range spec.Cancels {
		s.Events = append(s.Events, Event{Cycle: c.Cycle, Kind: EventCancel, Stream: c.Stream})
	}
	for _, v := range spec.VcrEvents {
		kind := EventPause
		switch v.Kind {
		case "resume":
			kind = EventVcrResume
		case "ff":
			kind = EventFF
		case "rewind":
			kind = EventRewind
		}
		s.Events = append(s.Events, Event{Cycle: v.Cycle, Kind: kind, Stream: v.Stream, Rate: v.Rate, Track: v.Track})
	}
	return s
}
