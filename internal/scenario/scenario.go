// Package scenario is the file format of declarative, reproducible
// simulation scenarios: a JSON description of a farm, a catalog, a
// request schedule, and a failure/repair schedule. It only parses and
// validates; the chaos runner executes a spec (chaos.FromSpec, then
// chaos.Run), which is what cmd/ftmmsim -scenario and the regression
// corpus under scenarios/ go through.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"ftmm/internal/diskmodel"
	"ftmm/internal/units"
)

// Spec is the JSON scenario description.
type Spec struct {
	// Scheme is a server.ParseScheme name: sr, sg, nc, nc-simple, ib,
	// dc. The runner resolves it; an unknown name fails there, not in
	// Validate.
	Scheme string `json:"scheme"`
	// Disks and ClusterSize shape the farm.
	Disks       int `json:"disks"`
	ClusterSize int `json:"cluster_size"`
	// DeclusterGroup is G, the declustering group size, for the dc
	// scheme (0 = 2·ClusterSize-1); ignored otherwise.
	DeclusterGroup int `json:"decluster_group,omitempty"`
	// K is the reserve depth (buffer servers / reserved bandwidth).
	K int `json:"k"`
	// Titles to archive, each TitleGroups parity groups long.
	Titles      int `json:"titles"`
	TitleGroups int `json:"title_groups"`
	// Requests schedules stream admissions.
	Requests []Request `json:"requests"`
	// Failures schedules drive failures and repairs.
	Failures []Failure `json:"failures"`
	// Cancels schedules client hang-ups, applied best-effort: a cancel
	// whose stream is unknown or already finished is silently skipped,
	// so shrunk chaos traces stay runnable after events are removed.
	Cancels []Cancel `json:"cancels,omitempty"`
	// VcrEvents schedules interactive-viewer verbs (pause, resume, ff,
	// rewind) against admitted streams, applied best-effort like Cancels.
	VcrEvents []VcrEvent `json:"vcr_events,omitempty"`
	// MaxCycles bounds the run (default 10000).
	MaxCycles int `json:"max_cycles"`
	// Cluster topology: Nodes > 1 runs the spec across that many
	// farm-per-node shards. Replicas and PlacementSeed feed the
	// rendezvous placement; NodeEvents kill or drain whole nodes. Zero
	// values mean the classic single-node run.
	Nodes         int         `json:"nodes,omitempty"`
	Replicas      int         `json:"replicas,omitempty"`
	PlacementSeed int64       `json:"placement_seed,omitempty"`
	NodeEvents    []NodeEvent `json:"node_events,omitempty"`
}

// Request admits a stream for a title at a cycle.
type Request struct {
	Cycle int    `json:"cycle"`
	Title string `json:"title"`
}

// Failure fails a drive at a cycle, optionally repairing it later.
// RepairCycle <= 0 means never; Tertiary selects tape reload instead of
// parity rebuild. RebuildBudget > 0 selects the paper's online rebuild
// mode instead of an instant repair: at RepairCycle the drive is
// replaced and its contents restored incrementally, at most
// RebuildBudget spare track reads per cycle (must be >= C-1).
type Failure struct {
	Cycle         int  `json:"cycle"`
	Drive         int  `json:"drive"`
	RepairCycle   int  `json:"repair_cycle"`
	Tertiary      bool `json:"tertiary"`
	RebuildBudget int  `json:"rebuild_budget,omitempty"`
	// Node is the shard whose drive fails, for cluster specs.
	Node int `json:"node,omitempty"`
}

// NodeEvent kills or drains one cluster node at a cycle. "kill" stops
// the node dead (its sessions fail over to replica holders); "drain"
// stops it taking placements while its streams play out.
type NodeEvent struct {
	Cycle int    `json:"cycle"`
	Kind  string `json:"kind"`
	Node  int    `json:"node"`
}

// Cancel hangs up the stream admitted by the Stream-th successful
// request (0-based, in schedule order) at the given cycle.
type Cancel struct {
	Cycle  int `json:"cycle"`
	Stream int `json:"stream"`
}

// VcrEvent applies one interactive-viewer verb to the Stream-th
// successful admission at a cycle. Kind is "pause" (park the stream,
// freeing its slot), "resume" (re-admit a paused stream at its held
// position's group floor; a rejection leaves it parked), "ff" (set
// playback multiplier Rate; refusals and engines without rate support
// are tolerated), or "rewind" (jump to absolute track Track, clamped;
// refusals park the stream at the target).
type VcrEvent struct {
	Cycle  int    `json:"cycle"`
	Kind   string `json:"kind"`
	Stream int    `json:"stream"`
	Rate   int    `json:"rate,omitempty"`
	Track  int    `json:"track,omitempty"`
}

// Parse decodes and validates a JSON spec. Unknown fields are rejected
// so typos in scenario files fail loudly.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec's shape.
func (s *Spec) Validate() error {
	switch {
	case s.Disks < s.ClusterSize || s.ClusterSize < 2:
		return fmt.Errorf("scenario: bad farm %dx%d", s.Disks, s.ClusterSize)
	case s.Titles < 1 || s.TitleGroups < 1:
		return errors.New("scenario: need at least one title with one group")
	case len(s.Requests) == 0:
		return errors.New("scenario: no requests")
	}
	for _, r := range s.Requests {
		if r.Cycle < 0 || r.Title == "" {
			return fmt.Errorf("scenario: bad request %+v", r)
		}
	}
	for _, f := range s.Failures {
		if f.Cycle < 0 || f.Drive < 0 || f.Drive >= s.Disks {
			return fmt.Errorf("scenario: bad failure %+v", f)
		}
		if f.RepairCycle > 0 && f.RepairCycle <= f.Cycle {
			return fmt.Errorf("scenario: repair at %d not after failure at %d", f.RepairCycle, f.Cycle)
		}
		if f.RebuildBudget < 0 {
			return fmt.Errorf("scenario: negative rebuild budget %d", f.RebuildBudget)
		}
		if f.RebuildBudget > 0 && f.Tertiary {
			return fmt.Errorf("scenario: failure %+v mixes tertiary reload with online rebuild", f)
		}
	}
	for _, c := range s.Cancels {
		if c.Cycle < 0 || c.Stream < 0 {
			return fmt.Errorf("scenario: bad cancel %+v", c)
		}
	}
	for _, v := range s.VcrEvents {
		if v.Cycle < 0 || v.Stream < 0 {
			return fmt.Errorf("scenario: bad vcr event %+v", v)
		}
		switch v.Kind {
		case "pause", "resume":
		case "ff":
			if v.Rate < 1 {
				return fmt.Errorf("scenario: ff rate %d below 1", v.Rate)
			}
		case "rewind":
			if v.Track < 0 {
				return fmt.Errorf("scenario: rewind to negative track %d", v.Track)
			}
		default:
			return fmt.Errorf("scenario: unknown vcr event kind %q", v.Kind)
		}
	}
	if s.Nodes < 0 {
		return errors.New("scenario: negative node count")
	}
	if s.Replicas < 0 || (s.Nodes > 1 && s.Replicas > s.Nodes) {
		return fmt.Errorf("scenario: %d replicas do not fit %d nodes", s.Replicas, s.Nodes)
	}
	nodes := s.Nodes
	if nodes < 1 {
		nodes = 1
	}
	for _, f := range s.Failures {
		if f.Node < 0 || f.Node >= nodes {
			return fmt.Errorf("scenario: failure %+v on node outside [0,%d)", f, nodes)
		}
	}
	for _, ne := range s.NodeEvents {
		if s.Nodes < 2 {
			return errors.New("scenario: node events need nodes > 1")
		}
		if ne.Kind != "kill" && ne.Kind != "drain" {
			return fmt.Errorf("scenario: unknown node event kind %q", ne.Kind)
		}
		if ne.Cycle < 0 || ne.Node < 0 || ne.Node >= s.Nodes {
			return fmt.Errorf("scenario: bad node event %+v", ne)
		}
	}
	return nil
}

// DiskParams sizes drives to hold the catalog comfortably. It is
// exported so the chaos harness builds its servers with exactly the
// geometry a scenario replay will use — a shrunk trace must reproduce
// its violation byte for byte when re-run through ftmmsim -scenario.
func (s *Spec) DiskParams() diskmodel.Params {
	p := diskmodel.Table1()
	tracksPerTitle := s.TitleGroups * s.ClusterSize
	p.Capacity = units.ByteSize((s.Titles*tracksPerTitle)/s.Disks+tracksPerTitle+50) * p.TrackSize
	return p
}
