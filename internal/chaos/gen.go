package chaos

import (
	"fmt"
	"math"
	"math/rand"

	"ftmm/internal/server"
)

// Generate draws one randomized schedule for the scheme from the rng,
// spread across nodes shards (at most one: the classic single-server
// schedule; more: drive faults pinned to shards and node kill/drain
// events layered on top, see fanOut).
//
// Schedules are interesting but never catastrophic by construction: the
// invariants under test are the paper's single-failure guarantees, and
// two drives of one parity group down at once legitimately lose data.
// One rule keeps them apart, read from the scheme's layout
// (layout.Layout.SharesGroup) rather than derived per placement: a
// drawn failure on a drive that shares a group with an earlier drawn
// drive not yet back at the drawn cycle is moved to 1-4 cycles after
// that drive's instant repair, and is dropped when that drive never
// comes back (an online rebuild, or no repair). Earlier failures are
// checked in the order they were drawn. At most one online rebuild is
// drawn per schedule (the server runs one at a time).
//
// Non-clustered schedules may exceed K concurrent data-disk failures on
// purpose: running out of buffer servers is the paper's degradation of
// service, and the continuity checker exempts unprotected clusters.
func Generate(rng *rand.Rand, scheme string, nodes int) Schedule {
	const c = 4
	s := Schedule{
		Scheme:      scheme,
		ClusterSize: c,
		Disks:       []int{8, 12}[rng.Intn(2)],
		K:           1 + rng.Intn(2),
		Titles:      3 + rng.Intn(3),
		TitleGroups: 3 + rng.Intn(4),
	}
	if scheme == "dc" {
		// Parity groups of C=4 on the (13,4) difference-set design.
		s.DeclusterGroup = 13
		s.Disks = []int{13, 26}[rng.Intn(2)]
	}

	nAdmits := 2 + rng.Intn(5)
	for i := 0; i < nAdmits; i++ {
		s.Events = append(s.Events, Event{
			Cycle: rng.Intn(11),
			Kind:  EventAdmit,
			Title: fmt.Sprintf("title%d", rng.Intn(s.Titles)),
		})
	}

	sc, _, _ := server.ParseScheme(scheme) // an unknown name fails Validate when run
	lay, err := server.NewLayout(sc, s.Disks, c, s.DeclusterGroup, 1)
	if err != nil {
		panic(err) // every geometry drawn above is a valid farm
	}
	unit := lay.ClusterSize() // cluster, or declustering group under dc
	// back is, per drawn failure in draw order, the cycle of its instant
	// repair; never when it is not instantly repaired.
	const never = math.MaxInt
	type outage struct{ drive, back int }
	var drawn []outage
	haveRebuild := false
	nFails := rng.Intn(3)
draws:
	for i := 0; i < nFails; i++ {
		cl := rng.Intn(lay.Clusters())
		failCycle := 2 + rng.Intn(10)
		drive := cl*unit + rng.Intn(unit)
		for _, o := range drawn {
			if failCycle > o.back || !lay.SharesGroup(drive, o.drive) {
				continue
			}
			if o.back == never {
				continue draws
			}
			failCycle = o.back + 1 + rng.Intn(4)
		}
		s.Events = append(s.Events, Event{Cycle: failCycle, Kind: EventFail, Drive: drive})

		repairCycle := failCycle + 1 + rng.Intn(c+2)
		back := never // an online rebuild's end, or no repair: not drawn
		switch p := rng.Float64(); {
		case p < 0.60:
			s.Events = append(s.Events, Event{Cycle: repairCycle, Kind: EventRepair, Drive: drive})
			back = repairCycle
		case p < 0.85 && !haveRebuild:
			budget := (c - 1) * (1 + rng.Intn(3))
			s.Events = append(s.Events, Event{Cycle: repairCycle, Kind: EventRebuild, Drive: drive, Budget: budget})
			haveRebuild = true
		}
		drawn = append(drawn, outage{drive, back})
	}

	nCancels := rng.Intn(3)
	for i := 0; i < nCancels; i++ {
		s.Events = append(s.Events, Event{
			Cycle:  3 + rng.Intn(15),
			Kind:   EventCancel,
			Stream: rng.Intn(nAdmits),
		})
	}

	// Interactive viewers: pauses paired with later resumes, ff at
	// modest rates, and rewinds anywhere in the title. All of it lands
	// on the same ordinal space the cancels address, and all of it is
	// applied best-effort, so colliding verbs stay runnable.
	titleTracks := s.TitleGroups * (c - 1)
	nVcr := rng.Intn(4)
	for i := 0; i < nVcr; i++ {
		ord := rng.Intn(nAdmits)
		base := 3 + rng.Intn(12)
		switch rng.Intn(3) {
		case 0:
			s.Events = append(s.Events,
				Event{Cycle: base, Kind: EventPause, Stream: ord},
				Event{Cycle: base + 1 + rng.Intn(5), Kind: EventVcrResume, Stream: ord})
		case 1:
			s.Events = append(s.Events, Event{Cycle: base, Kind: EventFF, Stream: ord, Rate: 2 + rng.Intn(2)})
		default:
			s.Events = append(s.Events, Event{Cycle: base, Kind: EventRewind, Stream: ord, Track: rng.Intn(titleTracks)})
		}
	}

	lastEvent := 0
	for _, ev := range s.Events {
		if ev.Cycle > lastEvent {
			lastEvent = ev.Cycle
		}
	}
	// Longest play-out: a title's tracks at one per cycle, plus the whole
	// catalog's tracks as rebuild slack, plus a full replay per rewind
	// (a rewound stream may walk the title again), plus margin.
	s.MaxCycles = lastEvent + titleTracks + s.Titles*s.TitleGroups + nVcr*titleTracks + 40
	if nodes > 1 {
		fanOut(rng, &s, nodes)
	}
	return s
}

// fanOut spreads a single-server schedule across nodes shards.
func fanOut(rng *rand.Rand, s *Schedule, nodes int) {
	s.Nodes = nodes
	s.Replicas = 2
	s.PlacementSeed = rng.Int63()
	// Pin each drive-fault chain (fail → repair/rebuild) to one shard,
	// so pairs stay pairs.
	driveNode := make(map[int]int)
	for i := range s.Events {
		ev := &s.Events[i]
		switch ev.Kind {
		case EventFail, EventRepair, EventRebuild:
			n, ok := driveNode[ev.Drive]
			if !ok {
				n = rng.Intn(nodes)
				driveNode[ev.Drive] = n
			}
			ev.Node = n
		}
	}
	// Usually one kill; sometimes a drain elsewhere. Killing and
	// draining down to one node is interesting, not catastrophic:
	// unplaceable sessions are the admitted loss the checker exempts.
	victim := -1
	if rng.Float64() < 0.75 {
		victim = rng.Intn(nodes)
		s.Events = append(s.Events, Event{Cycle: 3 + rng.Intn(8), Kind: EventNodeKill, Node: victim})
	}
	if rng.Float64() < 0.40 {
		d := rng.Intn(nodes)
		if d == victim {
			d = (d + 1) % nodes
		}
		s.Events = append(s.Events, Event{Cycle: 4 + rng.Intn(10), Kind: EventNodeDrain, Node: d})
	}
	// Failovers rewind up to a group per resume; pad the tail so
	// resumed sessions can still play out.
	s.MaxCycles += s.TitleGroups * (s.ClusterSize - 1)
}

// SchemeNames lists every scheme name campaigns rotate through by
// default: the four paper schemes (with both Non-clustered transition
// policies) plus declustered parity.
func SchemeNames() []string {
	return []string{"sr", "sg", "nc", "nc-simple", "ib", "dc"}
}
