package chaos

import (
	"fmt"
	"sort"
	"sync"

	"ftmm/internal/cluster"
	"ftmm/internal/sched"
	"ftmm/internal/server"
	"ftmm/internal/units"
	"ftmm/internal/workload"
)

// Violation is one invariant breach, stamped with the checker that
// caught it. Detail strings are deterministic for a given schedule, so
// violations compare byte-identical across runs and worker counts.
type Violation struct {
	Checker string `json:"checker"`
	Cycle   int    `json:"cycle"`
	Detail  string `json:"detail"`
}

// RunResult summarizes one executed schedule.
type RunResult struct {
	// Cycles is how many cycles actually ran (drain steps included).
	Cycles int
	// Violation is the first invariant breach, nil for a clean run. The
	// runner stops at the first breach so the shrinker's reproduction
	// predicate is a pure function of the schedule.
	Violation *Violation
	// Sessions is the final ledger: every admission's full history.
	Sessions []*Session
	// Drained reports whether every surviving node went idle before
	// MaxCycles.
	Drained bool
	// Nodes is every node of the run, dead ones included, so a caller
	// can read each server's stats and metrics after the run.
	Nodes []*NodeRun
}

// RunContext is what per-node checkers see: one node's live server and
// the schedule. The node's drive faults and restores are the server's
// own record (server.Server.DriveLog); delivered bytes are audited
// run-wide, against the catalog in ClusterRunContext.
type RunContext struct {
	Srv      *server.Server
	Schedule *Schedule
	// Cycle is the index of the cycle currently being checked.
	Cycle int
}

// Checker audits one per-node invariant over a run. Begin is called
// once before the first cycle, AfterStep after every cycle with that
// cycle's report, End once after the run drains. Any returned error
// becomes a Violation carrying the checker's Name.
type Checker interface {
	Name() string
	Begin(rc *RunContext) error
	AfterStep(rc *RunContext, rep *sched.CycleReport) error
	End(rc *RunContext) error
}

// NodeRun is one node of a run: a complete server holding its placement
// slice of the catalog, with its own checker set and run context
// (per-node invariants are per-node facts). Active nodes take admissions
// and failovers. Draining nodes play out their streams but take no
// placements; they must end empty and still face the End checkers. Dead
// nodes never step again and skip the End checkers — the disposable-node
// principle: their loss is paid in sessions, never in cluster
// invariants.
type NodeRun struct {
	Index    int
	ID       string
	State    cluster.MemberState
	Srv      *server.Server
	RC       *RunContext
	Checkers []Checker
}

// Session is one logical viewer: admitted on one node, possibly resumed
// on others as nodes die. The ordinal space that cancel and VCR events
// address is run-wide admission order.
type Session struct {
	Ordinal int
	Title   string
	// Node and SID locate the live engine stream; Node is -1 once the
	// session left the system (finished, cancelled, lost, terminated).
	Node int
	SID  int
	// Next is the next new track the viewer is owed. Tracks in
	// [ResumeFloor, Next) may legitimately arrive a second time after a
	// failover — the bounded rewind to the group boundary.
	Next        int
	ResumeFloor int
	// Chain lists the node indexes that served the session, in
	// ownership order.
	Chain                           []int
	Resumes                         int
	Finished, Cancelled, Terminated bool
	// Paused marks a session a pause (or a refused rewind) parked: it
	// holds no engine stream and draws no bandwidth; PausedNext is the
	// track it is owed when a vcr-resume re-admits it.
	Paused     bool
	PausedNext int
	// Lost marks a failover that found no surviving holder with
	// capacity: the admitted loss of an unreplicated (or overloaded)
	// title. LostReason records the justification.
	Lost       bool
	LostReason string
}

// ClusterRunContext is what run-wide checkers see: every node, the
// session ledger, and the shared catalog.
type ClusterRunContext struct {
	Schedule  *Schedule
	Placement *cluster.Placement
	Nodes     []*NodeRun
	Sessions  []*Session
	Content   map[string][]byte
	TrackSize int
	// Width is tracks per parity group (C-1); Total is tracks per title.
	Width, Total int
	Cycle        int
	// Drained reports whether the run reached the all-idle exit (false
	// until then, and forever if MaxCycles truncated the run).
	Drained bool
	// byStream locates a session from its live (node index, engine
	// stream ID) pair.
	byStream map[[2]int]*Session
}

// SessionOf returns the session currently served by the given node's
// engine stream, or nil.
func (crc *ClusterRunContext) SessionOf(node, sid int) *Session {
	return crc.byStream[[2]int{node, sid}]
}

// ClusterChecker audits a run-wide invariant. AfterStep sees every
// node's report for the cycle, indexed by node (nil for dead nodes,
// which no longer step).
type ClusterChecker interface {
	Name() string
	Begin(crc *ClusterRunContext) error
	AfterStep(crc *ClusterRunContext, reps []*sched.CycleReport) error
	End(crc *ClusterRunContext) error
}

// ClusterEventObserver is implemented by cluster checkers that need to
// see schedule events as they are applied — the VCR verbs move a
// session's position. OnEvent fires only for events that took effect (a
// repair of a healthy drive, say, is skipped, not observed), after any
// Hooks ran.
type ClusterEventObserver interface {
	OnEvent(crc *ClusterRunContext, ev Event) error
}

// Hooks lets tests sabotage the system at defined points to prove the
// checkers catch real engine bugs (the "deliberately injected bug" of
// the harness's own acceptance tests).
type Hooks struct {
	// AfterRepair runs right after an instant repair of the drive
	// succeeds, before the cycle's Step.
	AfterRepair func(srv *server.Server, drive int) error
	// ResumeGroupOffset shifts every failover's and VCR re-admission's
	// restart group by this many groups — a deliberately broken handoff
	// the cross-node continuity checker must catch. Zero in real runs.
	ResumeGroupOffset int
}

// RunConfig configures one schedule execution. The checker fields are
// factories because checkers carry per-run state: every node of every
// run (and of every shrink attempt) needs its own set.
type RunConfig struct {
	Schedule Schedule
	// NewCheckers builds the per-node checker set; default
	// DefaultCheckers.
	NewCheckers func() []Checker
	// NewClusterCheckers builds the run-wide checker set; default
	// DefaultClusterCheckers.
	NewClusterCheckers func() []ClusterChecker
	Hooks              Hooks
	// titles, when set, hands every run that shares it the same bytes
	// for a (title, size), made once; nil makes them per run.
	titles *titleCache
}

// titleCache makes each distinct (title, size)'s synthetic bytes once
// for all the runs of a campaign. The bytes are read-only to every run:
// each server's tertiary Store copies them, and the checkers only read
// them.
type titleCache struct {
	mu sync.Mutex
	m  map[titleKey]*cachedTitle
}

type titleKey struct {
	id   string
	size int
}

type cachedTitle struct {
	once sync.Once
	b    []byte
}

// get returns the bytes of title id at size, made on first request;
// concurrent requests for one key wait for the one maker.
func (c *titleCache) get(id string, size int) []byte {
	if c == nil {
		return workload.SyntheticContent(id, size)
	}
	c.mu.Lock()
	e := c.m[titleKey{id, size}]
	if e == nil {
		e = new(cachedTitle)
		c.m[titleKey{id, size}] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.b = workload.SyntheticContent(id, size) })
	return e.b
}

// runner carries one run's working state.
type runner struct {
	crc   *ClusterRunContext
	hooks Hooks
}

// Run executes one schedule: Nodes farm-per-node shards (one, for the
// classic single-server run) sharing a rendezvous-placed catalog and
// stepped in lockstep, with node-kill failover (sessions resume on
// replica holders at the next group boundary) and node-drain
// reconfiguration, under the per-node checker set on every node plus
// the cluster checkers across them. Everything is deterministic: node
// order, routing, and failover depend only on the schedule.
//
// Run returns an error only for malformed configuration; anything that
// goes wrong during the run — including engine errors — is reported as
// a Violation (checker "run-error") so the shrinker can minimize it
// like any other breach.
func Run(cfg RunConfig) (*RunResult, error) {
	sch := &cfg.Schedule
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	if cfg.NewCheckers == nil {
		cfg.NewCheckers = DefaultCheckers
	}
	if cfg.NewClusterCheckers == nil {
		cfg.NewClusterCheckers = DefaultClusterCheckers
	}
	clusterCheckers := cfg.NewClusterCheckers()
	scheme, policy, err := server.ParseScheme(sch.Scheme)
	if err != nil {
		return nil, err
	}

	params := sch.DiskParams()
	trackSize := int(params.TrackSize)
	width := sch.ClusterSize - 1
	titles := make([]string, sch.Titles)
	content := make(map[string][]byte, sch.Titles)
	for i := range titles {
		id := fmt.Sprintf("title%d", i)
		titles[i] = id
		content[id] = cfg.titles.get(id, sch.TitleGroups*width*trackSize)
	}
	nodeIDs := make([]string, max(sch.Nodes, 1))
	for i := range nodeIDs {
		nodeIDs[i] = fmt.Sprintf("node%d", i)
	}
	replicas := sch.Replicas
	if replicas < 1 {
		replicas = 2
	}
	pl := cluster.Assign(titles, nodeIDs, cluster.PlacementConfig{
		Seed: sch.PlacementSeed, Replicas: min(replicas, len(nodeIDs)),
	})

	crc := &ClusterRunContext{
		Schedule: sch, Placement: pl,
		Content: content, TrackSize: trackSize,
		Width: width, Total: sch.TitleGroups * width,
		byStream: make(map[[2]int]*Session),
	}
	for i, nodeID := range nodeIDs {
		srv, err := server.New(server.Options{
			Disks: sch.Disks, ClusterSize: sch.ClusterSize,
			DeclusterGroup: sch.DeclusterGroup,
			Scheme:         scheme, NCPolicy: policy, K: sch.K,
			DiskParams: params, SlotsPerDisk: sch.SlotsPerDisk,
		})
		if err != nil {
			return nil, err
		}
		for rank, title := range titles {
			if !holds(pl, title, nodeID) {
				continue
			}
			c := content[title]
			if err := srv.AddTitle(title, units.ByteSize(len(c)), rank/4, c); err != nil {
				return nil, err
			}
		}
		crc.Nodes = append(crc.Nodes, &NodeRun{
			Index: i, ID: nodeID, State: cluster.StateActive, Srv: srv,
			RC:       &RunContext{Srv: srv, Schedule: sch},
			Checkers: cfg.NewCheckers(),
		})
	}

	r := &runner{crc: crc, hooks: cfg.Hooks}
	res := &RunResult{Nodes: crc.Nodes}
	// violate stamps the breach; prefix names the node a per-node
	// checker (or a node's engine) spoke for.
	violate := func(name, prefix string, err error) *RunResult {
		detail := err.Error()
		if prefix != "" {
			detail = prefix + ": " + detail
		}
		res.Violation = &Violation{Checker: name, Cycle: crc.Cycle, Detail: detail}
		res.Sessions = crc.Sessions
		return res
	}

	for _, nd := range crc.Nodes {
		for _, c := range nd.Checkers {
			if err := c.Begin(nd.RC); err != nil {
				return violate(c.Name(), nd.ID, err), nil
			}
		}
	}
	for _, c := range clusterCheckers {
		if err := c.Begin(crc); err != nil {
			return violate(c.Name(), "", err), nil
		}
	}

	events := append([]Event(nil), sch.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Cycle < events[j].Cycle })
	lastEvent := 0
	if len(events) > 0 {
		lastEvent = events[len(events)-1].Cycle
	}

	next := 0
	reps := make([]*sched.CycleReport, len(crc.Nodes))
	for cycle := 0; cycle < sch.MaxCycles; cycle++ {
		crc.Cycle = cycle
		for _, nd := range crc.Nodes {
			nd.RC.Cycle = cycle
		}
		for ; next < len(events) && events[next].Cycle == cycle; next++ {
			applied, err := r.apply(events[next])
			if err != nil {
				return violate("run-error", "", err), nil
			}
			if !applied {
				continue
			}
			for _, c := range clusterCheckers {
				if obs, ok := c.(ClusterEventObserver); ok {
					if err := obs.OnEvent(crc, events[next]); err != nil {
						return violate(c.Name(), "", err), nil
					}
				}
			}
		}
		for i, nd := range crc.Nodes {
			reps[i] = nil
			if nd.State == cluster.StateDead {
				continue
			}
			rep, err := nd.Srv.Step()
			if err != nil {
				return violate("run-error", nd.ID, err), nil
			}
			reps[i] = rep
		}
		res.Cycles++
		for i, nd := range crc.Nodes {
			if reps[i] == nil {
				continue
			}
			for _, c := range nd.Checkers {
				if err := c.AfterStep(nd.RC, reps[i]); err != nil {
					return violate(c.Name(), nd.ID, err), nil
				}
			}
		}
		for _, c := range clusterCheckers {
			if err := c.AfterStep(crc, reps); err != nil {
				return violate(c.Name(), "", err), nil
			}
		}
		r.advanceLedger(reps)

		if cycle >= lastEvent && r.allIdle() {
			// One drain step per surviving node: an engine holds its last
			// report's buffers until the next Step, and the leak checkers
			// need them released.
			crc.Cycle = cycle + 1
			for _, nd := range crc.Nodes {
				if nd.State == cluster.StateDead {
					continue
				}
				nd.RC.Cycle = cycle + 1
				if _, err := nd.Srv.Step(); err != nil {
					return violate("run-error", nd.ID, err), nil
				}
			}
			res.Cycles++
			crc.Drained = true
			break
		}
	}
	res.Drained = crc.Drained

	for _, nd := range crc.Nodes {
		if nd.State == cluster.StateDead {
			continue // disposable: a killed node's carcass owes nothing
		}
		for _, c := range nd.Checkers {
			if err := c.End(nd.RC); err != nil {
				return violate(c.Name(), nd.ID, err), nil
			}
		}
	}
	for _, c := range clusterCheckers {
		if err := c.End(crc); err != nil {
			return violate(c.Name(), "", err), nil
		}
	}
	res.Sessions = crc.Sessions
	return res, nil
}

func holds(pl *cluster.Placement, title, node string) bool {
	for _, h := range pl.Holders(title) {
		if h == node {
			return true
		}
	}
	return false
}

// allIdle reports whether every surviving node finished its work.
func (r *runner) allIdle() bool {
	for _, nd := range r.crc.Nodes {
		if nd.State == cluster.StateDead {
			continue
		}
		if nd.Srv.Engine().Active() != 0 || nd.Srv.RebuildRemaining() != 0 {
			return false
		}
	}
	return true
}

// candidates returns the nodes that may take a placement for title, in
// the coordinator's routing order (cluster.View.Candidates) over a view
// of the run's nodes loaded with their live sessions.
func (r *runner) candidates(title string) []*NodeRun {
	view := cluster.View{Members: make([]cluster.Member, len(r.crc.Nodes))}
	byID := make(map[string]*NodeRun, len(r.crc.Nodes))
	for i, nd := range r.crc.Nodes {
		view.Members[i] = cluster.Member{ID: nd.ID, State: nd.State}
		byID[nd.ID] = nd
	}
	for _, s := range r.crc.Sessions {
		if s.Node >= 0 {
			view.Members[s.Node].Sessions++
		}
	}
	var out []*NodeRun
	for _, m := range view.Candidates(r.crc.Placement.Holders(title), nil) {
		out = append(out, byID[m.ID])
	}
	return out
}

// session resolves the ordinal a cancel or VCR event addresses; nil
// when the admission was shrunk away (or never succeeded).
func (r *runner) session(ordinal int) *Session {
	if ordinal >= len(r.crc.Sessions) {
		return nil
	}
	return r.crc.Sessions[ordinal]
}

// unseat cancels a live session's engine stream and takes it off its
// node, reporting false when the session holds no live stream (parked,
// gone, or already finished on the engine).
func (r *runner) unseat(ses *Session) bool {
	if ses.Paused || ses.Node < 0 {
		return false
	}
	if err := r.crc.Nodes[ses.Node].Srv.Cancel(ses.SID); err != nil {
		return false // already finished: tolerated
	}
	delete(r.crc.byStream, [2]int{ses.Node, ses.SID})
	ses.Node = -1
	return true
}

// apply is the one place a schedule event meets a server. It performs
// the event best-effort — every subset of a schedule stays runnable, so
// errors are reserved for states no subset of a well-formed schedule
// can reach — and reports whether it took effect. Drive faults are the
// server's to apply (server.Server.Apply), and its drive log is what
// the node's checkers read. A new event kind is one more case here plus
// one in Validate.
func (r *runner) apply(ev Event) (bool, error) {
	crc := r.crc
	switch ev.Kind {
	case EventAdmit:
		for _, nd := range r.candidates(ev.Title) {
			sid, _, err := nd.Srv.Request(ev.Title)
			if err != nil {
				// Rejection (or a staging refusal) is legitimate; the
				// admission checker owns the bound. Try the next holder.
				continue
			}
			ses := &Session{
				Ordinal: len(crc.Sessions), Title: ev.Title,
				Node: nd.Index, SID: sid, Chain: []int{nd.Index},
			}
			crc.Sessions = append(crc.Sessions, ses)
			crc.byStream[[2]int{nd.Index, sid}] = ses
			return true, nil
		}
		return false, nil // no live holder, or all full: tolerated

	case EventFail, EventFailMidCycle, EventRepair, EventRebuild, EventTertiary:
		nd := crc.Nodes[ev.Node]
		if nd.State == cluster.StateDead {
			return false, nil // shard is gone; its drives with it
		}
		applied, err := nd.Srv.Apply(server.Fault{Kind: server.FaultKind(ev.Kind), Drive: ev.Drive, Budget: ev.Budget})
		if err == nil && applied && ev.Kind == EventRepair && r.hooks.AfterRepair != nil {
			err = r.hooks.AfterRepair(nd.Srv, ev.Drive)
		}
		if err != nil {
			return false, fmt.Errorf("chaos: %s of drive %d on %s: %w", ev.Kind, ev.Drive, nd.ID, err)
		}
		return applied, nil

	case EventNodeKill:
		nd := crc.Nodes[ev.Node]
		if nd.State == cluster.StateDead {
			return false, nil
		}
		nd.State = cluster.StateDead
		r.failover(nd)
		return true, nil

	case EventNodeDrain:
		nd := crc.Nodes[ev.Node]
		if nd.State != cluster.StateActive {
			return false, nil
		}
		nd.State = cluster.StateDraining
		return true, nil

	case EventCancel:
		ses := r.session(ev.Stream)
		if ses == nil {
			return false, nil
		}
		if ses.Paused {
			// Hanging up a parked session needs no engine work.
			ses.Paused = false
			ses.Cancelled = true
			return true, nil
		}
		if !r.unseat(ses) {
			return false, nil
		}
		ses.Cancelled = true
		return true, nil

	case EventPause:
		ses := r.session(ev.Stream)
		if ses == nil || ses.Paused || ses.Node < 0 {
			return false, nil
		}
		next, _, ok := crc.Nodes[ses.Node].Srv.StreamProgress(ses.SID)
		if !ok {
			return false, nil // finished on the engine this very cycle
		}
		if !r.unseat(ses) {
			return false, nil
		}
		ses.Paused, ses.PausedNext = true, next
		return true, nil

	case EventVcrResume:
		ses := r.session(ev.Stream)
		if ses == nil || !ses.Paused {
			return false, nil // pause was shrunk away, or resume already ran
		}
		// Every holder may refuse: the viewer stays parked.
		return r.place(ses, ses.PausedNext), nil

	case EventFF:
		ses := r.session(ev.Stream)
		if ses == nil || ses.Paused || ses.Node < 0 {
			return false, nil // parked streams draw nothing; nothing to speed up
		}
		nd := crc.Nodes[ses.Node]
		// Refusals (k′ bound) and engines without rate support both leave
		// the stream at 1x — legitimate, not a harness error.
		if err := nd.Srv.SetStreamRate(ses.SID, ev.Rate); err != nil {
			return false, nil
		}
		return true, nil

	case EventRewind:
		ses := r.session(ev.Stream)
		if ses == nil {
			return false, nil
		}
		target := min(ev.Track, crc.Total-1)
		if ses.Paused {
			ses.PausedNext = target // reposition the parked session
			return true, nil
		}
		if !r.unseat(ses) {
			return false, nil
		}
		if r.place(ses, target) {
			return true, nil
		}
		// Every holder refused the re-admission: park at the target, so
		// the viewer's position survives the refusal.
		ses.Paused, ses.PausedNext = true, target
		return true, nil
	}
	return false, fmt.Errorf("chaos: unknown event kind %q", ev.Kind)
}

// place admits a session's next engine stream at the group floor of
// track at — the shared work of vcr-resume, rewind and failover. It
// reports false when no active holder had capacity (the session is
// untouched).
func (r *runner) place(ses *Session, at int) bool {
	crc := r.crc
	startGroup := at/crc.Width + r.hooks.ResumeGroupOffset
	for _, nd := range r.candidates(ses.Title) {
		sid, _, err := nd.Srv.RequestAt(ses.Title, startGroup)
		if err != nil {
			continue
		}
		ses.Paused = false
		ses.Node, ses.SID = nd.Index, sid
		ses.ResumeFloor = startGroup * crc.Width
		if ses.ResumeFloor > ses.Next {
			// A forward seek: the watermark jumps to the restart floor so
			// later failovers resume from the seek, not the skipped past.
			ses.Next = ses.ResumeFloor
		}
		ses.Chain = append(ses.Chain, nd.Index)
		ses.Resumes++
		crc.byStream[[2]int{nd.Index, sid}] = ses
		return true
	}
	return false
}

// failover moves every session the dead node served onto a surviving
// replica holder, resuming at the group boundary at or before the next
// owed track — the same handoff the network layer's RESUME performs,
// run deterministically in-process.
func (r *runner) failover(dead *NodeRun) {
	crc := r.crc
	for _, ses := range crc.Sessions {
		if ses.Node != dead.Index {
			continue
		}
		delete(crc.byStream, [2]int{ses.Node, ses.SID})
		ses.Node = -1
		switch {
		case ses.Next >= crc.Total:
			// Everything was delivered; only the finish notice died with
			// the node.
			ses.Finished = true
		case !r.place(ses, ses.Next):
			ses.Lost = true
			ses.LostReason = fmt.Sprintf("no surviving holder with capacity for %s after %s died", ses.Title, dead.ID)
		}
	}
}

// advanceLedger folds one cycle's reports into the session ledger:
// delivered and hiccuped tracks advance Next, finish and termination
// notices retire sessions.
func (r *runner) advanceLedger(reps []*sched.CycleReport) {
	crc := r.crc
	tracks := make(map[*Session][]int)
	for i, rep := range reps {
		if rep == nil {
			continue
		}
		for _, d := range rep.Delivered {
			if ses := crc.byStream[[2]int{i, d.StreamID}]; ses != nil {
				tracks[ses] = append(tracks[ses], d.Track)
			}
		}
		for _, h := range rep.Hiccups {
			if ses := crc.byStream[[2]int{i, h.StreamID}]; ses != nil {
				tracks[ses] = append(tracks[ses], h.Track)
			}
		}
	}
	for ses, ts := range tracks {
		sort.Ints(ts)
		for _, t := range ts {
			if t == ses.Next {
				ses.Next++
			}
		}
	}
	for i, rep := range reps {
		if rep == nil {
			continue
		}
		for _, sid := range rep.Finished {
			if ses := crc.byStream[[2]int{i, sid}]; ses != nil {
				ses.Finished = true
				ses.Node = -1
				delete(crc.byStream, [2]int{i, sid})
			}
		}
		for _, sid := range rep.Terminated {
			if ses := crc.byStream[[2]int{i, sid}]; ses != nil {
				ses.Terminated = true
				ses.Node = -1
				delete(crc.byStream, [2]int{i, sid})
			}
		}
	}
}
