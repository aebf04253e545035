package node

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftmm/internal/cluster"
	"ftmm/internal/netserve"
	"ftmm/internal/trace"
	"ftmm/internal/workload"
)

// clusterRig is three (or so) loopback nodes behind a coordinator, all
// on manual clocks: the test drives every node's transmission cycles
// and the coordinator's heartbeat ticks, so kills and drains land at
// controlled points.
type clusterRig struct {
	t      *testing.T
	titles []string
	nodes  map[string]*Node
	coord  *netserve.Coordinator

	mu       sync.Mutex
	stepping map[string]bool // nodes the stepper still drives
	stop     chan struct{}
	wg       sync.WaitGroup

	groups, width int
}

const rigScheme = "sr"

// startCluster brings up the nodes and coordinator. fullCatalog loads
// every title on every node (placement is pure routing); otherwise each
// node loads exactly its placement slice, so a title is servable only
// where the placement put it.
func startCluster(t *testing.T, nodeIDs []string, nTitles, groups int, plCfg cluster.PlacementConfig, fullCatalog bool) *clusterRig {
	t.Helper()
	titles := workload.ObjectNames("movie", nTitles)
	pl := cluster.Assign(titles, nodeIDs, plCfg)
	rig := &clusterRig{
		t: t, titles: titles,
		nodes:    make(map[string]*Node),
		stepping: make(map[string]bool),
		stop:     make(chan struct{}),
		groups:   groups, width: 3, // Cluster=4 below
	}
	var members []cluster.Member
	for _, id := range nodeIDs {
		catalog := pl.Titles(id)
		if fullCatalog {
			catalog = titles
		}
		n, err := Start(Config{
			ID: id, Scheme: rigScheme,
			Disks: 8, Cluster: 4, K: 2,
			Titles: catalog, Groups: groups,
		})
		if err != nil {
			t.Fatalf("node %s: %v", id, err)
		}
		rig.nodes[id] = n
		rig.stepping[id] = true
		members = append(members, cluster.Member{ID: id, Addr: n.Addr()})
	}
	coord, err := netserve.NewCoordinator(netserve.CoordinatorOptions{
		Nodes:            members,
		Titles:           titles,
		Placement:        plCfg,
		HeartbeatTimeout: 2 * time.Second,
		MissThreshold:    2,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.coord = coord
	coord.Tick() // disseminate view 1, collect initial load
	t.Cleanup(func() {
		close(rig.stop)
		rig.wg.Wait()
		coord.Close()
		for _, n := range rig.nodes {
			n.Close()
		}
	})
	// The stepper drives every live node's cycles continuously; nodes
	// are unhooked (stopStepping) before they are killed.
	rig.wg.Add(1)
	go func() {
		defer rig.wg.Done()
		for {
			select {
			case <-rig.stop:
				return
			default:
			}
			rig.mu.Lock()
			for id, on := range rig.stepping {
				if !on {
					continue
				}
				if err := rig.nodes[id].NS().StepCycle(); err != nil {
					t.Errorf("step %s: %v", id, err)
				}
			}
			rig.mu.Unlock()
			time.Sleep(time.Millisecond)
		}
	}()
	return rig
}

func (r *clusterRig) stopStepping(id string) {
	r.mu.Lock()
	r.stepping[id] = false
	r.mu.Unlock()
}

func (r *clusterRig) coordAddr() string { return r.coord.Addr().String() }

func (r *clusterRig) titleSize() int {
	for _, n := range r.nodes {
		return n.TitleSize()
	}
	return 0
}

// sessionResult is one client's life, possibly spanning nodes.
type sessionResult struct {
	title    string
	tracks   map[int][]byte
	nodes    []string // every node that served us, in order
	resumes  int
	maxJump  int // largest resume rewind (next-needed − StartTrack)
	received atomic.Int64
	err      error
	done     chan struct{}
}

func (s *sessionResult) nextNeeded(total int) int {
	for i := 0; i < total; i++ {
		if _, ok := s.tracks[i]; !ok {
			return i
		}
	}
	return total
}

// runSession admits via the coordinator and consumes to the end,
// failing over with RESUME when the serving node dies mid-stream.
func (r *clusterRig) runSession(title string) *sessionResult {
	res := &sessionResult{title: title, tracks: map[int][]byte{}, done: make(chan struct{})}
	go func() {
		defer close(res.done)
		cl, ok, err := netserve.AdmitVia(r.coordAddr(), title, 20*time.Second)
		if err != nil {
			res.err = fmt.Errorf("admit %s: %w", title, err)
			return
		}
		res.nodes = append(res.nodes, ok.NodeID)
		total := ok.Tracks
		defer func() { cl.Close() }()
		for {
			ev, err := cl.Next()
			if err != nil {
				// The serving node died under us: resume on a replica
				// at the next group boundary, avoiding the lost node.
				cl.Close()
				next := res.nextNeeded(total)
				lost := res.nodes[len(res.nodes)-1]
				cl, ok, err = r.resume(title, next, lost)
				if err != nil {
					res.err = err
					return
				}
				if next-ok.StartTrack >= r.width {
					res.err = fmt.Errorf("%s: resume rewound to %d for next-needed %d (> one group)", title, ok.StartTrack, next)
					return
				}
				if jump := next - ok.StartTrack; jump > res.maxJump {
					res.maxJump = jump
				}
				res.nodes = append(res.nodes, ok.NodeID)
				res.resumes++
				continue
			}
			switch {
			case ev.Bye != nil:
				if ev.Bye.Reason != "finished" {
					res.err = fmt.Errorf("%s: bye %q", title, ev.Bye.Reason)
				}
				return
			case ev.Hiccup != nil:
				res.err = fmt.Errorf("%s: hiccup on healthy farm: %+v", title, *ev.Hiccup)
				return
			default:
				res.tracks[ev.Track] = ev.Data
				res.received.Store(int64(len(res.tracks)))
			}
		}
	}()
	return res
}

// resume retries ResumeVia until the coordinator has noticed the death
// and routed us somewhere alive.
func (r *clusterRig) resume(title string, next int, lost string) (*netserve.Client, netserve.AdmitOK, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		cl, ok, err := netserve.ResumeVia(r.coordAddr(), title, next, []string{lost}, 20*time.Second)
		if err == nil {
			return cl, ok, nil
		}
		if time.Now().After(deadline) {
			return nil, netserve.AdmitOK{}, fmt.Errorf("resume %s from track %d: %w", title, next, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// verify checks full bit-exact coverage of the title.
func (r *clusterRig) verify(res *sessionResult) {
	r.t.Helper()
	if res.err != nil {
		r.t.Errorf("session %s: %v", res.title, res.err)
		return
	}
	size := r.titleSize()
	trackSize := size / (r.groups * r.width)
	content := workload.SyntheticContent(res.title, size)
	total := r.groups * r.width
	for i := 0; i < total; i++ {
		data, ok := res.tracks[i]
		if !ok {
			r.t.Errorf("session %s: track %d never delivered", res.title, i)
			continue
		}
		if err := trace.CheckTrack(content, trackSize, i, data); err != nil {
			r.t.Errorf("session %s: %v", res.title, err)
		}
	}
}

func waitAll(t *testing.T, sessions []*sessionResult, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	for _, s := range sessions {
		select {
		case <-s.done:
		case <-deadline:
			t.Fatalf("session %s still running after %v (%d tracks)", s.title, timeout, s.received.Load())
		}
	}
}

// TestClusterFailoverMidStream is the acceptance test: three nodes,
// every title replicated on two, one node killed mid-stream. Sessions
// on the dead node must fail over to the replica and finish bit-exact
// with at most one parity group of rewind; sessions on survivors must
// never notice.
func TestClusterFailoverMidStream(t *testing.T) {
	rig := startCluster(t, []string{"n0", "n1", "n2"}, 6, 12,
		cluster.PlacementConfig{Seed: 4, Replicas: 2}, false)

	sessions := make([]*sessionResult, len(rig.titles))
	for i, title := range rig.titles {
		sessions[i] = rig.runSession(title)
	}
	// Let every session get solidly mid-stream (a couple of groups in,
	// far from the 120-track end).
	for _, s := range sessions {
		for w := 0; s.received.Load() < int64(2*rig.width); w++ {
			if w > 5000 {
				t.Fatalf("session %s stuck at %d tracks", s.title, s.received.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Kill the node serving the first session.
	victim := sessions[0].nodes[0]
	if victim == "" {
		t.Fatal("no node id in ADMIT-OK")
	}
	before := rig.coord.View()
	rig.stopStepping(victim)
	rig.nodes[victim].Close()
	// Two missed heartbeats declare it dead and bump the view.
	rig.coord.Tick()
	rig.coord.Tick()
	after := rig.coord.View()
	if after.Number <= before.Number {
		t.Fatalf("view did not advance on node death: %d -> %d", before.Number, after.Number)
	}
	if m, ok := after.Member(victim); !ok || m.State != cluster.StateDead {
		t.Fatalf("victim %s not marked dead in %v", victim, after)
	}

	waitAll(t, sessions, 60*time.Second)

	failedOver, survived := 0, 0
	for _, s := range sessions {
		rig.verify(s)
		if s.nodes[0] == victim {
			failedOver++
			if s.resumes == 0 || s.nodes[len(s.nodes)-1] == victim {
				t.Errorf("session %s started on the victim but never failed over (nodes %v)", s.title, s.nodes)
			}
		} else {
			survived++
			if s.resumes != 0 {
				t.Errorf("session %s on survivor %s resumed %d times (nodes %v)", s.title, s.nodes[0], s.resumes, s.nodes)
			}
		}
	}
	if failedOver == 0 {
		t.Fatal("no session was placed on the victim — the kill tested nothing")
	}
	if survived == 0 {
		t.Fatal("every session was on one node — placement is degenerate")
	}
	t.Logf("failover: %d sessions followed the death of %s, %d untouched", failedOver, victim, survived)

	// Dissemination: survivors hold the post-death view.
	rig.coord.Tick()
	for id, n := range rig.nodes {
		if id == victim {
			continue
		}
		v := n.NS().View()
		if v == nil || v.Number < after.Number {
			t.Errorf("node %s holds view %v, want ≥ %d", id, v, after.Number)
		}
	}
}

// TestClusterLiveDrain reconfigures live: a draining node finishes its
// streams (zero drops, zero leaks), leaves the view, and new admissions
// route around it — while the other nodes' streams run on undisturbed.
func TestClusterLiveDrain(t *testing.T) {
	// Replicas: 2 — placement membership is stable across drains, so a
	// title survives its home draining only if a second holder staged it.
	rig := startCluster(t, []string{"n0", "n1", "n2"}, 6, 12,
		cluster.PlacementConfig{Seed: 4, Replicas: 2}, true)

	sessions := make([]*sessionResult, len(rig.titles))
	for i, title := range rig.titles {
		sessions[i] = rig.runSession(title)
	}
	for _, s := range sessions {
		for w := 0; s.received.Load() < int64(2*rig.width); w++ {
			if w > 5000 {
				t.Fatalf("session %s stuck at %d tracks", s.title, s.received.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}

	victim := sessions[0].nodes[0]
	before := rig.coord.View()
	if err := rig.coord.DrainNode(victim); err != nil {
		t.Fatal(err)
	}
	rig.coord.Tick() // push the draining view; the node stops admitting
	if !rig.nodes[victim].NS().Draining() {
		t.Fatalf("node %s did not begin draining on the view push", victim)
	}

	// New sessions must route around the draining node, even for a
	// title it used to home.
	cl, ok, err := netserve.AdmitVia(rig.coordAddr(), rig.titles[0], 20*time.Second)
	if err != nil {
		t.Fatalf("admission during drain: %v", err)
	}
	if ok.NodeID == victim {
		t.Fatalf("admission during drain landed on the draining node %s", victim)
	}
	cl.Close()

	// Every pre-drain stream plays out, including the draining node's.
	waitAll(t, sessions, 60*time.Second)
	for _, s := range sessions {
		rig.verify(s)
		if s.resumes != 0 {
			t.Errorf("session %s resumed during a drain (nodes %v)", s.title, s.nodes)
		}
	}

	// Drain completion: next heartbeat sees the node empty and removes
	// it from the view.
	rig.coord.Tick()
	after := rig.coord.View()
	if _, ok := after.Member(victim); ok {
		t.Fatalf("drained node %s still in %v", victim, after)
	}
	if after.Number <= before.Number {
		t.Fatalf("view did not advance across the drain: %d -> %d", before.Number, after.Number)
	}

	// Zero dropped streams, zero leaks on the drained node.
	n := rig.nodes[victim]
	if !n.NS().Drained() {
		t.Errorf("node %s does not report drained", victim)
	}
	rig.stopStepping(victim)
	eng := n.Server().Engine()
	if eng.Active() != 0 {
		t.Errorf("drained node %s still has %d active streams", victim, eng.Active())
	}
	// One idle cycle releases the engine's refs on its last report's
	// deliveries (a report stays valid until the next Step); only then
	// is a held buffer a leak.
	if err := n.NS().StepCycle(); err != nil {
		t.Fatal(err)
	}
	if out := eng.Arena().Outstanding(); out != 0 {
		t.Errorf("drained node %s leaks %d arena buffers", victim, out)
	}
	if in := eng.BufferInUse(); in != 0 {
		t.Errorf("drained node %s has %d pool tracks in use", victim, in)
	}
}

// TestClusterAddNode joins a node through a view change and checks the
// placement hands it titles — rendezvous hashing moves only what the
// newcomer wins.
func TestClusterAddNode(t *testing.T) {
	plCfg := cluster.PlacementConfig{Seed: 4, Replicas: 1}
	rig := startCluster(t, []string{"n0", "n1"}, 8, 4, plCfg, true)

	titles := rig.titles
	n2, err := Start(Config{ID: "n2", Scheme: rigScheme, Disks: 8, Cluster: 4, K: 2, Titles: titles, Groups: 4})
	if err != nil {
		t.Fatal(err)
	}
	rig.mu.Lock()
	rig.nodes["n2"] = n2
	rig.stepping["n2"] = true
	rig.mu.Unlock()

	before := rig.coord.View()
	if err := rig.coord.AddNode(cluster.Member{ID: "n2", Addr: n2.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := rig.coord.AddNode(cluster.Member{ID: "n2", Addr: n2.Addr()}); err == nil {
		t.Fatal("duplicate AddNode accepted")
	}
	after := rig.coord.View()
	if after.Number <= before.Number {
		t.Fatalf("view did not advance on add: %d -> %d", before.Number, after.Number)
	}
	if after.Placement["n2"] == 0 {
		t.Fatalf("new node attracted no titles: %v", after.Placement)
	}

	// Only titles the newcomer won changed homes — everything else
	// stays, which is the minimal-rebalance property end to end.
	oldPl := cluster.Assign(titles, []string{"n0", "n1"}, plCfg)
	newPl := cluster.Assign(titles, []string{"n0", "n1", "n2"}, plCfg)
	for _, title := range titles {
		oldHome, newHome := oldPl.Holders(title)[0], newPl.Holders(title)[0]
		if newHome != oldHome && newHome != "n2" {
			t.Errorf("title %s moved %s -> %s on an unrelated add", title, oldHome, newHome)
		}
	}

	// An admission for a title the newcomer now homes lands there.
	var won string
	for _, title := range titles {
		if newPl.Holders(title)[0] == "n2" {
			won = title
			break
		}
	}
	if won == "" {
		t.Fatal("placement counts n2 titles but none homed there")
	}
	rig.coord.Tick() // refresh load so tie-break favors preference order
	cl, ok, err := netserve.AdmitVia(rig.coordAddr(), won, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if ok.NodeID != "n2" {
		t.Errorf("title %s admitted on %s, want the new home n2", won, ok.NodeID)
	}
}

// TestCoordinatorRejects pins the coordinator's refusal shapes.
func TestCoordinatorRejects(t *testing.T) {
	rig := startCluster(t, []string{"n0", "n1"}, 4, 4,
		cluster.PlacementConfig{Seed: 1, Replicas: 1}, true)

	if _, _, err := netserve.AdmitVia(rig.coordAddr(), "no-such-title", 5*time.Second); err == nil {
		t.Fatal("unknown title admitted")
	} else {
		var rej *netserve.RejectedError
		if !errors.As(err, &rej) {
			t.Fatalf("unknown title returned %v, want *RejectedError", err)
		}
	}

	// A title whose only holder is avoided has no live holder.
	title := rig.titles[0]
	pl := cluster.Assign(rig.titles, []string{"n0", "n1"}, cluster.PlacementConfig{Seed: 1, Replicas: 1})
	home := pl.Holders(title)[0]
	_, _, err := netserve.ResumeVia(rig.coordAddr(), title, 3, []string{home}, 5*time.Second)
	var rej *netserve.RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("resume avoiding the only holder returned %v, want *RejectedError", err)
	}
}
