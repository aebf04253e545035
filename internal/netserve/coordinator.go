package netserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"ftmm/internal/cluster"
)

// Coordinator defaults.
const (
	defaultHeartbeatTimeout = 5 * time.Second
	defaultMissThreshold    = 3
	redirectHopLimit        = 4
)

// CoordinatorOptions configures the cluster admission plane.
type CoordinatorOptions struct {
	// Addr is the coordinator's session-protocol listen address; empty
	// means loopback with an OS-assigned port.
	Addr string
	// Nodes is the initial membership: ID and Addr are required,
	// HTTPAddr optional. All start active.
	Nodes []cluster.Member
	// Titles is the full catalog in popularity-rank order (the Zipf
	// head comes first); Placement tunes how it spreads across nodes.
	Titles    []string
	Placement cluster.PlacementConfig
	// HeartbeatInterval paces the failure detector; 0 selects manual
	// mode (tests call Tick). HeartbeatTimeout bounds one heartbeat
	// round-trip; MissThreshold consecutive misses declare a node dead.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	MissThreshold     int
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// Coordinator routes admissions across a sharded cluster: HELLO/ADMIT
// and RESUME get a REDIRECT to the right node by placement, heartbeats
// push membership views to nodes and collect their load, missed
// heartbeats declare nodes dead (bumping the view), and add/drain
// reconfigure the cluster live — surviving nodes' streams never stop.
//
// The coordinator holds no stream state. Session failover is
// client-driven: a client that loses its node asks RESUME here, names
// the node it lost in Avoid, and is redirected to a surviving holder of
// its title, resuming at the next parity-group boundary.
type Coordinator struct {
	opts CoordinatorOptions
	ln   net.Listener

	mu        sync.Mutex
	view      *cluster.View
	placement *cluster.Placement
	// placeIDs is the placement membership: every node ever configured
	// or added, dead or not. Placement is computed over this stable set
	// and never reshuffled by a death or drain — a dead node's titles
	// keep their surviving replica holders (routing just filters the
	// dead), instead of migrating to nodes that never staged them.
	// Rendezvous hashing makes additions minimal for the same reason.
	placeIDs []string
	misses   map[string]int
	conns    map[string]net.Conn // persistent heartbeat channels

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewCoordinator starts the admission plane: view number 1 over the
// configured nodes, placement assigned, listener up. With a heartbeat
// interval the failure detector runs on its own goroutine; without one
// the owner calls Tick.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	if len(opts.Nodes) == 0 {
		return nil, errors.New("netserve: coordinator needs at least one node")
	}
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = defaultHeartbeatTimeout
	}
	if opts.MissThreshold <= 0 {
		opts.MissThreshold = defaultMissThreshold
	}
	addr := opts.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netserve: coordinator listen: %w", err)
	}
	c := &Coordinator{
		opts:   opts,
		ln:     ln,
		view:   &cluster.View{Number: 1},
		misses: make(map[string]int),
		conns:  make(map[string]net.Conn),
		stop:   make(chan struct{}),
	}
	for _, m := range opts.Nodes {
		m.State = cluster.StateActive
		c.view.Members = append(c.view.Members, m)
		c.placeIDs = append(c.placeIDs, m.ID)
	}
	// No other goroutine sees c yet; the lock keeps reassignLocked's
	// contract checkable by name (TestLockedCallersHoldTheLock).
	c.mu.Lock()
	c.reassignLocked()
	c.mu.Unlock()
	c.wg.Add(1)
	go c.acceptLoop()
	if opts.HeartbeatInterval > 0 {
		c.wg.Add(1)
		go c.heartbeatLoop()
	}
	return c, nil
}

// Addr returns the coordinator's bound session-protocol address.
func (c *Coordinator) Addr() net.Addr { return c.ln.Addr() }

// View returns a copy of the current membership view.
func (c *Coordinator) View() *cluster.View {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.view.Clone()
}

// Close stops the listener, the detector, and every heartbeat channel.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	select {
	case <-c.stop:
		c.mu.Unlock()
		return nil
	default:
	}
	close(c.stop)
	err := c.ln.Close()
	for id, conn := range c.conns {
		conn.Close()
		delete(c.conns, id)
	}
	c.mu.Unlock()
	c.wg.Wait()
	return err
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// ---- membership changes ----

// reassignLocked recomputes placement over the stable placement
// membership (see placeIDs) and stamps the summary into the view. The
// summary counts titles as placed, including ones whose holder is
// currently dead — routing, not placement, owns liveness.
func (c *Coordinator) reassignLocked() {
	c.placement = cluster.Assign(c.opts.Titles, c.placeIDs, c.opts.Placement)
	c.view.Placement = c.placement.Counts()
}

// bumpLocked starts the next view epoch after a membership change.
func (c *Coordinator) bumpLocked() {
	c.view.Number++
	c.reassignLocked()
	c.logf("netserve: %v", c.view)
}

// AddNode joins a node to the cluster through a view change: it becomes
// active, placement is recomputed (rendezvous hashing moves only the
// titles the newcomer now owns), and the next heartbeat round
// disseminates the new view. The node should already be serving the
// titles the new placement gives it.
func (c *Coordinator) AddNode(m cluster.Member) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.view.Member(m.ID); ok {
		return fmt.Errorf("netserve: node %s already in view", m.ID)
	}
	m.State = cluster.StateActive
	c.view.Members = append(c.view.Members, m)
	if !slices.Contains(c.placeIDs, m.ID) {
		c.placeIDs = append(c.placeIDs, m.ID)
	}
	c.bumpLocked()
	return nil
}

// DrainNode starts a live drain: routing stops sending new sessions to
// the node now, but it keeps serving its streams; once its heartbeat
// reports zero sessions it is removed from the view. Its placement
// entries stay (other holders of the same titles keep serving them),
// and streams on other nodes never notice.
func (c *Coordinator) DrainNode(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.setStateLocked(id, cluster.StateDraining)
}

// RemoveNode drops a node from the view immediately (the hard version
// of drain; its sessions are on their own).
func (c *Coordinator) RemoveNode(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.view.Member(id); !ok {
		return fmt.Errorf("netserve: node %s not in view", id)
	}
	c.removeLocked(id)
	c.bumpLocked()
	return nil
}

func (c *Coordinator) setStateLocked(id string, st cluster.MemberState) error {
	for i := range c.view.Members {
		if c.view.Members[i].ID == id {
			if c.view.Members[i].State == st {
				return nil
			}
			c.view.Members[i].State = st
			c.bumpLocked()
			return nil
		}
	}
	return fmt.Errorf("netserve: node %s not in view", id)
}

func (c *Coordinator) removeLocked(id string) {
	kept := c.view.Members[:0]
	for _, m := range c.view.Members {
		if m.ID != id {
			kept = append(kept, m)
		}
	}
	c.view.Members = kept
	delete(c.misses, id)
	if conn, ok := c.conns[id]; ok {
		conn.Close()
		delete(c.conns, id)
	}
}

// ---- failure detection / view dissemination ----

func (c *Coordinator) heartbeatLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.Tick()
		}
	}
}

// Tick runs one heartbeat round: push the current view to every member
// still serving, all at once so a member that never answers costs the
// round one HeartbeatTimeout and the others none, fold their load
// reports into the view, count misses, and apply the consequences —
// MissThreshold consecutive misses mark a node dead (view change); a
// draining node reporting empty is removed (drain complete, view change).
func (c *Coordinator) Tick() {
	c.mu.Lock()
	members := append([]cluster.Member(nil), c.view.Members...)
	view := c.view.Clone()
	c.mu.Unlock()

	type result struct {
		id  string
		ack ViewAck
		err error
	}
	live := slices.DeleteFunc(members, func(m cluster.Member) bool { return m.State == cluster.StateDead })
	results := make([]result, len(live))
	var wg sync.WaitGroup
	for i, m := range live {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ack, err := c.heartbeat(m, view)
			results[i] = result{m.ID, ack, err}
		}()
	}
	wg.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	changed := false
	for _, r := range results {
		m, ok := c.view.Member(r.id)
		if !ok || m.State == cluster.StateDead {
			continue // removed or declared dead while we were on the wire
		}
		if r.err != nil {
			c.misses[r.id]++
			c.logf("netserve: heartbeat %s miss %d/%d: %v", r.id, c.misses[r.id], c.opts.MissThreshold, r.err)
			if c.misses[r.id] >= c.opts.MissThreshold {
				c.logf("netserve: node %s dead", r.id)
				for i := range c.view.Members {
					if c.view.Members[i].ID == r.id {
						c.view.Members[i].State = cluster.StateDead
					}
				}
				changed = true
			}
			continue
		}
		c.misses[r.id] = 0
		for i := range c.view.Members {
			if c.view.Members[i].ID == r.id {
				c.view.Members[i].Sessions = r.ack.Sessions
				c.view.Members[i].Active = r.ack.Active
			}
		}
		if m.State == cluster.StateDraining && r.ack.Sessions == 0 && r.ack.Active == 0 {
			c.logf("netserve: node %s drained, leaving view", r.id)
			c.removeLocked(r.id)
			changed = true
		}
	}
	if changed {
		c.bumpLocked()
	}
}

// heartbeat pushes a view to one node over its persistent channel
// (dialing on first use or after an error) and reads the load ack.
func (c *Coordinator) heartbeat(m cluster.Member, view *cluster.View) (ViewAck, error) {
	conn, err := c.heartbeatConn(m)
	if err != nil {
		return ViewAck{}, err
	}
	drop := func(err error) (ViewAck, error) {
		c.mu.Lock()
		if c.conns[m.ID] == conn {
			delete(c.conns, m.ID)
		}
		c.mu.Unlock()
		conn.Close()
		return ViewAck{}, err
	}
	conn.SetDeadline(time.Now().Add(c.opts.HeartbeatTimeout))
	if err := writeJSONFrame(conn, frameView, view); err != nil {
		return drop(err)
	}
	typ, payload, err := readFrame(conn)
	if err != nil {
		return drop(err)
	}
	if typ != frameView {
		return drop(fmt.Errorf("unexpected frame 0x%02x to VIEW", typ))
	}
	var ack ViewAck
	if err := json.Unmarshal(payload, &ack); err != nil {
		return drop(err)
	}
	conn.SetDeadline(time.Time{})
	return ack, nil
}

// heartbeatConn returns the node's persistent channel, performing the
// HELLO exchange on first dial.
func (c *Coordinator) heartbeatConn(m cluster.Member) (net.Conn, error) {
	c.mu.Lock()
	conn := c.conns[m.ID]
	c.mu.Unlock()
	if conn != nil {
		return conn, nil
	}
	conn, err := net.DialTimeout("tcp", m.Addr, c.opts.HeartbeatTimeout)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(c.opts.HeartbeatTimeout))
	if err := writeFrame(conn, frameHello, []byte(protocolMagic)); err != nil {
		conn.Close()
		return nil, err
	}
	typ, payload, err := readFrame(conn)
	if err != nil || typ != frameHello || string(payload) != protocolMagic {
		conn.Close()
		return nil, fmt.Errorf("bad HELLO from %s", m.Addr)
	}
	conn.SetDeadline(time.Time{})
	c.mu.Lock()
	c.conns[m.ID] = conn
	c.mu.Unlock()
	return conn, nil
}

// ---- admission routing ----

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			select {
			case <-c.stop:
			default:
				c.logf("netserve: coordinator accept: %v", err)
			}
			return
		}
		c.wg.Add(1)
		go c.handleConn(conn)
	}
}

// handleConn answers one routing request: HELLO, then ADMIT or RESUME
// gets a REDIRECT (or REJECT), VIEW gets the membership view. The
// connection closes after the answer — sessions live on nodes, never
// here.
func (c *Coordinator) handleConn(conn net.Conn) {
	defer c.wg.Done()
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(helloTimeout))
	typ, payload, err := readFrame(conn)
	if err != nil || typ != frameHello || string(payload) != protocolMagic {
		return
	}
	if err := writeFrame(conn, frameHello, []byte(protocolMagic)); err != nil {
		return
	}
	typ, payload, err = readFrame(conn)
	if err != nil {
		return
	}
	switch typ {
	case frameAdmit:
		c.route(conn, string(payload), nil)
	case frameResume:
		var req ResumeReq
		if err := json.Unmarshal(payload, &req); err != nil {
			return
		}
		c.route(conn, req.Title, req.Avoid)
	case frameView:
		_ = writeJSONFrame(conn, frameView, c.View())
	}
}

// route redirects the client to the first of the view's candidates for
// the title (excluding avoid): least-loaded by last reported sessions.
// No live holder is a REJECT — permanent when the title's nodes are
// gone, transient (Retry-After) when they are merely
// mid-reconfiguration.
func (c *Coordinator) route(conn net.Conn, title string, avoid []string) {
	c.mu.Lock()
	holders := c.placement.Holders(title)
	candidates := c.view.Candidates(holders, avoid)
	c.mu.Unlock()
	if len(holders) == 0 {
		_ = writeJSONFrame(conn, frameReject, Reject{Reason: "unknown title"})
		return
	}
	if len(candidates) == 0 {
		_ = writeJSONFrame(conn, frameReject, Reject{Reason: "no live holder for title"})
		return
	}
	pick := candidates[0]
	_ = writeJSONFrame(conn, frameRedirect, Redirect{NodeID: pick.ID, Addr: pick.Addr})
}

// ---- HTTP admin surface ----

// Handler returns the coordinator's HTTP surface:
//
//	GET  /statusz  — view number, member states, placement summary
//	GET  /viewz    — the membership view (JSON)
//	GET  /titlesz  — the full catalog (JSON array; lets ftmmload point
//	     its -http probe at the coordinator unchanged)
//	POST /clusterz/add?id=N&addr=A[&http=H] — join a node (view change)
//	POST /clusterz/drain?id=N — live-drain a node
//	POST /clusterz/remove?id=N — hard-remove a node
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		v := c.View()
		writeHTTPJSON(w, map[string]any{
			"role":        "coordinator",
			"view_number": v.Number,
			"members":     v.Members,
			"placement":   v.Placement,
		})
	})
	mux.HandleFunc("/viewz", func(w http.ResponseWriter, r *http.Request) {
		writeHTTPJSON(w, c.View())
	})
	mux.HandleFunc("/titlesz", func(w http.ResponseWriter, r *http.Request) {
		writeHTTPJSON(w, c.opts.Titles)
	})
	mux.HandleFunc("/clusterz/add", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		id, addr := r.URL.Query().Get("id"), r.URL.Query().Get("addr")
		if id == "" || addr == "" {
			http.Error(w, "missing id or addr", http.StatusBadRequest)
			return
		}
		m := cluster.Member{ID: id, Addr: addr, HTTPAddr: r.URL.Query().Get("http")}
		if err := c.AddNode(m); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/clusterz/drain", c.stateHandler(c.DrainNode))
	mux.HandleFunc("/clusterz/remove", c.stateHandler(c.RemoveNode))
	return mux
}

func (c *Coordinator) stateHandler(f func(string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		id := r.URL.Query().Get("id")
		if id == "" {
			http.Error(w, "missing id", http.StatusBadRequest)
			return
		}
		if err := f(id); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}
}

// ---- cluster-aware client entry points ----

// AdmitVia asks the coordinator (or any node) for the title and follows
// redirects to the serving node. On success the returned Client is
// connected to the node that admitted the stream.
func AdmitVia(addr, title string, readTimeout time.Duration) (*Client, AdmitOK, error) {
	return followRedirects(addr, readTimeout, func(cl *Client) (AdmitOK, error) {
		return cl.Admit(title)
	})
}

// ResumeVia asks the coordinator for a mid-title session — the failover
// path: avoid names the node(s) the client lost, nextTrack the first
// track it still needs. The stream lands on a surviving holder at the
// enclosing parity-group boundary (AdmitOK.StartTrack).
func ResumeVia(addr, title string, nextTrack int, avoid []string, readTimeout time.Duration) (*Client, AdmitOK, error) {
	return followRedirects(addr, readTimeout, func(cl *Client) (AdmitOK, error) {
		return cl.Resume(title, nextTrack, avoid)
	})
}

func followRedirects(addr string, readTimeout time.Duration, ask func(*Client) (AdmitOK, error)) (*Client, AdmitOK, error) {
	for hop := 0; hop < redirectHopLimit; hop++ {
		cl, err := Dial(addr, readTimeout)
		if err != nil {
			return nil, AdmitOK{}, err
		}
		ok, err := ask(cl)
		if err == nil {
			return cl, ok, nil
		}
		cl.Close()
		var rd *RedirectedError
		if !errors.As(err, &rd) {
			return nil, AdmitOK{}, err
		}
		addr = rd.Redirect.Addr
	}
	return nil, AdmitOK{}, fmt.Errorf("netserve: redirect loop after %d hops", redirectHopLimit)
}
