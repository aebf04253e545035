// Package cluster shards the server farm across nodes behind one
// admission plane: a deterministic placement map routes titles to
// nodes (with extra replicas for the Zipf head), a membership view with
// monotonic view numbers names who is serving, and a thin coordinator
// answers HELLO/ADMIT/RESUME with REDIRECTs, detects node failure by
// heartbeat, fails sessions over to replica nodes, and reconfigures
// live — a node can be added or drained through a view change without
// dropping streams on the survivors. Nodes are disposable: losing one
// loses at most that node's unreplicated streams.
package cluster

import (
	"fmt"
	"slices"
	"sort"
)

// MemberState is a node's standing in the current view.
type MemberState string

const (
	// StateActive nodes serve sessions and receive new placements.
	StateActive MemberState = "active"
	// StateDraining nodes finish their current sessions but receive no
	// new placements; once empty they leave the view (live drain).
	StateDraining MemberState = "draining"
	// StateDead nodes failed their heartbeats; their sessions fail over
	// to replicas, and they receive no placements.
	StateDead MemberState = "dead"
)

// Member is one node of the cluster as a view records it.
type Member struct {
	ID string `json:"id"`
	// Addr is the node's framed-session address; HTTPAddr its status
	// surface (may be empty).
	Addr     string      `json:"addr"`
	HTTPAddr string      `json:"http_addr,omitempty"`
	State    MemberState `json:"state"`
	// Sessions and Active are the node's last heartbeat-reported load
	// (connected sessions / live engine streams).
	Sessions int `json:"sessions"`
	Active   int `json:"active"`
}

// View is one membership epoch. Views are totally ordered by Number:
// every membership change (add, drain, death, removal) produces a new
// view with a strictly larger number, so any two observers agree on
// which of two views is fresher.
type View struct {
	Number  int64    `json:"number"`
	Members []Member `json:"members"`
	// Placement summarizes the routing map at this view: titles served
	// per node (replicas counted on every holder). Informational — the
	// coordinator owns the authoritative map.
	Placement map[string]int `json:"placement,omitempty"`
}

// Clone deep-copies the view.
func (v *View) Clone() *View {
	out := &View{Number: v.Number, Members: append([]Member(nil), v.Members...)}
	if v.Placement != nil {
		out.Placement = make(map[string]int, len(v.Placement))
		for k, n := range v.Placement {
			out.Placement[k] = n
		}
	}
	return out
}

// Member returns the member with the given ID, if present.
func (v *View) Member(id string) (Member, bool) {
	for _, m := range v.Members {
		if m.ID == id {
			return m, true
		}
	}
	return Member{}, false
}

// Candidates returns the members that may take a session of a title
// whose placement is holders (home first): active members not named in
// avoid, least-loaded by Sessions first, placement rank breaking ties so
// the home node wins when the cluster idles. The coordinator redirects
// to the first; the chaos runner tries them in order.
func (v *View) Candidates(holders, avoid []string) []Member {
	var out []Member
	for _, id := range holders {
		if slices.Contains(avoid, id) {
			continue
		}
		if m, ok := v.Member(id); ok && m.State == StateActive {
			out = append(out, m)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Sessions < out[j].Sessions })
	return out
}

// String renders a compact one-line view description.
func (v *View) String() string {
	s := fmt.Sprintf("view %d:", v.Number)
	for _, m := range v.Members {
		s += fmt.Sprintf(" %s(%s)", m.ID, m.State)
	}
	return s
}
