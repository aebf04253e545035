package netserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"ftmm/internal/server"
)

// status is the /statusz document.
type status struct {
	Scheme     string `json:"scheme"`
	Cycle      int    `json:"cycle"`
	CycleNanos int64  `json:"cycle_ns"`
	Burst      int    `json:"burst"`
	Sessions   int    `json:"sessions"`
	Active     int    `json:"active_streams"`
	Draining   bool   `json:"draining"`
	TrackSize  int    `json:"track_size"`
	Titles     int    `json:"titles"`
	// Cluster identity; zero values standalone.
	NodeID     string         `json:"node_id,omitempty"`
	ViewNumber int64          `json:"view_number,omitempty"`
	Placement  map[string]int `json:"placement,omitempty"`
}

// Handler returns the HTTP control surface:
//
//	GET  /statusz  — scheme, cycle, sessions, drain state, and (in a
//	     cluster) node identity, view number, placement summary (JSON)
//	GET  /metricsz — the full metrics registry (JSON, stable key order)
//	GET  /cyclez   — the last 64 paced cycles, oldest first: cycle
//	     number, start lateness, Step, stage and slack µs, live sessions
//	     (JSON array; empty in manual mode)
//	GET  /titlesz  — the catalog of admittable titles (JSON array)
//	GET  /viewz    — the membership view this node holds (JSON; 404
//	     standalone)
//	POST /admitz?title=T — admission probe: stages the title and checks
//	     capacity, then immediately releases the slot. 204 on success,
//	     503 + Retry-After when the farm is full, 404 for unknown
//	     titles.
//
// With Options.EnablePprof the standard /debug/pprof/ profiling
// endpoints are mounted too (opt-in; see the option's doc).
func (ns *NetServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/statusz", ns.handleStatus)
	mux.HandleFunc("/metricsz", ns.handleMetrics)
	mux.HandleFunc("/cyclez", ns.handleCycles)
	mux.HandleFunc("/titlesz", ns.handleTitles)
	mux.HandleFunc("/admitz", ns.handleAdmit)
	mux.HandleFunc("/viewz", ns.handleView)
	if ns.opts.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (ns *NetServer) handleStatus(w http.ResponseWriter, r *http.Request) {
	ns.mu.Lock()
	st := status{
		Scheme:     ns.srv.Engine().Name(),
		Cycle:      ns.srv.Engine().Cycle(),
		CycleNanos: ns.cycleTime.Nanoseconds(),
		Burst:      ns.burst,
		Sessions:   len(ns.sessions),
		Active:     ns.srv.Engine().Active(),
		Draining:   ns.draining,
		TrackSize:  ns.trackSize,
		Titles:     ns.srv.Library().Objects(),
		NodeID:     ns.opts.NodeID,
	}
	if ns.view != nil {
		st.ViewNumber = ns.view.Number
		st.Placement = ns.view.Placement
	}
	ns.mu.Unlock()
	writeHTTPJSON(w, st)
}

// handleView serves the membership view this node currently holds.
func (ns *NetServer) handleView(w http.ResponseWriter, r *http.Request) {
	v := ns.View()
	if v == nil {
		http.Error(w, "no view installed (standalone)", http.StatusNotFound)
		return
	}
	writeHTTPJSON(w, v)
}

func (ns *NetServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := ns.srv.MetricsSnapshot()
	w.Header().Set("Content-Type", "application/json")
	if err := snap.WriteJSON(w); err != nil {
		// Headers are gone; nothing more to do than note it.
		ns.logf("netserve: /metricsz: %v", err)
	}
}

func (ns *NetServer) handleCycles(w http.ResponseWriter, r *http.Request) {
	writeHTTPJSON(w, ns.recentCycles())
}

func (ns *NetServer) handleTitles(w http.ResponseWriter, r *http.Request) {
	writeHTTPJSON(w, ns.srv.Library().IDs())
}

// handleAdmit answers "would a session for this title be admitted right
// now?" by actually admitting and immediately cancelling. The probe has
// the side effect of staging the title to disk, which makes it a useful
// prefetch before a real session.
func (ns *NetServer) handleAdmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	title := r.URL.Query().Get("title")
	if title == "" {
		http.Error(w, "missing title parameter", http.StatusBadRequest)
		return
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.closed || ns.draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	id, _, err := ns.srv.Request(title)
	switch {
	case err == nil:
		_ = ns.srv.Cancel(id)
		w.WriteHeader(http.StatusNoContent)
	case isNotFound(err):
		http.Error(w, err.Error(), http.StatusNotFound)
	default:
		retry := ns.cycleTime.Seconds()
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(int(retry)))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	}
}

func isNotFound(err error) bool {
	// Admission failures wrap server.ErrRejected; anything else (unknown
	// title, staging trouble) is the client's fault or permanent.
	return !errors.Is(err, server.ErrRejected)
}

func writeHTTPJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(w, "{}")
	}
}
