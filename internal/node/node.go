// Package node hosts one shard of a multimedia server farm: a cycle
// engine (internal/server) behind the framed network front end
// (internal/netserve), with the title catalog loaded and prestaged and
// an optional HTTP status surface. It is the engine-owning core that
// cmd/ftmmserve wraps — one process (or, in tests, one Node value) is
// one shard, and a cluster is several Nodes behind a coordinator.
//
// Nodes are disposable by design: all state a node holds (its slice of
// the catalog, its admitted streams) can be reconstructed on or shifted
// to another node, so losing one costs at most the sessions that had no
// replica — never the cluster.
package node

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"ftmm/internal/diskmodel"
	"ftmm/internal/netserve"
	"ftmm/internal/server"
	"ftmm/internal/units"
	"ftmm/internal/workload"
)

// Config assembles one node. The zero value is not runnable: Scheme is
// required; everything else has serviceable defaults.
type Config struct {
	// ID is the node's cluster identity (rides in ADMIT-OK, /statusz,
	// heartbeat acks). Empty is fine standalone.
	ID string
	// Scheme names the fault-tolerance scheme: sr, sg, nc, nc-simple,
	// ib, dc.
	Scheme string
	// Farm geometry. Zero values default to 20 drives, C=5, K=2.
	Disks, Cluster, K int
	// Decluster is G, the declustering group size, for the dc scheme
	// (0 = 2·Cluster-1); ignored otherwise. Disks must be a whole
	// number of declustering groups.
	Decluster int
	// Workers is the engine's per-cluster read parallelism (0 =
	// GOMAXPROCS); SlotsPerDisk caps streams per drive (0 = analytic
	// bound).
	Workers, SlotsPerDisk int
	// Titles is the catalog this node serves. In a cluster this is the
	// node's placement slice, not the full library. Nil loads
	// GenTitles synthetic names.
	Titles []string
	// GenTitles/Groups size the default synthetic catalog: GenTitles
	// titles (default 8) of Groups parity groups each (default 20).
	// Groups also sizes titles named through Titles.
	GenTitles, Groups int
	// Addr is the session-protocol listen address ("" = loopback,
	// OS-assigned port). HTTPAddr mounts the status surface when
	// non-empty; "auto" picks a loopback port.
	Addr, HTTPAddr string
	// Clock paces cycles; nil = manual mode (tests drive StepCycle).
	Clock netserve.Clock
	// Front-end tuning, passed through to netserve.
	SendQueue        int
	WriteTimeout     time.Duration
	WriteBufferBytes int
	// BatchCycles holds flash-crowd ADMITs per title for up to this many
	// cycles so same-title arrivals start as one merged cohort (0: off).
	BatchCycles int
	EnablePprof bool
	Logf        func(format string, args ...any)
}

// Node is one running shard: engine + network front end (+ HTTP).
type Node struct {
	cfg  Config
	srv  *server.Server
	ns   *netserve.NetServer
	hs   *http.Server
	hln  net.Listener
	size int // bytes per title
}

// Start builds the farm, loads and prestages the catalog, and begins
// listening.
func Start(cfg Config) (*Node, error) {
	if cfg.Disks == 0 {
		cfg.Disks = 20
	}
	if cfg.Cluster == 0 {
		cfg.Cluster = 5
	}
	if cfg.K == 0 {
		cfg.K = 2
	}
	if cfg.GenTitles == 0 {
		cfg.GenTitles = 8
	}
	if cfg.Groups == 0 {
		cfg.Groups = 20
	}
	if cfg.Titles == nil {
		cfg.Titles = workload.ObjectNames("title", cfg.GenTitles)
	}
	scheme, policy, err := server.ParseScheme(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	p := diskmodel.Table1()
	// Size the farm for the catalog plus staging slack: each title
	// spreads its tracks over all drives, and prestaging needs one
	// title's worth of headroom.
	tracksPerTitle := cfg.Groups * cfg.Cluster
	nTitles := len(cfg.Titles)
	p.Capacity = units.ByteSize((nTitles*cfg.Cluster*tracksPerTitle)/cfg.Disks+tracksPerTitle+50) * p.TrackSize
	srv, err := server.New(server.Options{
		Disks: cfg.Disks, ClusterSize: cfg.Cluster,
		DeclusterGroup: cfg.Decluster,
		DiskParams:     p, Scheme: scheme, K: cfg.K, NCPolicy: policy,
		Workers: cfg.Workers, SlotsPerDisk: cfg.SlotsPerDisk,
	})
	if err != nil {
		return nil, err
	}
	trackSize := int(p.TrackSize)
	size := cfg.Groups * (cfg.Cluster - 1) * trackSize
	for i, id := range cfg.Titles {
		if err := srv.AddTitle(id, units.ByteSize(size), i/4, workload.SyntheticContent(id, size)); err != nil {
			return nil, err
		}
		// Prestage: an admit-and-cancel pulls the title from tape onto
		// the farm now, so later admissions (possibly under a failed
		// drive, when staging writes would be refused) find it resident.
		sid, _, err := srv.Request(id)
		if err != nil {
			return nil, fmt.Errorf("prestaging %s: %w", id, err)
		}
		if err := srv.Cancel(sid); err != nil {
			return nil, err
		}
	}

	ns, err := netserve.New(netserve.Options{
		Server:           srv,
		NodeID:           cfg.ID,
		Addr:             cfg.Addr,
		Clock:            cfg.Clock,
		SendQueue:        cfg.SendQueue,
		WriteTimeout:     cfg.WriteTimeout,
		WriteBufferBytes: cfg.WriteBufferBytes,
		BatchCycles:      cfg.BatchCycles,
		EnablePprof:      cfg.EnablePprof,
		Logf:             cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	n := &Node{cfg: cfg, srv: srv, ns: ns, size: size}
	if cfg.HTTPAddr != "" {
		addr := cfg.HTTPAddr
		if addr == "auto" {
			addr = "127.0.0.1:0"
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			ns.Close()
			return nil, fmt.Errorf("node %s: http listen: %w", cfg.ID, err)
		}
		n.hln = ln
		n.hs = &http.Server{Handler: ns.Handler()}
		go func() {
			if err := n.hs.Serve(ln); err != nil && err != http.ErrServerClosed {
				n.logf("node %s: http: %v", cfg.ID, err)
			}
		}()
	}
	return n, nil
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// ID returns the node's cluster identity.
func (n *Node) ID() string { return n.cfg.ID }

// Addr returns the session-protocol listen address.
func (n *Node) Addr() string { return n.ns.Addr().String() }

// HTTPAddr returns the bound HTTP address, or "" if HTTP is off.
func (n *Node) HTTPAddr() string {
	if n.hln == nil {
		return ""
	}
	return n.hln.Addr().String()
}

// NS exposes the network front end (cycle stepping, drain state,
// fault-injection scheduling).
func (n *Node) NS() *netserve.NetServer { return n.ns }

// Server exposes the cycle engine. Not concurrency-safe — callers must
// not race the front end; prefer NS methods.
func (n *Node) Server() *server.Server { return n.srv }

// Titles returns the catalog this node serves.
func (n *Node) Titles() []string { return append([]string(nil), n.cfg.Titles...) }

// TitleSize returns the byte length of each (synthetic) title.
func (n *Node) TitleSize() int { return n.size }

// Drain stops admissions and waits for live streams to play out.
func (n *Node) Drain(timeout time.Duration) error { return n.ns.Drain(timeout) }

// Close tears the node down hard (no flush; Drain first for grace).
func (n *Node) Close() error {
	if n.hs != nil {
		n.hs.Close()
	}
	return n.ns.Close()
}
