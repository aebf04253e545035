// Command ftmmserve runs one process of a fault-tolerant multimedia
// service. It has two modes:
//
// Node mode (default) hosts one shard of the server farm behind the
// framed session protocol (a thin wrapper over internal/node): clients
// connect over TCP, an HTTP surface answers admission probes and
// serves status/metrics, and an optional failure schedule injects
// drive faults mid-run. With -peers the node computes its slice of the
// catalog with the same deterministic rendezvous placement the
// coordinator uses, so the two agree without talking.
//
// Coordinator mode (-coordinator) runs the cluster admission plane:
// ADMIT/RESUME requests are redirected to the right node by placement,
// heartbeats disseminate membership views and detect node death, and
// /clusterz endpoints add, drain, or remove nodes live.
//
// Examples:
//
//	# standalone server
//	ftmmserve -scheme sr -addr :5500 -http :5580
//
//	# one node of a 3-node cluster (its catalog slice is computed
//	# from -peers; the same placement flags must be given everywhere)
//	ftmmserve -id node0 -addr :5500 -http :5580 -peers node0,node1,node2
//
//	# the admission plane over those nodes
//	ftmmserve -coordinator -addr :5590 -http :5591 \
//	          -nodes node0=127.0.0.1:5500/127.0.0.1:5580,node1=...
//
// The pacer runs on a wall clock divided by -speed; -speed 0 selects
// the virtual clock (cycles run back to back, for load tests). SIGINT
// drains gracefully: admissions stop, live streams play out, then the
// process exits. A second SIGINT exits immediately.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ftmm/internal/cluster"
	"ftmm/internal/netserve"
	"ftmm/internal/node"
	"ftmm/internal/workload"
)

var (
	addr       = flag.String("addr", "127.0.0.1:5500", "TCP listen address for the session protocol")
	httpAddr   = flag.String("http", "127.0.0.1:5580", "HTTP listen address for /statusz /metricsz /titlesz /admitz /viewz (empty: disabled)")
	schemeFlag = flag.String("scheme", "sr", "fault-tolerance scheme: sr, sg, nc, nc-simple, ib, dc")
	disks      = flag.Int("disks", 20, "number of drives")
	clusterSz  = flag.Int("cluster", 5, "cluster (parity group) size C")
	decluster  = flag.Int("decluster", 0, "declustering group size G for -scheme dc (0 = 2C-1)")
	k          = flag.Int("k", 2, "reserve depth (buffer servers / reserved bandwidth)")
	titles     = flag.Int("titles", 8, "titles in the tape library (full catalog, popularity order)")
	groups     = flag.Int("groups", 20, "parity groups per title")
	workers    = flag.Int("workers", 0, "engine per-cluster worker goroutines (0 = GOMAXPROCS)")
	speed      = flag.Float64("speed", 1, "wall-clock speedup for the pacer (0: virtual clock, cycles back to back)")
	queue      = flag.Int("queue", 64, "per-session send queue depth in bursts (overflow sheds the client)")
	batchCyc   = flag.Int("batch-cycles", 0, "hold flash-crowd ADMITs per title for up to this many cycles so same-title arrivals share one staged read (0: off)")
	writeTO    = flag.Duration("write-timeout", 10*time.Second, "per-burst socket write stall limit (timer-wheel supervised)")
	pprofFlag  = flag.Bool("pprof", false, "mount /debug/pprof profiling handlers on the HTTP surface")
	drainTO    = flag.Duration("drain-timeout", time.Minute, "how long to wait for streams to play out on shutdown")

	// Cluster identity and placement. The placement flags must match
	// across every node and the coordinator — the rendezvous hash is the
	// only agreement protocol.
	nodeID    = flag.String("id", "", "this node's cluster identity (rides in ADMIT-OK and /statusz)")
	peers     = flag.String("peers", "", "comma-separated node IDs of the whole cluster; set to serve only this node's placement slice")
	replicas  = flag.Int("replicas", 2, "placement copies of a cold title")
	hotReps   = flag.Int("hot-replicas", 3, "placement copies of a hot title")
	hotTitles = flag.Int("hot-titles", 2, "size of the Zipf head that gets -hot-replicas copies")
	placeSeed = flag.Int64("placement-seed", 1, "rendezvous placement seed")

	// Coordinator mode.
	coordMode = flag.Bool("coordinator", false, "run the cluster admission plane instead of a node")
	nodesFlag = flag.String("nodes", "", "coordinator membership: id=addr[/httpaddr],... (required with -coordinator)")
	heartbeat = flag.Duration("heartbeat", time.Second, "coordinator heartbeat interval")
	hbTimeout = flag.Duration("heartbeat-timeout", 2*time.Second, "per-heartbeat round-trip limit")
	hbMisses  = flag.Int("miss-threshold", 3, "consecutive heartbeat misses that declare a node dead")

	// Single-drive failure schedule (node mode).
	failDisk      = flag.Int("fail-disk", -1, "drive to fail (-1: none)")
	failCycle     = flag.Int("fail-cycle", 20, "cycle at which the drive fails")
	repairCycle   = flag.Int("repair-cycle", -1, "cycle at which the drive is repaired offline (-1: never)")
	rebuildCycle  = flag.Int("rebuild-cycle", -1, "cycle at which an online rebuild starts (-1: never)")
	rebuildBudget = flag.Int("rebuild-budget", 2, "spare reads per cycle for the online rebuild")
)

func main() {
	flag.Parse()
	var err error
	if *coordMode {
		err = runCoordinator()
	} else {
		err = runNode()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftmmserve:", err)
		os.Exit(1)
	}
}

func placementConfig() cluster.PlacementConfig {
	return cluster.PlacementConfig{
		Seed:        *placeSeed,
		Replicas:    *replicas,
		HotReplicas: *hotReps,
		HotTitles:   *hotTitles,
	}
}

// catalog is the full library in popularity-rank order; both modes
// derive it from the same flags so placement agrees.
func catalog() []string { return workload.ObjectNames("title", *titles) }

// ---- node mode ----

func runNode() error {
	var clock netserve.Clock
	if *speed > 0 {
		clock = netserve.WallClock(*speed)
	} else {
		clock = netserve.VirtualClock()
	}
	cfg := node.Config{
		ID:     *nodeID,
		Scheme: *schemeFlag,
		Disks:  *disks, Cluster: *clusterSz, K: *k,
		Decluster:    *decluster,
		Workers:      *workers,
		GenTitles:    *titles,
		Groups:       *groups,
		Addr:         *addr,
		HTTPAddr:     *httpAddr,
		Clock:        clock,
		SendQueue:    *queue,
		BatchCycles:  *batchCyc,
		WriteTimeout: *writeTO,
		EnablePprof:  *pprofFlag,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if *peers != "" {
		// Serve only this node's placement slice: the same rendezvous
		// computation the coordinator runs, so no catalog negotiation is
		// needed — agreement is deterministic.
		if *nodeID == "" {
			return fmt.Errorf("-peers requires -id")
		}
		ids := splitList(*peers)
		if !containsStr(ids, *nodeID) {
			return fmt.Errorf("-id %s is not in -peers %s", *nodeID, *peers)
		}
		slice := cluster.Assign(catalog(), ids, placementConfig()).Titles(*nodeID)
		if len(slice) == 0 {
			return fmt.Errorf("placement gives node %s no titles", *nodeID)
		}
		cfg.Titles = slice
	}
	n, err := node.Start(cfg)
	if err != nil {
		return err
	}
	defer n.Close()

	if *failDisk >= 0 {
		n.NS().ScheduleFailure(*failCycle, *failDisk)
		if *repairCycle >= 0 {
			n.NS().ScheduleRepair(*repairCycle, *failDisk)
		}
		if *rebuildCycle >= 0 {
			n.NS().ScheduleRebuild(*rebuildCycle, *failDisk, *rebuildBudget)
		}
	}

	if ha := n.HTTPAddr(); ha != "" {
		fmt.Printf("http   %s  (/statusz /metricsz /titlesz /admitz /viewz)\n", ha)
	}
	id := *nodeID
	if id == "" {
		id = "(standalone)"
	}
	fmt.Printf("serve  %s  id=%s scheme=%s D=%d C=%d K=%d cycle=%v burst=%d titles=%d\n",
		n.Addr(), id, n.Server().Engine().Name(), *disks, *clusterSz, *k,
		n.NS().CycleTime(), n.NS().Burst(), len(n.Titles()))

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("ftmmserve: draining (interrupt again to exit immediately)")
	done := make(chan error, 1)
	go func() { done <- n.Drain(*drainTO) }()
	select {
	case err := <-done:
		if err != nil {
			fmt.Fprintln(os.Stderr, "ftmmserve:", err)
		}
	case <-sig:
		fmt.Println("ftmmserve: hard exit")
	}
	return n.Close()
}

// ---- coordinator mode ----

func runCoordinator() error {
	members, err := parseMembers(*nodesFlag)
	if err != nil {
		return err
	}
	c, err := netserve.NewCoordinator(netserve.CoordinatorOptions{
		Addr:              *addr,
		Nodes:             members,
		Titles:            catalog(),
		Placement:         placementConfig(),
		HeartbeatInterval: *heartbeat,
		HeartbeatTimeout:  *hbTimeout,
		MissThreshold:     *hbMisses,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	defer c.Close()

	if *httpAddr != "" {
		hs := &http.Server{Addr: *httpAddr, Handler: c.Handler()}
		go func() {
			if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "ftmmserve: http:", err)
			}
		}()
		defer hs.Close()
		fmt.Printf("http   %s  (/statusz /viewz /titlesz /clusterz/{add,drain,remove})\n", *httpAddr)
	}
	fmt.Printf("coord  %s  nodes=%d titles=%d replicas=%d/%d heartbeat=%v\n",
		c.Addr(), len(members), *titles, *replicas, *hotReps, *heartbeat)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	return c.Close()
}

// parseMembers parses "id=addr[/httpaddr],..." into the initial view.
func parseMembers(s string) ([]cluster.Member, error) {
	parts := splitList(s)
	if len(parts) == 0 {
		return nil, fmt.Errorf("-coordinator requires -nodes id=addr[/httpaddr],...")
	}
	members := make([]cluster.Member, 0, len(parts))
	for _, p := range parts {
		id, rest, ok := strings.Cut(p, "=")
		if !ok || id == "" || rest == "" {
			return nil, fmt.Errorf("bad -nodes entry %q (want id=addr[/httpaddr])", p)
		}
		addr, httpAddr, _ := strings.Cut(rest, "/")
		if addr == "" {
			return nil, fmt.Errorf("bad -nodes entry %q: empty address", p)
		}
		members = append(members, cluster.Member{ID: id, Addr: addr, HTTPAddr: httpAddr})
	}
	return members, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func containsStr(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
