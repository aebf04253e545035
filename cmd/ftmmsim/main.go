// Command ftmmsim runs multimedia-server simulations through the one
// chaos runner (internal/chaos) under its invariant checkers. From flags
// it builds a schedule — a farm, a synthetic catalog, one admission per
// cycle with titles picked by a seeded Zipf workload, and optionally a
// drive failure and repair mid-run — prints every event and the
// delivery/failure report, and exits non-zero on any invariant breach.
//
// Example:
//
//	ftmmsim -scheme nc -disks 20 -cluster 5 -titles 8 -streams 6 \
//	        -fail-disk 2 -fail-cycle 40 -repair-cycle 120 -cycles 400
//
// With -scenario it replays a JSON scenario file (scenarios/) the same
// way:
//
//	ftmmsim -scenario scenarios/nc-failure-drill.json
//
// With -chaos it instead runs a deterministic fault-injection campaign
// and exits non-zero on any invariant violation:
//
//	ftmmsim -chaos -seed 1 -campaign 50 -chaos-out /tmp/traces
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ftmm/internal/chaos"
	"ftmm/internal/sched"
	"ftmm/internal/server"
	"ftmm/internal/units"
	"ftmm/internal/workload"
)

var (
	scenarioPath = flag.String("scenario", "", "replay a JSON scenario file (see scenarios/) through the chaos runner under the default invariant checkers")
	chaosMode    = flag.Bool("chaos", false, "run a deterministic chaos campaign instead of a single simulation")
	campaignRuns = flag.Int("campaign", 20, "chaos: randomized runs in the campaign")
	chaosNodes   = flag.Int("chaos-nodes", 0, "chaos: fan each run across this many cluster nodes with node kill/drain events (0: single node)")
	chaosSchemes = flag.String("chaos-schemes", "", "chaos: comma-separated scheme rotation (default: all)")
	chaosOut     = flag.String("chaos-out", "", "chaos: directory to write shrunk violation traces as replayable scenario JSON")
	schemeFlag   = flag.String("scheme", "sr", "fault-tolerance scheme: sr, sg, nc, nc-simple, ib, dc")
	disks        = flag.Int("disks", 20, "number of drives")
	cluster      = flag.Int("cluster", 5, "cluster (parity group) size C")
	decluster    = flag.Int("decluster", 0, "declustering group size G for -scheme dc (0 = 2C-1)")
	titles       = flag.Int("titles", 8, "titles in the tape library")
	titleGroups  = flag.Int("groups", 20, "parity groups per title")
	streams      = flag.Int("streams", 6, "streams to admit (staggered)")
	k            = flag.Int("k", 2, "reserve depth (buffer servers / reserved bandwidth)")
	cycles       = flag.Int("cycles", 1000, "maximum cycles to run")
	failDisk     = flag.Int("fail-disk", -1, "drive to fail (-1: none)")
	failCycle    = flag.Int("fail-cycle", 20, "cycle at which the drive fails")
	repairCycle  = flag.Int("repair-cycle", -1, "cycle at which the drive is repaired (-1: never)")
	seed         = flag.Int64("seed", 1, "workload seed")
	zipf         = flag.Float64("zipf", 1.0, "title popularity skew")
	workers      = flag.Int("workers", 0, "chaos campaign runs executed concurrently (0 = GOMAXPROCS)")
	showMetrics  = flag.Bool("metrics", false, "print the engine metrics snapshot after the run")
	metricsJSON  = flag.Bool("metrics-json", false, "emit the metrics snapshot as JSON on stdout after the run")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ftmmsim:", err)
		os.Exit(1)
	}
}

func run() error {
	if *chaosMode {
		return runChaos()
	}
	if *scenarioPath != "" {
		data, err := os.ReadFile(*scenarioPath)
		if err != nil {
			return err
		}
		sch, err := chaos.ParseSchedule(data)
		if err != nil {
			return err
		}
		fmt.Printf("scenario %s\n", *scenarioPath)
		return simulate(sch)
	}
	sch, err := flagSchedule()
	if err != nil {
		return err
	}
	return simulate(sch)
}

// flagSchedule builds the schedule the simulation flags describe: one
// admission per cycle for the first -streams cycles, each title picked
// by the seeded Zipf workload, then the drive failure and repair.
// Same-cycle events apply in that order, before the cycle's Step.
func flagSchedule() (*chaos.Schedule, error) {
	gen, err := workload.New(workload.Config{
		Seed: *seed, Objects: workload.ObjectNames("title", *titles), ZipfS: *zipf, ArrivalsPerSecond: 1,
	})
	if err != nil {
		return nil, err
	}
	sch := &chaos.Schedule{
		Scheme: *schemeFlag, Disks: *disks, ClusterSize: *cluster, DeclusterGroup: *decluster,
		K: *k, Titles: *titles, TitleGroups: *titleGroups, MaxCycles: *cycles,
	}
	for i := 0; i < *streams; i++ {
		sch.Events = append(sch.Events, chaos.Event{Cycle: i, Kind: chaos.EventAdmit, Title: gen.Pick()})
	}
	if *failDisk >= 0 {
		sch.Events = append(sch.Events, chaos.Event{Cycle: *failCycle, Kind: chaos.EventFail, Drive: *failDisk})
		if *repairCycle >= 0 {
			sch.Events = append(sch.Events, chaos.Event{Cycle: *repairCycle, Kind: chaos.EventRepair, Drive: *failDisk})
		}
	}
	return sch, sch.Validate()
}

// runChaos executes a deterministic fault-injection campaign. The exit
// status is non-zero when any invariant was violated, and -chaos-out
// saves each shrunk schedule as a scenario file that -scenario replays.
func runChaos() error {
	cfg := chaos.CampaignConfig{
		Seed: *seed, Runs: *campaignRuns, Workers: *workers, Nodes: *chaosNodes,
	}
	if *chaosSchemes != "" {
		cfg.Schemes = strings.Split(*chaosSchemes, ",")
		valid := make(map[string]bool)
		for _, n := range chaos.SchemeNames() {
			valid[n] = true
		}
		for _, n := range cfg.Schemes {
			if !valid[n] {
				return fmt.Errorf("unknown scheme %q in -chaos-schemes (valid: %s)",
					n, strings.Join(chaos.SchemeNames(), ", "))
			}
		}
	}
	fmt.Printf("chaos campaign: seed=%d runs=%d nodes=%d schemes=%v\n",
		cfg.Seed, cfg.Runs, cfg.Nodes, append([]string(nil), cfgSchemes(cfg)...))
	res, err := chaos.Campaign(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("ran %d schedules, %d violations\n", res.Runs, len(res.Violations))
	for _, v := range res.Violations {
		fmt.Printf("\nrun %d (scheme %s, seed %d): %s violation at cycle %d\n  %s\n",
			v.Run, v.Scheme, v.Seed, v.Violation.Checker, v.Violation.Cycle, v.Violation.Detail)
		fmt.Printf("  shrunk to %d of %d events\n", len(v.Shrunk.Events), v.Events)
		if *chaosOut != "" {
			if err := os.MkdirAll(*chaosOut, 0o755); err != nil {
				return err
			}
			data, err := json.MarshalIndent(v.Shrunk, "", "  ")
			if err != nil {
				return err
			}
			path := filepath.Join(*chaosOut, fmt.Sprintf("chaos-run%03d-%s.json", v.Run, v.Violation.Checker))
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("  trace written to %s (replay: ftmmsim -scenario %s)\n", path, path)
		}
	}
	return chaos.CheckResult(res)
}

func cfgSchemes(cfg chaos.CampaignConfig) []string {
	if len(cfg.Schemes) > 0 {
		return cfg.Schemes
	}
	return chaos.SchemeNames()
}

// printer rides a run as one more cluster checker: it prints the farm
// header, one line per applied event and per stream outcome, and counts
// hiccups by cause for the summary. It never fails the run.
type printer struct {
	// staged is each node's tertiary staging time at the last event, so
	// an admission's line shows what staging its title cost.
	staged  []time.Duration
	hiccups map[string]int
}

func (p *printer) Name() string { return "printer" }

func (p *printer) Begin(crc *chaos.ClusterRunContext) error {
	sch, eng := crc.Schedule, crc.Nodes[0].Srv.Engine()
	fmt.Printf("scheme=%s  D=%d C=%d K=%d  cycle=%v  slots/disk=%d  nodes=%d\n\n",
		eng.Name(), sch.Disks, sch.ClusterSize, sch.K, eng.CycleTime(), eng.SlotsPerDisk(), len(crc.Nodes))
	p.staged = make([]time.Duration, len(crc.Nodes))
	p.hiccups = map[string]int{}
	return nil
}

// at prefixes a line with its cycle and, on a cluster run, its node.
func at(crc *chaos.ClusterRunContext, node int) string {
	if len(crc.Nodes) > 1 {
		return fmt.Sprintf("cycle %4d: %s: ", crc.Cycle, crc.Nodes[node].ID)
	}
	return fmt.Sprintf("cycle %4d: ", crc.Cycle)
}

func (p *printer) OnEvent(crc *chaos.ClusterRunContext, ev chaos.Event) error {
	switch ev.Kind {
	case chaos.EventAdmit:
		ses := crc.Sessions[len(crc.Sessions)-1]
		staging := crc.Nodes[ses.Node].Srv.StagingTime() - p.staged[ses.Node]
		fmt.Printf("%sadmitted stream %d for %s (staging %v)\n", at(crc, ses.Node), ses.SID, ses.Title, staging)
	case chaos.EventFail:
		fmt.Printf("%sDRIVE %d FAILED\n", at(crc, ev.Node), ev.Drive)
	case chaos.EventRepair:
		fmt.Printf("%sdrive %d repaired and rebuilt from parity\n", at(crc, ev.Node), ev.Drive)
	default: // printed in the schedule's own format
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		fmt.Printf("cycle %4d: event %s\n", crc.Cycle, data)
	}
	for i, nd := range crc.Nodes {
		p.staged[i] = nd.Srv.StagingTime()
	}
	return nil
}

func (p *printer) AfterStep(crc *chaos.ClusterRunContext, reps []*sched.CycleReport) error {
	for i, rep := range reps {
		if rep == nil {
			continue
		}
		for _, h := range rep.Hiccups {
			fmt.Printf("%sHICCUP stream %d %s track %d (%s)\n", at(crc, i), h.StreamID, h.ObjectID, h.Track, h.Reason)
			p.hiccups[h.Reason]++
		}
		for _, id := range rep.Terminated {
			fmt.Printf("%sstream %d TERMINATED (degradation of service)\n", at(crc, i), id)
		}
		for _, id := range rep.Finished {
			fmt.Printf("%sstream %d finished\n", at(crc, i), id)
		}
	}
	return nil
}

func (p *printer) End(*chaos.ClusterRunContext) error { return nil }

// simulate runs one schedule through the chaos runner under the default
// checkers plus the printer, prints the summary from every node's
// server, and returns an error on any invariant breach. The last line of
// a clean run is the "invariants:" line.
func simulate(sch *chaos.Schedule) error {
	out := &printer{}
	res, err := chaos.Run(chaos.RunConfig{
		Schedule: *sch,
		NewClusterCheckers: func() []chaos.ClusterChecker {
			return append(chaos.DefaultClusterCheckers(), out)
		},
	})
	if err != nil {
		return err
	}

	var st server.Stats
	var staging time.Duration
	var peakBytes units.ByteSize
	for _, nd := range res.Nodes {
		ns := nd.Srv.Stats()
		st.Delivered += ns.Delivered
		st.Hiccups += ns.Hiccups
		st.Reconstructions += ns.Reconstructions
		st.Finished += ns.Finished
		st.Terminated += ns.Terminated
		st.DataReads += ns.DataReads
		st.ParityReads += ns.ParityReads
		st.BufferPeak = max(st.BufferPeak, ns.BufferPeak)
		st.Stagings += ns.Stagings
		st.Evictions += ns.Evictions
		staging += nd.Srv.StagingTime()
		peakBytes = max(peakBytes, nd.Srv.BufferPeakBytes())
	}
	finished, resumed, lost, cancelled, terminated := 0, 0, 0, 0, 0
	for _, s := range res.Sessions {
		if s.Finished {
			finished++
		}
		if s.Resumes > 0 {
			resumed++
		}
		if s.Lost {
			lost++
		}
		if s.Cancelled {
			cancelled++
		}
		if s.Terminated {
			terminated++
		}
	}
	requests := 0
	for _, ev := range sch.Events {
		if ev.Kind == chaos.EventAdmit {
			requests++
		}
	}

	cycleTime := res.Nodes[0].Srv.CycleTime()
	fmt.Printf("\n--- summary after %d cycles (%.1f simulated seconds), drained=%v ---\n",
		res.Cycles, float64(res.Cycles)*cycleTime.Seconds(), res.Drained)
	fmt.Printf("requests admitted/rejected: %d/%d\n", len(res.Sessions), requests-len(res.Sessions))
	fmt.Printf("delivered tracks:           %d\n", st.Delivered)
	fmt.Printf("hiccups:                    %d\n", st.Hiccups)
	causes := make([]string, 0, len(out.hiccups))
	for cause := range out.hiccups {
		causes = append(causes, cause)
	}
	sort.Strings(causes)
	for _, cause := range causes {
		fmt.Printf("  %-40s %d\n", cause, out.hiccups[cause])
	}
	fmt.Printf("reconstructions:            %d\n", st.Reconstructions)
	fmt.Printf("streams finished:           %d, terminated: %d\n", st.Finished, st.Terminated)
	fmt.Printf("disk reads:                 %d data, %d parity\n", st.DataReads, st.ParityReads)
	fmt.Printf("buffer peak:                %d tracks (%v)\n", st.BufferPeak, peakBytes)
	fmt.Printf("tertiary stagings:          %d (%v), evictions: %d\n", st.Stagings, staging, st.Evictions)
	fmt.Printf("sessions:                   %d finished, %d re-admitted, %d lost, %d cancelled, %d terminated\n",
		finished, resumed, lost, cancelled, terminated)
	for _, s := range res.Sessions {
		if s.Lost {
			fmt.Printf("  session %d (%s) lost: %s\n", s.Ordinal, s.Title, s.LostReason)
		}
	}
	for _, nd := range res.Nodes {
		if *showMetrics {
			fmt.Printf("\n--- engine metrics (%s) ---\n%s", nd.ID, nd.Srv.MetricsSnapshot())
		}
		if *metricsJSON {
			if err := nd.Srv.Metrics().WriteJSON(os.Stdout); err != nil {
				return err
			}
		}
	}
	if v := res.Violation; v != nil {
		return fmt.Errorf("%s violation at cycle %d: %s", v.Checker, v.Cycle, v.Detail)
	}
	fmt.Println("invariants:                 every per-node checker, bit-exact delivery and cross-node continuity held")
	return nil
}
