// Command ftmmsim runs one multimedia-server simulation scenario from
// flags: build a farm, load a synthetic catalog, admit streams under the
// chosen fault-tolerance scheme, optionally fail and repair a drive
// mid-run, and print the delivery/failure report.
//
// Example:
//
//	ftmmsim -scheme nc -disks 20 -cluster 5 -titles 8 -streams 6 \
//	        -fail-disk 2 -fail-cycle 40 -repair-cycle 120 -cycles 400
//
// With -chaos it instead runs a deterministic fault-injection campaign
// (internal/chaos) and exits non-zero on any invariant violation:
//
//	ftmmsim -chaos -seed 1 -campaign 50 -chaos-out /tmp/traces
//
// With -scenario it replays a JSON scenario file (scenarios/) through
// the same chaos runner under the default invariant checkers:
//
//	ftmmsim -scenario scenarios/nc-failure-drill.json
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
	"ftmm/internal/diskmodel"
	"ftmm/internal/sched"
	"ftmm/internal/server"
	"ftmm/internal/trace"
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
	workers      = flag.Int("workers", 0, "engine per-cluster worker goroutines (0 = GOMAXPROCS)")
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
		return runScenario(*scenarioPath)
	}
	scheme, policy, err := server.ParseScheme(*schemeFlag)
	if err != nil {
		return err
	}
	p := diskmodel.Table1()
	// Size drives to hold the catalog comfortably.
	tracksPerTitle := *titleGroups * *cluster
	p.Capacity = units.ByteSize((*titles**cluster*tracksPerTitle)/(*disks)+tracksPerTitle+50) * p.TrackSize

	srv, err := server.New(server.Options{
		Disks: *disks, ClusterSize: *cluster,
		DeclusterGroup: *decluster,
		DiskParams:     p, Scheme: scheme, K: *k, NCPolicy: policy,
		Workers: *workers,
	})
	if err != nil {
		return err
	}

	trackSize := int(p.TrackSize)
	names := workload.ObjectNames("title", *titles)
	for i, id := range names {
		size := units.ByteSize(*titleGroups * (*cluster - 1) * trackSize)
		if err := srv.AddTitle(id, size, i/4, workload.SyntheticContent(id, int(size))); err != nil {
			return err
		}
	}
	gen, err := workload.New(workload.Config{
		Seed: *seed, Objects: names, ZipfS: *zipf, ArrivalsPerSecond: 1,
	})
	if err != nil {
		return err
	}

	fmt.Printf("scheme=%s  D=%d C=%d K=%d  cycle=%v  slots/disk=%d\n\n",
		srv.Engine().Name(), *disks, *cluster, *k, srv.CycleTime(), 0)

	admitted := 0
	for cyc := 0; cyc < *cycles; cyc++ {
		if admitted < *streams {
			id := gen.Pick()
			if sid, staging, err := srv.Request(id); err == nil {
				fmt.Printf("cycle %4d: admitted stream %d for %s (staging %v)\n", cyc, sid, id, staging)
				admitted++
			}
		}
		if *failDisk >= 0 && cyc == *failCycle {
			if err := srv.FailDisk(*failDisk); err != nil {
				return err
			}
			fmt.Printf("cycle %4d: DRIVE %d FAILED\n", cyc, *failDisk)
		}
		if *failDisk >= 0 && *repairCycle >= 0 && cyc == *repairCycle {
			if err := srv.RepairDisk(*failDisk); err != nil {
				return err
			}
			fmt.Printf("cycle %4d: drive %d repaired and rebuilt from parity\n", cyc, *failDisk)
		}
		rep, err := srv.Step()
		if err != nil {
			return err
		}
		for _, h := range rep.Hiccups {
			fmt.Printf("cycle %4d: HICCUP stream %d %s track %d (%s)\n", cyc, h.StreamID, h.ObjectID, h.Track, h.Reason)
		}
		for _, id := range rep.Terminated {
			fmt.Printf("cycle %4d: stream %d TERMINATED (degradation of service)\n", cyc, id)
		}
		for _, id := range rep.Finished {
			fmt.Printf("cycle %4d: stream %d finished\n", cyc, id)
		}
		if admitted >= *streams && srv.Engine().Active() == 0 {
			break
		}
	}

	st := srv.Stats()
	fmt.Printf("\n--- summary after %d cycles (%.1f simulated seconds) ---\n",
		st.Cycles, float64(st.Cycles)*srv.CycleTime().Seconds())
	fmt.Printf("delivered tracks:   %d\n", st.Delivered)
	fmt.Printf("hiccups:            %d\n", st.Hiccups)
	fmt.Printf("reconstructions:    %d\n", st.Reconstructions)
	fmt.Printf("streams finished:   %d, terminated: %d\n", st.Finished, st.Terminated)
	fmt.Printf("disk reads:         %d data, %d parity\n", st.DataReads, st.ParityReads)
	fmt.Printf("buffer peak:        %d tracks (%v)\n", st.BufferPeak, srv.BufferPeakBytes())
	fmt.Printf("tertiary stagings:  %d (%v), evictions: %d\n", st.Stagings, srv.StagingTime(), st.Evictions)
	if *showMetrics {
		fmt.Printf("\n--- engine metrics ---\n%s", srv.MetricsSnapshot())
	}
	if *metricsJSON {
		if err := srv.Metrics().WriteJSON(os.Stdout); err != nil {
			return err
		}
	}
	return nil
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

// scenarioRecorder rides a scenario replay as one more per-node checker:
// it traces every report for the classic summary and keeps the node's
// server so the summary can read its stats after the run.
type scenarioRecorder struct {
	srv *server.Server
	rec *trace.Recorder
}

func (r *scenarioRecorder) Name() string { return "integrity" }

func (r *scenarioRecorder) Begin(rc *chaos.RunContext) (err error) {
	r.srv = rc.Srv
	r.rec, err = trace.NewRecorder(rc.Content, rc.TrackSize)
	return err
}

func (r *scenarioRecorder) AfterStep(_ *chaos.RunContext, rep *sched.CycleReport) error {
	r.rec.Observe(rep)
	return nil
}

func (r *scenarioRecorder) End(*chaos.RunContext) error { return r.rec.VerifyIntegrity() }

// runScenario replays a scenario file (a chaos schedule) through the
// chaos runner under the default checkers — one node or many — prints
// the run summary, and exits non-zero on any invariant breach.
func runScenario(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sch, err := chaos.ParseSchedule(data)
	if err != nil {
		return err
	}
	var nodes []*scenarioRecorder
	res, err := chaos.Run(chaos.RunConfig{
		Schedule: *sch,
		NewCheckers: func() []chaos.Checker {
			r := &scenarioRecorder{}
			nodes = append(nodes, r)
			return append(chaos.DefaultCheckers(), r)
		},
	})
	if err != nil {
		return err
	}

	var st server.Stats
	var staging time.Duration
	hiccups := map[string]int{}
	for _, n := range nodes {
		ns := n.srv.Stats()
		st.Delivered += ns.Delivered
		st.Hiccups += ns.Hiccups
		st.Reconstructions += ns.Reconstructions
		st.Finished += ns.Finished
		st.Terminated += ns.Terminated
		st.BufferPeak = max(st.BufferPeak, ns.BufferPeak)
		st.Stagings += ns.Stagings
		staging += n.srv.StagingTime()
		for cause, c := range n.rec.Summarize().HiccupsByCause {
			hiccups[cause] += c
		}
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
	fmt.Printf("scenario %s: scheme=%s nodes=%d farm=%dx%d per node\n", path, sch.Scheme, len(nodes), sch.Disks, sch.ClusterSize)
	fmt.Printf("requests admitted/rejected: %d/%d\n", len(res.Sessions), requests-len(res.Sessions))
	fmt.Printf("delivered tracks:           %d\n", st.Delivered)
	fmt.Printf("hiccups:                    %d\n", st.Hiccups)
	causes := make([]string, 0, len(hiccups))
	for cause := range hiccups {
		causes = append(causes, cause)
	}
	sort.Strings(causes)
	for _, cause := range causes {
		fmt.Printf("  %-40s %d\n", cause, hiccups[cause])
	}
	fmt.Printf("reconstructions:            %d\n", st.Reconstructions)
	fmt.Printf("streams finished:           %d, terminated: %d\n", st.Finished, st.Terminated)
	fmt.Printf("buffer peak:                %d tracks\n", st.BufferPeak)
	fmt.Printf("tertiary stagings:          %d (%v)\n", st.Stagings, staging)
	fmt.Printf("sessions:                   %d finished, %d re-admitted, %d lost, %d cancelled, %d terminated\n",
		finished, resumed, lost, cancelled, terminated)
	for _, s := range res.Sessions {
		if s.Lost {
			fmt.Printf("  session %d (%s) lost: %s\n", s.Ordinal, s.Title, s.LostReason)
		}
	}
	fmt.Printf("cycles:                     %d, drained=%v\n", res.Cycles, res.Drained)
	if v := res.Violation; v != nil {
		return fmt.Errorf("%s violation at cycle %d: %s", v.Checker, v.Cycle, v.Detail)
	}
	fmt.Println("invariants:                 every per-node checker, bit-exact delivery and cross-node continuity held")
	return nil
}
