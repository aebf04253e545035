package main

import "fmt"

// metricDef names one reported metric. Bound is set for end-to-end
// metrics only: the share of the parent's median by which the metric may
// get worse before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is what a viewer (or an operator sizing a farm) sees. Every
// workload reports every one of them; BENCHMARK.json carries the same
// list and a test holds the two equal. The timing bounds are the widest
// the driver allows: ten runs on a 2-vCPU shared box spread by 4-12 %
// while its host stays in one mood and step by 15-40 % when it changes
// (README, "Noise"), and a bound inside the noise would reject unchanged
// code. delivered_pct is exact, so its bound is half of the loss
// engine-degraded reports today.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"tracks_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_track", "us", "lower", 0.25},
	{"cycle_ms", "ms", "lower", 0.25},
	{"startup_ms", "ms", "lower", 0.25},
	{"delivered_pct", "%", "higher", 0.00005},
}

// schemeIDs are the five fault-tolerance schemes the engine workloads
// run, in the order they run.
var schemeIDs = []string{"sr", "sg", "nc", "ib", "dc"}

// perLayer lists the single-layer metrics of a traced run, grouped by
// the module they observe. A metric a workload does not exercise reads
// 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var d []metricDef
	add := func(name, unit, better string) { d = append(d, metricDef{Name: name, Unit: unit, Better: better}) }

	// schemes + sched: the cycle engines, driven through server.Step.
	for _, id := range schemeIDs {
		add(fmt.Sprintf("schemes.%s.step_us_p50", id), "us", "lower")
		add(fmt.Sprintf("schemes.%s.step_us_p99", id), "us", "lower")
		add(fmt.Sprintf("schemes.%s.allocs_per_step", id), "count", "lower")
		add(fmt.Sprintf("schemes.%s.streams_admitted", id), "count", "higher")
		add(fmt.Sprintf("schemes.%s.streams_analytic", id), "count", "higher")
	}
	add("schemes.alloc_kb_per_step", "KB", "lower")
	add("schemes.self_pct", "%", "lower")
	add("schemes.readmit_rejects", "count", "lower")
	add("schemes.lockstep_pairs", "count", "lower")

	// disk: probes of Drive.ReadTrackInto/WriteTrack plus the engines'
	// exact read counts.
	add("disk.read_us_per_track", "us", "lower")
	add("disk.write_us_per_track", "us", "lower")
	add("disk.data_reads_per_cycle", "count", "lower")
	add("disk.parity_reads_per_cycle", "count", "lower")
	add("disk.share_pct", "%", "lower")

	// parity: probes at 50 KB x C plus the exact reconstruction count.
	add("parity.xor_gb_s", "GB/s", "higher")
	add("parity.reconstruct_us", "us", "lower")
	add("parity.encode_us", "us", "lower")
	add("parity.reconstructions_per_cycle", "count", "lower")
	add("parity.share_pct", "%", "lower")

	// buffer: the track-buffer arena.
	add("buffer.getput_ns", "ns", "lower")
	add("buffer.arena_news_per_kcycle", "count", "lower")
	for _, id := range schemeIDs {
		add(fmt.Sprintf("buffer.%s.peak_tracks", id), "count", "lower")
		add(fmt.Sprintf("buffer.%s.bf_analytic_tracks", id), "count", "lower")
	}
	add("buffer.outstanding_end", "count", "lower")

	// rebuild: the online rebuild riding beside service.
	add("rebuild.window_cycles", "count", "lower")
	add("rebuild.tracks_restored", "count", "higher")
	add("rebuild.step_extra_us", "us", "lower")

	// server (+ catalog, layout): staging and admission.
	add("server.stage_title_ms", "ms", "lower")
	add("server.request_us", "us", "lower")

	// netserve: the framed TCP front end.
	add("netserve.stepcycle_us_p50", "us", "lower")
	add("netserve.stepcycle_us_p99", "us", "lower")
	add("netserve.flush_lag_us_p50", "us", "lower")
	add("netserve.flush_lag_us_p99", "us", "lower")
	add("netserve.read_us_mean", "us", "lower")
	add("netserve.stage_us_mean", "us", "lower")
	add("netserve.flush_us_mean", "us", "lower")
	add("netserve.us_per_track", "us", "lower")
	add("netserve.merge_ratio", "ratio", "higher")
	add("netserve.tracks_sent", "count", "higher")
	add("netserve.bytes_sent", "B", "higher")
	add("netserve.hiccups_sent", "count", "lower")
	add("netserve.sessions_shed", "count", "lower")
	add("netserve.write_errors", "count", "lower")
	add("netserve.write_timeouts", "count", "lower")
	add("netserve.rejects", "count", "lower")
	add("netserve.allocs_per_track", "count", "lower")
	add("netserve.alloc_b_per_track", "B", "lower")
	add("netserve.admit_us_p50", "us", "lower")

	// netserve.Client, and the benchmark's own verification cost.
	add("client.next_us_p50", "us", "lower")
	add("client.verify_us_per_track", "us", "lower")
	add("client.gap_ms_p50", "ms", "lower")
	add("client.gap_ms_p99", "ms", "lower")
	add("client.burst_late_ms_p50", "ms", "lower")
	add("client.cycle_ms_p99", "ms", "lower")
	add("client.startup_ms_p99", "ms", "lower")
	add("client.pace_err_pct", "%", "lower")

	// netserve.Coordinator, cluster, node: the admission plane.
	add("coordinator.redirect_us_p50", "us", "lower")
	add("coordinator.redirect_us_p99", "us", "lower")
	add("coordinator.rejects", "count", "lower")
	add("cluster.assign_us", "us", "lower")
	add("node.admit_us_p50", "us", "lower")
	add("node.first_track_ms_p50", "ms", "lower")
	add("node.sessions_max", "count", "lower")

	// Load generator, process, loss accounting and tracing sanity.
	add("loadgen.late_ms_p99", "ms", "lower")
	add("loadgen.sessions_started", "count", "higher")
	add("loadgen.sessions_completed", "count", "higher")
	add("tracks.expected", "count", "higher")
	add("tracks.verified", "count", "higher")
	add("tracks.lost", "count", "lower")
	add("fail_ratio", "ratio", "lower")
	add("proc.rss_peak_mb", "MB", "lower")
	add("proc.gc_cycles", "count", "lower")
	add("proc.gc_pause_ms", "ms", "lower")
	add("trace.overhead_pct", "%", "lower")
	add("trace.spans", "count", "higher")
	return d
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string
	Why  string
	run  func(cfg runConfig) (*result, error)
}

// workloads are the ones BENCHMARK.json lists and the driver runs.
var workloads = []workloadDef{
	{"engine-normal", "five scheme engines at full admitted load, no sockets, no lockstep: disk/buffer/sched do the work, parity and netserve none", runEngineNormal},
	{"engine-degraded", "same rig with two drive failures and an online rebuild: reconstruct-on-read and rebuild writes, so parity and rebuild do the work", runEngineDegraded},
	{"wire-fanout", "64 sessions on 4 titles in lockstep packs: merged reads and refcounted shared frames, netserve staging and flush dominate", runWireFanout},
	{"cluster-paced", "3 wall-clock-paced nodes behind the coordinator, open-loop Poisson/Zipf arrivals, a drive failure and rebuild mid-run", runClusterPaced},
}

// unlisted workloads run by name and under -workload all, but are not in
// BENCHMARK.json: the driver's time limit holds four workloads at this
// window length, not five (README, "Differences from ISSUE 12").
var unlisted = []workloadDef{
	{"wire-unicast", "one session per title over loopback: per-frame fixed cost with nothing shared, bypasses merged reads and shared frames", runWireUnicast},
}

func allWorkloads() []workloadDef {
	return append(workloads[:len(workloads):len(workloads)], unlisted...)
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range allWorkloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
