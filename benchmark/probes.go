package main

import (
	"fmt"
	"time"

	"ftmm/internal/buffer"
	"ftmm/internal/cluster"
	"ftmm/internal/disk"
	"ftmm/internal/diskmodel"
	"ftmm/internal/parity"
	"ftmm/internal/units"
	"ftmm/internal/workload"
)

// probeBudget is how long each probe calls its layer directly. The
// driver never calls parity, disk, buffer or cluster itself, so a
// traced run prices them with direct calls at the workloads' shapes
// (50 KB tracks, parity groups of C=5); unit cost times the engines'
// exact per-cycle counts gives each layer's computed share.
const probeBudget = 150 * time.Millisecond

// probeFor calls fn in batches until budget has passed and returns the
// mean time per call in nanoseconds.
func probeFor(budget time.Duration, fn func()) float64 {
	const batch = 64
	start := time.Now()
	calls := 0
	for time.Since(start) < budget {
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// probeLayers fills the probe metrics of the inner layers.
func probeLayers(res *result, trackSize int, budget time.Duration) {
	probe := func(fn func()) float64 { return probeFor(budget, fn) }
	blocks := make([][]byte, engineCluster-1)
	for i := range blocks {
		blocks[i] = workload.SyntheticContent(fmt.Sprintf("probe%d", i), trackSize)
	}
	dst := make([]byte, trackSize)

	// parity: the XOR kernel, one reconstruction, one encode.
	ns := probe(func() { _ = parity.XORInto(dst, blocks[0]) })
	res.set("parity.xor_gb_s", float64(trackSize)/ns)
	if g, err := parity.NewGroup(blocks); err == nil {
		res.set("parity.reconstruct_us", probe(func() { _ = g.ReconstructDataInto(dst, 1) })/1e3)
	}
	res.set("parity.encode_us", probe(func() { _ = parity.EncodeInto(dst, blocks) })/1e3)

	// disk: one drive, reads and writes walking over 50 MB of tracks into
	// 50 MB of destinations — like the engines' farms and buffer pools,
	// far more than the caches hold, so source and destination are cold.
	const probeTracks = 1024
	p := diskmodel.Table1()
	p.Capacity = probeTracks * units.ByteSize(trackSize)
	drv := disk.NewDrive(0, p)
	dsts := make([][]byte, probeTracks)
	for t := range dsts {
		_ = drv.WriteTrack(t, blocks[t%len(blocks)])
		dsts[t] = make([]byte, trackSize)
	}
	t := 0
	res.set("disk.read_us_per_track", probe(func() { _ = drv.ReadTrackInto(dsts[(t*7)%probeTracks], t%probeTracks); t++ })/1e3)
	res.set("disk.write_us_per_track", probe(func() { _ = drv.WriteTrack(t%probeTracks, dsts[(t*7)%probeTracks]); t++ })/1e3)

	// buffer: one Get/Put round trip on a warm arena.
	arena := buffer.NewArena(trackSize)
	res.set("buffer.getput_ns", probe(func() { arena.Put(arena.Get()) }))

	// cluster: one placement of the cluster-paced catalog.
	titles := workload.ObjectNames("title", pacedFull.titles)
	nodes := []string{"node0", "node1", "node2"}
	res.set("cluster.assign_us", probe(func() { cluster.Assign(titles, nodes, cluster.PlacementConfig{Seed: 1, Replicas: 2}) })/1e3)
}
