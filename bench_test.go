package ftmm

import (
	"fmt"
	"math"
	"testing"

	"ftmm/internal/analytic"
	"ftmm/internal/disk"
	"ftmm/internal/diskmodel"
	"ftmm/internal/experiments"
	"ftmm/internal/layout"
	"ftmm/internal/parity"
	"ftmm/internal/rebuild"
	"ftmm/internal/schemes"
	"ftmm/internal/server"
	"ftmm/internal/units"
	"ftmm/internal/workload"
)

// --- One benchmark per paper table / figure (EXP index in DESIGN.md) ---

// BenchmarkTable2 regenerates Table 2 (EXP-T2) and reports its headline
// stream counts.
func BenchmarkTable2(b *testing.B) {
	var last *experiments.TableResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Metrics[0].Streams), "SR-streams")
	b.ReportMetric(float64(last.Metrics[3].Streams), "IB-streams")
}

// BenchmarkTable3 regenerates Table 3 (EXP-T3).
func BenchmarkTable3(b *testing.B) {
	var last *experiments.TableResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table3()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Metrics[0].Streams), "SR-streams")
}

// BenchmarkKSweep regenerates the §2 k-sweep (EXP-K).
func BenchmarkKSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.KSweep(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMTTFExamples regenerates the inline reliability examples
// (EXP-MTTF).
func BenchmarkMTTFExamples(b *testing.B) {
	var last *experiments.MTTFExamplesResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.MTTFExamples()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.StreamingRAIDYears, "SR-MTTF-years")
}

// BenchmarkFig9a regenerates Figure 9(a) (EXP-F9A).
func BenchmarkFig9a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9a(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9b regenerates Figure 9(b) (EXP-F9B).
func BenchmarkFig9b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9b(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSizing regenerates the §5 worked example (EXP-COST).
func BenchmarkSizing(b *testing.B) {
	var last *experiments.SizingResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Sizing(1200)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Winner.Total), "winner-$")
}

// BenchmarkFig4 runs the staggered-group buffer simulation (EXP-F4).
func BenchmarkFig4(b *testing.B) {
	var last *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.SGPeak), "SG-peak-tracks")
	b.ReportMetric(float64(last.SRPeak), "SR-peak-tracks")
}

// BenchmarkNCFailure runs the Figures 5-7 transition simulation
// (EXP-F5-7).
func BenchmarkNCFailure(b *testing.B) {
	var last *experiments.NCFailureResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.NCFailure()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Lost[schemes.SimpleSwitchover][2]), "simple-lost")
	b.ReportMetric(float64(last.Lost[schemes.AlternateSwitchover][2]), "alternate-lost")
}

// BenchmarkIBShift runs the Figure 8 shift simulation (EXP-F8).
func BenchmarkIBShift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.IBShift(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarlo runs the reliability validation (EXP-MC) at a
// reduced trial count.
func BenchmarkMonteCarlo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MonteCarlo(200); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Engine microbenchmarks: cost of one scheduling cycle per scheme ---

func benchRig(b *testing.B, placement layout.Placement) (*layout.Layout, schemes.Config, []*layout.Object) {
	b.Helper()
	p := diskmodel.Table1()
	const d, c, nObj, groups = 20, 5, 8, 200
	p.Capacity = units.ByteSize(nObj*groups*c/d+groups*c+10) * p.TrackSize
	farm, err := disk.NewFarm(d, c, p)
	if err != nil {
		b.Fatal(err)
	}
	lay, err := layout.ForFarm(farm, placement)
	if err != nil {
		b.Fatal(err)
	}
	trackSize := int(p.TrackSize)
	var objs []*layout.Object
	for i := 0; i < nObj; i++ {
		id := fmt.Sprintf("obj%d", i)
		obj, err := lay.AddObject(id, groups*(c-1), i%lay.Clusters(), units.MPEG1)
		if err != nil {
			b.Fatal(err)
		}
		if err := layout.WriteObject(farm, obj, workload.SyntheticContent(id, groups*(c-1)*trackSize)); err != nil {
			b.Fatal(err)
		}
		objs = append(objs, obj)
	}
	return lay, schemes.Config{Farm: farm, Layout: lay, Rate: units.MPEG1}, objs
}

// benchCycles drives Step b.N times, rebuilding the engine (off the
// clock) whenever its finite streams run out.
func benchCycles(b *testing.B, build func() schemes.Simulator, perCycleBytes int64) {
	b.Helper()
	e := build()
	b.ResetTimer()
	b.SetBytes(perCycleBytes)
	for i := 0; i < b.N; i++ {
		if e.Active() == 0 {
			b.StopTimer()
			e = build()
			b.StartTimer()
		}
		if _, err := e.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCycleStreamingRAID measures one Streaming RAID cycle with 8
// streams (8 parity groups of real bytes moved per cycle).
func BenchmarkCycleStreamingRAID(b *testing.B) {
	_, cfg, objs := benchRig(b, layout.DedicatedParity)
	build := func() schemes.Simulator {
		e, err := schemes.NewStreamingRAID(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range objs {
			if _, err := e.AddStreamAt(o, 0); err != nil {
				b.Fatal(err)
			}
		}
		return e
	}
	benchCycles(b, build, int64(len(objs))*5*50_000)
}

// BenchmarkCycleStaggeredGroup measures one Staggered-group cycle.
func BenchmarkCycleStaggeredGroup(b *testing.B) {
	_, cfg, objs := benchRig(b, layout.DedicatedParity)
	build := func() schemes.Simulator {
		e, err := schemes.NewStaggeredGroup(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range objs {
			if _, err := e.AddStreamAt(o, 0); err != nil {
				b.Fatal(err)
			}
			if _, err := e.Step(); err != nil {
				b.Fatal(err)
			}
		}
		return e
	}
	benchCycles(b, build, int64(len(objs))*50_000/4*5)
}

// BenchmarkCycleNonClustered measures one Non-clustered cycle.
func BenchmarkCycleNonClustered(b *testing.B) {
	_, cfg, objs := benchRig(b, layout.DedicatedParity)
	build := func() schemes.Simulator {
		e, err := schemes.NewNonClustered(cfg, schemes.AlternateSwitchover, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range objs {
			if _, err := e.AddStreamAt(o, 0); err != nil {
				b.Fatal(err)
			}
			if _, err := e.Step(); err != nil {
				b.Fatal(err)
			}
		}
		return e
	}
	benchCycles(b, build, int64(len(objs))*50_000)
}

// BenchmarkCycleNonClusteredDegraded measures a Non-clustered cycle while
// one cluster runs degraded (the reconstruction hot path).
func BenchmarkCycleNonClusteredDegraded(b *testing.B) {
	// Each rebuild needs a farm with the drive still failed, so the rig
	// is rebuilt per engine instance.
	build := func() schemes.Simulator {
		_, cfg, objs := benchRig(b, layout.DedicatedParity)
		e, err := schemes.NewNonClustered(cfg, schemes.AlternateSwitchover, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range objs {
			if _, err := e.AddStreamAt(o, 0); err != nil {
				b.Fatal(err)
			}
			if _, err := e.Step(); err != nil {
				b.Fatal(err)
			}
		}
		if err := e.FailDisk(0); err != nil {
			b.Fatal(err)
		}
		return e
	}
	benchCycles(b, build, 8*50_000)
}

// BenchmarkCycleImprovedBandwidth measures one Improved-bandwidth cycle.
func BenchmarkCycleImprovedBandwidth(b *testing.B) {
	_, cfg, objs := benchRig(b, layout.IntermixedParity)
	build := func() schemes.Simulator {
		e, err := schemes.NewImprovedBandwidth(cfg, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range objs {
			if _, err := e.AddStreamAt(o, 0); err != nil {
				b.Fatal(err)
			}
		}
		return e
	}
	benchCycles(b, build, int64(len(objs))*4*50_000)
}

// --- Substrate microbenchmarks ---

// BenchmarkParityEncode measures XOR-encoding a C=5 parity group of 50 KB
// tracks.
func BenchmarkParityEncode(b *testing.B) {
	blocks := make([][]byte, 4)
	for i := range blocks {
		blocks[i] = workload.SyntheticContent(fmt.Sprintf("b%d", i), 50_000)
	}
	dst := make([]byte, 50_000)
	b.SetBytes(4 * 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := parity.EncodeInto(dst, blocks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParityReconstruct measures rebuilding one erased 50 KB track
// into a reused destination — the engines' hot path. Accounted like
// Encode (three survivors in, one block out) so the two rows compare.
func BenchmarkParityReconstruct(b *testing.B) {
	blocks := make([][]byte, 4)
	for i := range blocks {
		blocks[i] = workload.SyntheticContent(fmt.Sprintf("b%d", i), 50_000)
	}
	g, err := parity.NewGroup(blocks)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, 50_000)
	b.SetBytes(4 * 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.ReconstructDataInto(dst, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRebuildDrive measures a full parity rebuild of one drive.
func BenchmarkRebuildDrive(b *testing.B) {
	p := diskmodel.Table1()
	p.Capacity = 120 * p.TrackSize
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		farm, err := disk.NewFarm(10, 5, p)
		if err != nil {
			b.Fatal(err)
		}
		lay, err := layout.ForFarm(farm, layout.DedicatedParity)
		if err != nil {
			b.Fatal(err)
		}
		obj, err := lay.AddObject("x", 80, 0, units.MPEG1)
		if err != nil {
			b.Fatal(err)
		}
		if err := layout.WriteObject(farm, obj, workload.SyntheticContent("x", 80*50_000)); err != nil {
			b.Fatal(err)
		}
		drv, _ := farm.Drive(0)
		if err := drv.Fail(); err != nil {
			b.Fatal(err)
		}
		if err := drv.Replace(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		r, err := rebuild.New(farm, lay, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Step(math.MaxInt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageTitle measures the tape → platter path for one 60-group
// title the way node.Start and the cycle benchmark prestage: archive it,
// admit a stream (which stages it) and cancel. B/op over the title's size
// is how many times a byte is copied on the way.
func BenchmarkStageTitle(b *testing.B) {
	const groups, c = 60, 5
	p := diskmodel.Table1()
	p.Capacity = units.ByteSize(2*groups+50) * p.TrackSize
	size := units.ByteSize(groups*(c-1)) * p.TrackSize
	content := workload.SyntheticContent("t", int(size))
	b.SetBytes(int64(size))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, err := server.New(server.Options{
			Disks: 2 * c, ClusterSize: c, DiskParams: p,
			Scheme: analytic.StreamingRAID,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := srv.AddTitle("t", size, 0, content); err != nil {
			b.Fatal(err)
		}
		sid, _, err := srv.Request("t")
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.Cancel(sid); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerEndToEnd measures a complete small service run: stage
// two titles from tape, play four streams to completion under Streaming
// RAID with a mid-run failure.
func BenchmarkServerEndToEnd(b *testing.B) {
	p := diskmodel.Table1()
	p.Capacity = 200 * p.TrackSize
	for i := 0; i < b.N; i++ {
		srv, err := server.New(server.Options{
			Disks: 10, ClusterSize: 5, DiskParams: p,
			Scheme: analytic.StreamingRAID,
		})
		if err != nil {
			b.Fatal(err)
		}
		for t := 0; t < 2; t++ {
			id := fmt.Sprintf("t%d", t)
			size := units.ByteSize(80) * p.TrackSize
			if err := srv.AddTitle(id, size, 0, workload.SyntheticContent(id, int(size))); err != nil {
				b.Fatal(err)
			}
		}
		for s := 0; s < 4; s++ {
			if _, _, err := srv.Request(fmt.Sprintf("t%d", s%2)); err != nil {
				b.Fatal(err)
			}
		}
		if err := srv.RunFor(3); err != nil {
			b.Fatal(err)
		}
		if err := srv.FailDisk(1); err != nil {
			b.Fatal(err)
		}
		if err := srv.RunUntilIdle(200); err != nil {
			b.Fatal(err)
		}
		if st := srv.Stats(); st.Hiccups != 0 {
			b.Fatalf("hiccups: %d", st.Hiccups)
		}
	}
}

// BenchmarkIntro regenerates the §1 capacity arithmetic (EXP-INTRO).
func BenchmarkIntro(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Intro(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRebuildMode measures the rebuild-mode comparison
// (EXP-REBUILD): online parity rebuild sweeps plus the tape alternative.
func BenchmarkRebuildMode(b *testing.B) {
	var last *experiments.RebuildResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Rebuild()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.ParityCycles[8]), "cycles-at-budget-8")
}

// BenchmarkReliability runs the three-way reliability comparison
// (EXP-REL) at a reduced trial count.
func BenchmarkReliability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Reliability(200); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations runs the reserve-depth ablations (EXP-ABL).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablations(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeek runs the seek-order validation of the disk model
// (EXP-SEEK).
func BenchmarkSeek(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Seek(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBandwidth runs the operational bandwidth-overhead validation
// (EXP-BW).
func BenchmarkBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Bandwidth(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPriceSensitivity runs the §5 price sweep (EXP-PRICE).
func BenchmarkPriceSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PriceSensitivity(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPaperScaleStreamingRAID runs Table 2's headline configuration
// operationally: D = 100, C = 5, at the full integrally-schedulable
// capacity of 1040 concurrent MPEG-1 streams (Table 2's global floor
// says 1041, but one cluster would then need 53 tracks per disk per
// cycle against a budget of 52 — the integral per-cluster capacity is
// 52 x 20 = 1040), one failed drive, real bytes moving: each cycle
// reads 1040 x 5 tracks = 260 MB.
func BenchmarkPaperScaleStreamingRAID(b *testing.B) {
	p := diskmodel.Table1()
	const d, c = 100, 5
	const streams = 1040 // Table 2's N_SR = 1041, integrally 52/cluster
	build := func() *schemes.StreamingRAID { return buildPaperScale(b, p, d, c, streams) }
	e := build()
	b.SetBytes(int64(streams) * 5 * 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Active() == 0 {
			b.StopTimer()
			e = build()
			b.StartTimer()
		}
		rep, err := e.Step()
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Hiccups) > 0 {
			b.Fatalf("hiccups at paper scale: %d", len(rep.Hiccups))
		}
	}
}

// buildPaperScale assembles the D=100 farm at full integral capacity
// with one failed drive.
func buildPaperScale(b *testing.B, p diskmodel.Params, d, c, streams int) *schemes.StreamingRAID {
	b.Helper()
	// Each stream needs its own object (many small ones keep placement
	// light): 52 streams per cluster-start, 20 cluster-starts.
	groups := 4
	p.Capacity = units.ByteSize((streams*groups*c)/d+groups*c+50) * p.TrackSize
	farm, err := disk.NewFarm(d, c, p)
	if err != nil {
		b.Fatal(err)
	}
	lay, err := layout.ForFarm(farm, layout.DedicatedParity)
	if err != nil {
		b.Fatal(err)
	}
	trackSize := int(p.TrackSize)
	e, err := schemes.NewStreamingRAID(schemes.Config{Farm: farm, Layout: lay, Rate: units.MPEG1})
	if err != nil {
		b.Fatal(err)
	}
	admitted := 0
	for i := 0; admitted < streams; i++ {
		id := fmt.Sprintf("o%d", i)
		obj, err := lay.AddObject(id, groups*(c-1), i%lay.Clusters(), units.MPEG1)
		if err != nil {
			b.Fatal(err)
		}
		if err := layout.WriteObject(farm, obj, workload.SyntheticContent(id, groups*(c-1)*trackSize)); err != nil {
			b.Fatal(err)
		}
		if _, err := e.AddStreamAt(obj, 0); err != nil {
			b.Fatalf("admission of stream %d rejected (engine capacity below Table 2's N)", admitted)
		}
		admitted++
	}
	// The 1041st stream must NOT fit (per-cluster budget 52 x 20).
	extra, err := lay.AddObject("extra", groups*(c-1), 0, units.MPEG1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.AddStreamAt(extra, 0); err == nil {
		b.Fatal("stream 1041 admitted beyond the integral schedule")
	}
	if err := e.FailDisk(7); err != nil {
		b.Fatal(err)
	}
	return e
}
