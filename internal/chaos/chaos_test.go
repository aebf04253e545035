package chaos

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ftmm/internal/failure"
	"ftmm/internal/server"
)

// seedFlag lets CI and bug reports pin a campaign:
//
//	go test ./internal/chaos -run Campaign -seed 1
var seedFlag = flag.Int64("seed", 1, "master seed for chaos campaigns")

// corruptTrackOnDrive overwrites the first laid-out, readable track on
// the drive with wrong bytes. Wired into Hooks.AfterRepair it simulates
// a buggy rebuild — one that restored garbage (or, equivalently for the
// parity equation, skipped a write) — which the parity checker must
// catch. AllObjects is sorted, so the choice of track is deterministic.
func corruptTrackOnDrive(srv *server.Server, drive int) error {
	farm := srv.Farm()
	drv, err := farm.Drive(drive)
	if err != nil {
		return err
	}
	for _, obj := range srv.Catalog().Layout().AllObjects() {
		for gi := range obj.Groups {
			g := &obj.Groups[gi]
			for _, loc := range g.Data {
				if loc.Disk != drive {
					continue
				}
				view, err := drv.View(loc.Track)
				if err != nil {
					continue
				}
				data := bytes.Clone(view)
				data[0] ^= 0xFF
				return drv.WriteTrack(loc.Track, data)
			}
			if g.Parity.Disk == drive {
				view, err := drv.View(g.Parity.Track)
				if err != nil {
					continue
				}
				data := bytes.Clone(view)
				data[0] ^= 0xFF
				return drv.WriteTrack(g.Parity.Track, data)
			}
		}
	}
	return nil
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestCampaignCleanAcrossSchemes is the harness's main claim: every
// scheme engine survives randomized fault schedules with all five
// invariants intact.
func TestCampaignCleanAcrossSchemes(t *testing.T) {
	res, err := Campaign(CampaignConfig{Seed: *seedFlag, Runs: 20})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("run %d (%s, seed %d): %s violation at cycle %d: %s\nshrunk trace (%d events): %s",
			v.Run, v.Scheme, v.Seed, v.Violation.Checker, v.Violation.Cycle, v.Violation.Detail,
			len(v.Shrunk.Events), marshal(t, v.Shrunk))
	}
}

// TestCampaignReproducible pins seed determinism: the same seed yields
// a byte-identical campaign result, twice in a row, including the
// shrunk traces of any violations. The sabotage hook guarantees the
// comparison covers violating runs, not just an empty set.
func TestCampaignReproducible(t *testing.T) {
	cfg := CampaignConfig{
		Seed: *seedFlag, Runs: 8,
		Hooks: Hooks{AfterRepair: corruptTrackOnDrive},
	}
	a, err := Campaign(cfg)
	if err != nil {
		t.Fatalf("first campaign: %v", err)
	}
	b, err := Campaign(cfg)
	if err != nil {
		t.Fatalf("second campaign: %v", err)
	}
	if len(a.Violations) == 0 {
		t.Fatalf("sabotaged campaign found no violations; seed %d generated no instant repairs — pick another seed", *seedFlag)
	}
	if ja, jb := marshal(t, a), marshal(t, b); string(ja) != string(jb) {
		t.Errorf("same seed, different results:\n%s\n%s", ja, jb)
	}
}

// TestCampaignWorkerInvariance pins the determinism contract across
// parallelism: workers 1 and 8 produce byte-identical violation sets.
func TestCampaignWorkerInvariance(t *testing.T) {
	base := CampaignConfig{
		Seed: *seedFlag, Runs: 8,
		Hooks: Hooks{AfterRepair: corruptTrackOnDrive},
	}
	serial, parallel := base, base
	serial.Workers, parallel.Workers = 1, 8
	a, err := Campaign(serial)
	if err != nil {
		t.Fatalf("serial campaign: %v", err)
	}
	b, err := Campaign(parallel)
	if err != nil {
		t.Fatalf("parallel campaign: %v", err)
	}
	if len(a.Violations) == 0 {
		t.Fatalf("sabotaged campaign found no violations; seed %d generated no instant repairs — pick another seed", *seedFlag)
	}
	if ja, jb := marshal(t, a), marshal(t, b); string(ja) != string(jb) {
		t.Errorf("workers=1 and workers=8 disagree:\n%s\n%s", ja, jb)
	}
}

// TestCampaignCatchesInjectedRebuildBug is the harness's own acceptance
// test: a deliberately broken repair (one track restored wrong) must be
// caught by the parity checker and shrunk to a short trace.
func TestCampaignCatchesInjectedRebuildBug(t *testing.T) {
	sch := Schedule{
		Scheme: "sr", Disks: 8, ClusterSize: 4, K: 1,
		Titles: 2, TitleGroups: 3, MaxCycles: 60,
		Events: []Event{
			{Cycle: 0, Kind: EventAdmit, Title: "title0"},
			{Cycle: 1, Kind: EventAdmit, Title: "title1"},
			{Cycle: 2, Kind: EventFail, Drive: 1},
			{Cycle: 4, Kind: EventRepair, Drive: 1},
			{Cycle: 5, Kind: EventAdmit, Title: "title0"},
			{Cycle: 6, Kind: EventFail, Drive: 6},
			{Cycle: 8, Kind: EventRepair, Drive: 6},
			{Cycle: 9, Kind: EventCancel, Stream: 0},
			{Cycle: 10, Kind: EventCancel, Stream: 2},
		},
	}
	hooks := Hooks{AfterRepair: corruptTrackOnDrive}
	// The minimal reproduction is one admission (titles are staged to
	// disk only when a stream requests them — without it the farm holds
	// no tracks to corrupt), the failure, and its corrupted repair.
	shrunk := mustCatchAndShrink(t, RunConfig{Schedule: sch, Hooks: hooks}, "parity", 3)
	// The shrunk trace must still reproduce when replayed from the
	// scenario file it is exported as.
	replay, err := ParseSchedule(marshal(t, shrunk))
	if err != nil {
		t.Fatalf("exported trace does not parse: %v", err)
	}
	res2, err := Run(RunConfig{Schedule: *replay, Hooks: hooks})
	if err != nil {
		t.Fatalf("replay run: %v", err)
	}
	if res2.Violation == nil || res2.Violation.Checker != "parity" {
		t.Errorf("shrunk trace did not reproduce from its scenario file: %+v", res2.Violation)
	}
}

// TestScheduleSpecRoundTrip: every generated single-node schedule,
// written out as a scenario file and parsed back, is the same schedule
// and runs to the same result.
func TestScheduleSpecRoundTrip(t *testing.T) {
	for i := 0; i < 200; i++ {
		assertExportExact(t, generateAt(*seedFlag, i, 1))
	}
}

// assertExportExact checks that a schedule exported as JSON (what
// ftmmsim -chaos-out writes) parses back to an equal schedule whose run
// result matches the original run's, ledger and all.
func assertExportExact(t *testing.T, sch Schedule) {
	t.Helper()
	back, err := ParseSchedule(marshal(t, sch))
	if err != nil {
		t.Fatalf("exported schedule does not parse: %v\n%s", err, marshal(t, sch))
	}
	if !reflect.DeepEqual(*back, sch) {
		t.Fatalf("export changed the schedule:\n%s\n%s", marshal(t, sch), marshal(t, back))
	}
	want, err := Run(RunConfig{Schedule: sch})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got, err := Run(RunConfig{Schedule: *back})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if a, b := marshal(t, want), marshal(t, got); string(a) != string(b) {
		t.Fatalf("replay ran differently:\n%s\n%s", a, b)
	}
}

// TestChaosCorpus replays every committed scenario under scenarios/ —
// hand-written drills and shrunk regression traces alike — through the
// one runner under the full checker set; all must hold.
func TestChaosCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no scenarios under scenarios/")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sch, err := ParseSchedule(data)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(RunConfig{Schedule: *sch})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if v := res.Violation; v != nil {
				t.Errorf("%s violation at cycle %d: %s", v.Checker, v.Cycle, v.Detail)
			}
		})
	}
}

// TestCampaignCyclesGolden pins the cycle count of the first runs of the
// two CI smoke campaigns: the runner must walk the same schedules the
// same way, on one node and on three.
func TestCampaignCyclesGolden(t *testing.T) {
	for _, tc := range []struct {
		nodes int
		want  []int
	}{
		{1, []int{19, 27, 23, 18, 18, 18, 17, 24, 17, 29, 19, 18, 19, 22, 30}},
		{3, []int{19, 27, 23, 18, 18, 18, 17, 24, 17, 29}},
	} {
		schemes := SchemeNames()
		for i, want := range tc.want {
			rng := rand.New(rand.NewSource(failure.TrialSeed(1, i)))
			res, err := Run(RunConfig{Schedule: Generate(rng, schemes[i%len(schemes)], tc.nodes)})
			if err != nil {
				t.Fatalf("nodes=%d run %d: %v", tc.nodes, i, err)
			}
			if res.Violation != nil {
				t.Fatalf("nodes=%d run %d: %+v", tc.nodes, i, res.Violation)
			}
			if res.Cycles != want {
				t.Errorf("nodes=%d run %d (%s): %d cycles, want %d", tc.nodes, i, schemes[i%len(schemes)], res.Cycles, want)
			}
		}
	}
}

// mustCatchAndShrink is the injected-bug tests' shared spine: the run
// must end in a violation from the named checker, and Shrink must cut
// the schedule to at most maxEvents events that still reproduce it.
func mustCatchAndShrink(t *testing.T, cfg RunConfig, checker string, maxEvents int) Schedule {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Violation == nil {
		t.Fatalf("injected bug went undetected (want a %s violation)", checker)
	}
	if res.Violation.Checker != checker {
		t.Fatalf("expected the %s checker to fire, got %q: %s", checker, res.Violation.Checker, res.Violation.Detail)
	}
	shrunk := Shrink(cfg, *res.Violation)
	if n := len(shrunk.Events); n > maxEvents {
		t.Errorf("shrunk to %d events, want <= %d: %s", n, maxEvents, marshal(t, shrunk))
	}
	cfg.Schedule = shrunk
	if res, err := Run(cfg); err != nil || res.Violation == nil || res.Violation.Checker != checker {
		t.Errorf("shrunk schedule does not reproduce the %s violation: %+v, %v", checker, res, err)
	}
	return shrunk
}

// generateAt draws the schedule of campaign run i.
func generateAt(seed int64, i, nodes int) Schedule {
	schemes := SchemeNames()
	rng := rand.New(rand.NewSource(failure.TrialSeed(seed, i)))
	return Generate(rng, schemes[i%len(schemes)], nodes)
}

// TestGenerateSerializesSharedGroups checks Generate's one fault rule
// over many schedules per scheme: no two drives that share a parity
// group are ever down at once, yet such pairs are drawn — serialized
// after an instant repair — and so are overlapping failures on drives
// that share none.
func TestGenerateSerializesSharedGroups(t *testing.T) {
	const runs = 3000
	for _, scheme := range SchemeNames() {
		twoFails, shared := 0, 0
		for i := 0; i < runs; i++ {
			s := Generate(rand.New(rand.NewSource(failure.TrialSeed(7, i))), scheme, 1)
			sc, _, err := server.ParseScheme(s.Scheme)
			if err != nil {
				t.Fatal(err)
			}
			lay, err := server.NewLayout(sc, s.Disks, s.ClusterSize, s.FarmUnit(), 1)
			if err != nil {
				t.Fatal(err)
			}
			// down holds each failure's [fail, up] cycles, up being its
			// instant repair's cycle, or never.
			type down struct{ drive, fail, up int }
			var outs []down
			for _, ev := range s.Events {
				if ev.Kind == EventFail {
					outs = append(outs, down{ev.Drive, ev.Cycle, math.MaxInt})
				}
			}
			for _, ev := range s.Events {
				for j := range outs {
					if ev.Kind == EventRepair && ev.Drive == outs[j].drive {
						outs[j].up = ev.Cycle
					}
				}
			}
			if len(outs) == 2 {
				twoFails++
			}
			for a := range outs {
				for _, b := range outs[a+1:] {
					if !lay.SharesGroup(outs[a].drive, b.drive) {
						continue
					}
					shared++
					if outs[a].fail <= b.up && b.fail <= outs[a].up {
						t.Fatalf("%s run %d: drives %d and %d share a group and are down together: %+v", scheme, i, outs[a].drive, b.drive, s.Events)
					}
				}
			}
		}
		t.Logf("%s: %d of %d schedules fail two drives; %d pairs share a group", scheme, twoFails, runs, shared)
		if shared == 0 {
			t.Errorf("%s: no schedule fails two drives that share a group", scheme)
		}
	}
}
