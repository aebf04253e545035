package server_test

import (
	"math/rand"
	"strings"
	"testing"

	"ftmm/internal/analytic"
	"ftmm/internal/chaos"
	"ftmm/internal/workload"
)

// Server-level soak: a Zipf workload drives requests against every
// scheme while drives fail and get repaired, on the one chaos runner.
// Its checkers keep the delivery bit-exact and complete for every
// finished session, with losses confined to NC transitions.
func TestServerSoak(t *testing.T) {
	for _, scheme := range analytic.Schemes() {
		t.Run(scheme.Abbrev(), func(t *testing.T) {
			serverSoak(t, strings.ToLower(scheme.Abbrev()))
		})
	}
}

// soakSchedule requests a Zipf-picked title every third cycle, 30 in
// all, while a seeded process fails a random drive and later repairs it,
// at most one down at a time.
func soakSchedule(t *testing.T, scheme string) chaos.Schedule {
	t.Helper()
	const titles, requests = 8, 30
	sch := chaos.Schedule{
		Scheme: scheme, Disks: 20, ClusterSize: 5, K: 3,
		Titles: titles, TitleGroups: 6, MaxCycles: 1000,
	}
	gen, err := workload.New(workload.Config{
		Seed: 5, Objects: workload.ObjectNames("title", titles), ZipfS: 0.8, ArrivalsPerSecond: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	failed := -1
	for cycle := 0; cycle < 3*requests+30; cycle++ {
		if cycle%3 == 0 && cycle < 3*requests {
			sch.Events = append(sch.Events, chaos.Event{Cycle: cycle, Kind: chaos.EventAdmit, Title: gen.Pick()})
		}
		switch {
		case failed < 0 && rng.Intn(25) == 0:
			failed = rng.Intn(sch.Disks)
			sch.Events = append(sch.Events, chaos.Event{Cycle: cycle, Kind: chaos.EventFail, Drive: failed})
		case failed >= 0 && rng.Intn(30) == 0:
			sch.Events = append(sch.Events, chaos.Event{Cycle: cycle, Kind: chaos.EventRepair, Drive: failed})
			failed = -1
		}
	}
	return sch
}

func serverSoak(t *testing.T, scheme string) {
	t.Helper()
	sch := soakSchedule(t, scheme)
	res, err := chaos.Run(chaos.RunConfig{Schedule: sch})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Violation; v != nil {
		t.Fatalf("%s violation at cycle %d: %s", v.Checker, v.Cycle, v.Detail)
	}
	if !res.Drained {
		t.Fatal("streams still active")
	}
	if len(res.Sessions) < 20 {
		t.Fatalf("only %d requests admitted; scenario too tight", len(res.Sessions))
	}
	st := res.Nodes[0].Srv.Stats()
	if scheme != "nc" && st.Hiccups != 0 {
		t.Fatalf("%d hiccups under single-failure soak", st.Hiccups)
	}
	if st.Terminated != 0 {
		t.Fatalf("%d terminations", st.Terminated)
	}
	if st.Stagings == 0 {
		t.Fatal("no tertiary stagings recorded")
	}
}
