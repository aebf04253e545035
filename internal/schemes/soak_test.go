package schemes_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ftmm/internal/chaos"
)

// The soak test drives every scheme through randomized failure/repair
// schedules on the one chaos runner, whose checkers hold the paper's
// hard guarantees throughout: every delivered byte is exactly the stored
// byte (reconstruction never fabricates data), sessions never stall or
// reorder, nothing leaks, Non-clustered loses no more than its
// transition bound, and the schemes that promise zero hiccups under
// single failures keep that promise.
func TestSoakRandomFailures(t *testing.T) {
	cases := []struct {
		name, scheme string
		allowHiccup  bool // NC may lose tracks in transitions
	}{
		{"StreamingRAID", "sr", false},
		{"StaggeredGroup", "sg", false},
		{"NonClusteredSimple", "nc-simple", true},
		{"NonClusteredAlternate", "nc", true},
		{"ImprovedBandwidth", "ib", false},
	}
	for _, tc := range cases {
		for seed := int64(0); seed < 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				soakOnce(t, seed, tc.scheme, tc.allowHiccup)
			})
		}
	}
}

// soakSchedule admits one stream of each of six titles, one per cycle,
// then plays a seeded failure/repair process over the streams' lifetime:
// at most one failed drive at a time, the single-failure regime every
// scheme must tolerate.
func soakSchedule(seed int64, scheme string) (chaos.Schedule, int) {
	const nObjects, groups = 6, 30
	sch := chaos.Schedule{
		Scheme: scheme, Disks: 20, ClusterSize: 5, K: 4,
		Titles: nObjects, TitleGroups: groups, MaxCycles: 5000,
	}
	for i := 0; i < nObjects; i++ {
		sch.Events = append(sch.Events, chaos.Event{Cycle: i, Kind: chaos.EventAdmit, Title: fmt.Sprintf("title%d", i)})
	}
	rng := rand.New(rand.NewSource(seed))
	failed, failures := -1, 0
	for cycle := nObjects; cycle < nObjects+groups*4+10; cycle++ {
		switch {
		case failed < 0 && rng.Intn(10) == 0:
			failed = rng.Intn(sch.Disks)
			sch.Events = append(sch.Events, chaos.Event{Cycle: cycle, Kind: chaos.EventFail, Drive: failed})
			failures++
		case failed >= 0 && rng.Intn(12) == 0:
			sch.Events = append(sch.Events, chaos.Event{Cycle: cycle, Kind: chaos.EventRepair, Drive: failed})
			failed = -1
		}
	}
	return sch, failures
}

func soakOnce(t *testing.T, seed int64, scheme string, allowHiccup bool) {
	t.Helper()
	sch, failures := soakSchedule(seed, scheme)
	if failures == 0 {
		t.Fatal("soak injected no failures; lower the odds")
	}
	res, err := chaos.Run(chaos.RunConfig{Schedule: sch})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Violation; v != nil {
		t.Fatalf("%s violation at cycle %d: %s", v.Checker, v.Cycle, v.Detail)
	}
	if !res.Drained {
		t.Fatal("streams still active after soak bound")
	}
	st := res.Nodes[0].Srv.Stats()
	if st.Terminated != 0 {
		t.Fatalf("%d streams terminated under single-failure regime", st.Terminated)
	}
	if !allowHiccup && st.Hiccups != 0 {
		t.Fatalf("%d hiccups despite full masking scheme (failures=%d)", st.Hiccups, failures)
	}
}
