package netserve

import (
	"testing"
)

// runHotTitle drives one rig with nHot viewers of the hottest title plus
// one witness viewer of another title, all in manual-clock lockstep, and
// returns each consumer's result (hot viewers first, witness last) plus
// the net_merged_tracks counter.
func runHotTitle(t *testing.T, scheme string, cfg rigConfig, nHot int) (*loopRig, []*clientResult, int64) {
	t.Helper()
	r := newLoopRig(t, scheme, cfg)
	clients := make([]*Client, 0, nHot+1)
	for i := 0; i < nHot; i++ {
		c, _ := r.connect(t, r.titles[0])
		clients = append(clients, c)
	}
	witness, _ := r.connect(t, r.titles[1])
	clients = append(clients, witness)

	results := make([]*clientResult, len(clients))
	done := make(chan int, len(clients))
	for i, c := range clients {
		go func(i int, c *Client) {
			results[i] = consume(c)
			c.Close()
			done <- i
		}(i, c)
	}
	r.stepUntilIdle(t, 200)
	for range clients {
		<-done
	}
	merged := r.srv.Metrics().Snapshot().Counters["net_merged_tracks"]
	return r, results, merged
}

// TestMergedBurstBitExactEveryScheme is the merged-burst acceptance
// test: under every scheme, a pack of same-title viewers admitted in the
// same cycle (the Zipf head, lockstep) plus a witness on another title
// all receive bit-exact content. Every scheme's runs take the one
// staging path; under Streaming RAID the engine merges the pack's reads,
// so one staged run is fanned out to every session (asserted via
// net_merged_tracks), while under the other schemes each session's run
// is its own, staged by the same code and never merged.
func TestMergedBurstBitExactEveryScheme(t *testing.T) {
	const nHot = 4
	for _, tc := range []struct {
		scheme     string
		wantShared bool
	}{
		{"sr", true},
		{"sg", false},
		{"nc-simple", false},
		{"ib", false},
	} {
		t.Run(tc.scheme, func(t *testing.T) {
			cfg := defaultRig()
			// Room for the pack: nHot viewers of title0 land on one
			// cluster in the same cycle.
			cfg.slotsPerDisk = nHot + 2
			cfg.groups = 6
			r, results, merged := runHotTitle(t, tc.scheme, cfg, nHot)
			for i := 0; i < nHot; i++ {
				verifyBitExact(t, r, r.titles[0], results[i])
			}
			verifyBitExact(t, r, r.titles[1], results[nHot])
			if tc.wantShared && merged == 0 {
				t.Error("expected merged bursts for the lockstep pack, net_merged_tracks = 0")
			}
			if !tc.wantShared && merged != 0 {
				t.Errorf("unexpected merged bursts: net_merged_tracks = %d", merged)
			}
		})
	}
}
