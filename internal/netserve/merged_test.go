package netserve

import (
	"testing"
)

// runHotTitle drives one rig with nHot viewers of the hottest title plus
// one witness viewer of another title, all in manual-clock lockstep, and
// returns each consumer's result (hot viewers first, witness last).
// failAt >= 0 fails, at that cycle, the drive holding the hot title's
// first data track of its fourth group.
func runHotTitle(t *testing.T, scheme string, cfg rigConfig, nHot, failAt int) (*loopRig, []*clientResult) {
	t.Helper()
	r := newLoopRig(t, scheme, cfg)
	clients := make([]*Client, 0, nHot+1)
	for i := 0; i < nHot; i++ {
		c, _ := r.connect(t, r.titles[0])
		clients = append(clients, c)
	}
	witness, _ := r.connect(t, r.titles[1])
	clients = append(clients, witness)
	if failAt >= 0 {
		// The title was staged by its first admission, under ns.mu.
		r.ns.mu.Lock()
		obj, err := r.srv.Catalog().Object(r.titles[0])
		r.ns.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		r.ns.ScheduleFailure(failAt, obj.Groups[3].Data[0].Disk)
	}

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
	r.stepUntilBuffersHome(t)
	return r, results
}

// TestMergedBurstBitExactEveryScheme is the lockstep-pack acceptance
// test: under every scheme, a pack of same-title viewers admitted in the
// same cycle (the Zipf head, lockstep) plus a witness on another title
// all receive bit-exact content. Each viewer's read returns the
// platter's one slice, and each session's burst ships it by reference.
// The failure leg fails a data drive under the hot title mid-run, so
// runs mix read tracks with the tracks each sharer reconstructs for
// itself, and every made track must come back to the arena.
func TestMergedBurstBitExactEveryScheme(t *testing.T) {
	const nHot = 4
	for _, tc := range []struct {
		scheme string
		cfg    func(*rigConfig)
	}{
		{scheme: "sr"},
		{scheme: "sg"},
		{scheme: "nc-simple"},
		{scheme: "ib"},
		// Declustered parity over one declustering group of G = 2C-1 = 7
		// drives.
		{scheme: "dc", cfg: func(c *rigConfig) { c.disks = 7 }},
	} {
		t.Run(tc.scheme, func(t *testing.T) {
			for _, leg := range []struct {
				name   string
				failAt int
			}{{"healthy", -1}, {"failure", 2}} {
				t.Run(leg.name, func(t *testing.T) {
					cfg := defaultRig()
					// Room for the pack: nHot viewers of title0 land on
					// one cluster in the same cycle.
					cfg.slotsPerDisk = nHot + 2
					cfg.groups = 6
					if tc.cfg != nil {
						tc.cfg(&cfg)
					}
					r, results := runHotTitle(t, tc.scheme, cfg, nHot, leg.failAt)
					for i := 0; i < nHot; i++ {
						verifyBitExact(t, r, r.titles[0], results[i])
					}
					verifyBitExact(t, r, r.titles[1], results[nHot])
					if recs := r.srv.Stats().Reconstructions; leg.failAt >= 0 && recs == 0 {
						t.Error("the failure leg reconstructed nothing")
					}
				})
			}
		})
	}
}
