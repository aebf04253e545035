package experiments

import (
	"strings"
	"testing"

	"ftmm/internal/analytic"
)

func TestIntro(t *testing.T) {
	res, err := Intro()
	if err != nil {
		t.Fatal(err)
	}
	if res.MPEG2Movies < 300 || res.MPEG2Movies > 340 {
		t.Errorf("MPEG-2 movies = %d", res.MPEG2Movies)
	}
	if res.MPEG1Movies < 900 || res.MPEG1Movies > 1000 {
		t.Errorf("MPEG-1 movies = %d", res.MPEG1Movies)
	}
	if res.MPEG2Streams < 6500 || res.MPEG2Streams > 7200 {
		t.Errorf("MPEG-2 streams = %d", res.MPEG2Streams)
	}
	if res.MPEG1Streams < 20000 || res.MPEG1Streams > 21500 {
		t.Errorf("MPEG-1 streams = %d", res.MPEG1Streams)
	}
	if !strings.Contains(res.Render(), "~6500") {
		t.Error("render missing paper column")
	}
}

func TestRebuild(t *testing.T) {
	res, err := Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	// Doubling the budget halves the cycles (within rounding).
	c4, c8, c32 := res.ParityCycles[4], res.ParityCycles[8], res.ParityCycles[32]
	if c4 == 0 || c8 == 0 || c32 == 0 {
		t.Fatalf("cycles = %v", res.ParityCycles)
	}
	if c8 < c4/2 || c8 > c4/2+1 {
		t.Errorf("budget 8 cycles = %d, want ~%d", c8, c4/2)
	}
	if c32 >= c8 {
		t.Error("bigger budget did not speed rebuild")
	}
	// Tape reload is much slower than even the slowest parity rebuild
	// (mounts plus 4 Mbit/s transfers).
	if res.TertiaryTime <= res.ParityTime {
		t.Errorf("tertiary %v should exceed parity %v", res.TertiaryTime, res.ParityTime)
	}
}

func TestReliability(t *testing.T) {
	res, err := Reliability(800)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatal("rows")
	}
	// MC within 10% of the exact chain for every quantity.
	for _, r := range res.Rows {
		if r.MCOverExact < 0.9 || r.MCOverExact > 1.1 {
			t.Errorf("%s: MC/Markov = %.3f", r.Name, r.MCOverExact)
		}
	}
	// The degradation row exhibits the (K-1)! = 2 factor.
	if f := res.Rows[2].MarkovOverClosed; f < 1.8 || f > 2.2 {
		t.Errorf("MTTDS Markov/closed = %.3f, want ~2", f)
	}
	// The catastrophe rows, dedicated and declustered, are close to the
	// closed form.
	for _, r := range res.Rows[:2] {
		if f := r.MarkovOverClosed; f < 0.95 || f > 1.1 {
			t.Errorf("%s: Markov/closed = %.3f, want ~1", r.Name, f)
		}
	}
	if _, err := Reliability(0); err != nil {
		t.Fatal(err)
	}
}

func TestAblations(t *testing.T) {
	res, err := Ablations()
	if err != nil {
		t.Fatal(err)
	}
	// Each extra buffer server multiplies MTTDS by roughly
	// MTTF/(D·MTTR)·(K)/(D)… — at minimum it must grow by >100x per step
	// at the paper's scale.
	for k := 2; k <= 5; k++ {
		if res.NCServerYears[k] < 100*res.NCServerYears[k-1] {
			t.Errorf("K=%d MTTDS %.3g not >> K=%d %.3g", k, res.NCServerYears[k], k-1, res.NCServerYears[k-1])
		}
	}
	// The IB reserve ablation shows the cliff: terminations without
	// reserve, none with.
	if res.IBReserveTerminations[0] == 0 {
		t.Error("no terminations at zero reserve")
	}
	if res.IBReserveTerminations[1] != 0 {
		t.Error("terminations despite reserve")
	}
}

func TestSeek(t *testing.T) {
	res, err := Seek()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rs {
		if res.WorstSweepMs[r] > res.BoundMs[r] {
			t.Errorf("r=%d: worst sweep %.1f ms exceeds bound %.1f ms", r, res.WorstSweepMs[r], res.BoundMs[r])
		}
	}
	// At the Streaming RAID batch size, unsorted service routinely blows
	// the bound.
	if res.FIFOViolations[52] < res.Trials/2 {
		t.Errorf("FIFO violations at r=52: %d/%d; expected routine", res.FIFOViolations[52], res.Trials)
	}
	if res.FIFOViolations[1] != 0 {
		t.Error("r=1 cannot violate the bound (one seek <= Tseek)")
	}
}

func TestPriceSensitivity(t *testing.T) {
	res, err := PriceSensitivity()
	if err != nil {
		t.Fatal(err)
	}
	for _, cb := range res.Ratios {
		// The 1200-stream winner is a dedicated-parity scheme at every
		// plausible price (IB never wins the storage-bound case).
		if res.WinnerAt1200[cb] == analytic.ImprovedBandwidth {
			t.Errorf("cb=%v: IB won the storage-bound case", cb)
		}
	}
	// SR's optimal cluster shrinks as memory gets pricier (its 2C-per-
	// stream buffers dominate), staying in the small range throughout.
	prev := 100
	for _, cb := range res.Ratios {
		c := res.SRBestC[cb]
		if c > prev || c > 7 || c < 2 {
			t.Errorf("cb=%v: SR best C = %d (prev %d)", cb, c, prev)
		}
		prev = c
	}
	// At cheap-memory prices the crossover lands at the paper's quoted
	// 1500 streams — evidence of the authors' implicit price regime.
	if res.IBCrossover[25] != 1500 {
		t.Errorf("crossover at cb=25 = %d, want 1500 (the paper's figure)", res.IBCrossover[25])
	}
	// The IB crossover moves down as memory gets cheaper relative to
	// disk (IB's buffers are its handicap).
	if res.IBCrossover[25] == 0 {
		t.Error("no crossover found at cheap memory")
	}
	if c25, c400 := res.IBCrossover[25], res.IBCrossover[400]; c400 != 0 && c25 > c400 {
		t.Errorf("crossover at cb=25 (%d) above cb=400 (%d)", c25, c400)
	}
}

func TestBandwidth(t *testing.T) {
	res, err := Bandwidth()
	if err != nil {
		t.Fatal(err)
	}
	// SR/SG read a whole parity group per C-1 delivered tracks: 1.25.
	for _, name := range []string{"Streaming RAID", "Staggered-group"} {
		if got := res.ReadsPerTrack[name]["normal"]; got < 1.24 || got > 1.26 {
			t.Errorf("%s normal reads/track = %.3f, want 1.25", name, got)
		}
	}
	// NC and IB pay no parity bandwidth in normal mode.
	for _, name := range []string{"Non-clustered", "Improved-bandwidth"} {
		if got := res.ReadsPerTrack[name]["normal"]; got < 0.99 || got > 1.01 {
			t.Errorf("%s normal reads/track = %.3f, want 1.0", name, got)
		}
	}
	// Under one failure the *issued* reads never exceed normal mode for
	// SR/SG (the dead drive serves nothing; its track comes from the
	// already-read parity) — the overhead is provisioned bandwidth, and
	// normal operation is what consumes it. Nothing exceeds the 1/C
	// provisioning level.
	for name, modes := range res.ReadsPerTrack {
		if modes["degraded"] > 1.26 {
			t.Errorf("%s degraded reads/track = %.3f, want <= 1.26", name, modes["degraded"])
		}
	}
	for _, name := range []string{"Streaming RAID", "Staggered-group"} {
		m := res.ReadsPerTrack[name]
		if m["degraded"] > m["normal"] {
			t.Errorf("%s: degraded (%.3f) above normal (%.3f)", name, m["degraded"], m["normal"])
		}
	}
}

func TestGSS(t *testing.T) {
	res, err := GSS()
	if err != nil {
		t.Fatal(err)
	}
	// SCAN (g=1) has the highest capacity; capacity never increases
	// with g (per-subcycle positioning seeks eat the budget).
	if res.MaxStreamsAtG[1] == 0 {
		t.Fatal("g=1 infeasible")
	}
	prev := res.MaxStreamsAtG[1]
	for _, g := range []int{2, 3, 4, 6, 8} {
		if res.MaxStreamsAtG[g] > prev {
			t.Errorf("capacity rose from g-1 to g=%d: %d > %d", g, res.MaxStreamsAtG[g], prev)
		}
		prev = res.MaxStreamsAtG[g]
	}
	// Per-stream buffering falls toward 1 as g grows (where feasible).
	if b1 := res.BufferAtCapacity[1] / float64(res.MaxStreamsAtG[1]); b1 != 2 {
		t.Errorf("g=1 buffers/stream = %v, want 2", b1)
	}
}

// Every registered experiment must render non-empty output at reduced
// trial counts (the figure-exact assertions live in the per-experiment
// tests; this pins the registry and the cmd surface).
func TestRegistryAllRender(t *testing.T) {
	names := map[string]bool{}
	for _, e := range All() {
		if names[e.Name] {
			t.Fatalf("duplicate experiment name %q", e.Name)
		}
		names[e.Name] = true
		out, err := e.Run(Options{Trials: 100})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if len(out.Text) < 40 {
			t.Fatalf("%s: output suspiciously short: %q", e.Name, out.Text)
		}
	}
	if len(names) < 19 {
		t.Fatalf("registry has %d experiments; expected the full set", len(names))
	}
	if _, err := Find("table2"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("nope"); err == nil {
		t.Fatal("unknown experiment found")
	}
}
