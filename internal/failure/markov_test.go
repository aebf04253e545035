package failure

import (
	"math"
	"testing"

	"ftmm/internal/layout"
)

// The Markov solution must agree with the Monte-Carlo estimate within
// sampling error, and sit close to the closed form (which drops
// higher-order terms).
func TestMarkovMTTFMatchesMonteCarlo(t *testing.T) {
	m := scaled(layout.DedicatedParity, 3)
	exact, err := m.MarkovMTTFHours()
	if err != nil {
		t.Fatal(err)
	}
	mc, err := m.EstimateMTTF(3000, 21)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mc.MeanHours-exact) > 4*mc.StdErrHours {
		t.Fatalf("Markov %.1f h vs MC %.1f ± %.1f h", exact, mc.MeanHours, mc.StdErrHours)
	}
	// The closed form underestimates slightly; within 10% at this scale.
	closed := closedMTTFHours(m)
	if ratio := exact / closed; ratio < 0.95 || ratio > 1.10 {
		t.Fatalf("Markov/closed ratio = %.3f", ratio)
	}
}

func TestMarkovMTTDSMatchesMonteCarlo(t *testing.T) {
	m := scaled(layout.DedicatedParity, 2)
	m.MTTFHours = 5000
	exact, err := m.MarkovMTTDSHours()
	if err != nil {
		t.Fatal(err)
	}
	mc, err := m.EstimateMTTDS(3000, 22)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mc.MeanHours-exact) > 4*mc.StdErrHours {
		t.Fatalf("Markov %.1f h vs MC %.1f ± %.1f h", exact, mc.MeanHours, mc.StdErrHours)
	}
}

// At the paper's scale the closed forms converge to the Markov solution.
func TestMarkovConvergesToClosedFormAtPaperScale(t *testing.T) {
	m := Model{Layout: farm(100, 5, layout.DedicatedParity), MTTFHours: 300_000, MTTRHours: 1, K: 3}
	exact, err := m.MarkovMTTFHours()
	if err != nil {
		t.Fatal(err)
	}
	closed := closedMTTFHours(m)
	if ratio := exact / closed; math.Abs(ratio-1) > 0.002 {
		t.Fatalf("paper-scale Markov/closed = %.5f, want ~1", ratio)
	}
	// Finding: the paper's equation (6) omits a (K-1)! factor — with j
	// disks under repair the aggregate repair rate is j·mu, so the true
	// mean time to K overlapping failures is (K-1)! times the equation's
	// value. At K=3 the exact chain sits at 2.0x the closed form (the
	// conservative direction: real MTTDS is better than the paper says).
	exactDS, err := m.MarkovMTTDSHours()
	if err != nil {
		t.Fatal(err)
	}
	closedDS := closedMTTDSHours(m)
	if ratio := exactDS / closedDS; math.Abs(ratio-2) > 0.01 {
		t.Fatalf("paper-scale MTTDS Markov/closed = %.5f, want ~(K-1)! = 2", ratio)
	}
}

// Monte-Carlo confirmation of the (K-1)! finding at K=3: the simulation
// agrees with the Markov chain, not with equation (6).
func TestMTTDSFactorialFactorConfirmedByMC(t *testing.T) {
	m := scaled(layout.DedicatedParity, 3)
	m.MTTFHours = 3000
	exact, err := m.MarkovMTTDSHours()
	if err != nil {
		t.Fatal(err)
	}
	mc, err := m.EstimateMTTDS(1500, 31)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mc.MeanHours-exact) > 4*mc.StdErrHours+0.05*exact {
		t.Fatalf("MC %.0f ± %.0f h vs Markov %.0f h", mc.MeanHours, mc.StdErrHours, exact)
	}
	// And it is clearly ~2x the closed form, not ~1x.
	if ratio := mc.MeanHours / closedMTTDSHours(m); ratio < 1.6 {
		t.Fatalf("MC/closed ratio = %.2f; expected the (K-1)! factor to show", ratio)
	}
}

// MTTDS with K=1 is simply the time to first failure, MTTF/D — an exact
// anchor for the solver.
func TestMarkovMTTDSKOne(t *testing.T) {
	m := Model{Layout: farm(50, 5, layout.DedicatedParity), MTTFHours: 1000, MTTRHours: 1, K: 1}
	got, err := m.MarkovMTTDSHours()
	if err != nil {
		t.Fatal(err)
	}
	if want := 1000.0 / 50; math.Abs(got-want) > 1e-9 {
		t.Fatalf("K=1 MTTDS = %v, want %v", got, want)
	}
}

// With C=2 (mirrored pairs) the chain is still well-formed.
func TestMarkovMirroredPairs(t *testing.T) {
	m := Model{Layout: farm(10, 2, layout.DedicatedParity), MTTFHours: 1000, MTTRHours: 1, K: 2}
	got, err := m.MarkovMTTFHours()
	if err != nil {
		t.Fatal(err)
	}
	closed := closedMTTFHours(m) // 1000²/(10·1·1) = 100,000 h
	if ratio := got / closed; ratio < 0.95 || ratio > 1.1 {
		t.Fatalf("mirrored Markov/closed = %.3f", ratio)
	}
}

func TestMarkovErrors(t *testing.T) {
	bad := Model{MTTFHours: 500, MTTRHours: 1}
	if _, err := bad.MarkovMTTFHours(); err == nil {
		t.Error("invalid model accepted")
	}
	if _, err := scaled(layout.IntermixedParity, 3).MarkovMTTFHours(); err == nil {
		t.Error("intermixed parity, whose relation is no partition into cliques, accepted")
	}
	m := scaled(layout.DedicatedParity, 0)
	if _, err := m.MarkovMTTDSHours(); err == nil {
		t.Error("K=0 accepted")
	}
	m.K = 1000
	if _, err := m.MarkovMTTDSHours(); err == nil {
		t.Error("K>D accepted")
	}
	if _, err := solveAbsorption(nil, nil, nil); err == nil {
		t.Error("empty chain accepted")
	}
	// A chain with no absorption anywhere must error, not loop.
	if _, err := solveAbsorption([]float64{0}, []float64{0}, []float64{0}); err == nil {
		t.Error("absorption-free chain accepted")
	}
}

// Monotonicity: faster repair extends MTTF; bigger farms shrink it.
func TestMarkovMonotonicity(t *testing.T) {
	base := scaled(layout.DedicatedParity, 3)
	fast := base
	fast.MTTRHours = 0.5
	tBase, _ := base.MarkovMTTFHours()
	tFast, _ := fast.MarkovMTTFHours()
	if tFast <= tBase {
		t.Fatalf("halving MTTR should raise MTTF: %v <= %v", tFast, tBase)
	}
	big := base
	big.Layout = farm(80, 4, layout.DedicatedParity)
	tBig, _ := big.MarkovMTTFHours()
	if tBig >= tBase {
		t.Fatalf("doubling D should lower MTTF: %v >= %v", tBig, tBase)
	}
}

// Declustered parity's relation splits the farm into cliques of G
// drives (λ >= 1: every pair of a declustering group shares a block),
// so its chain is dedicated parity's with clusters of G, and the
// Monte-Carlo over the same relation agrees with it.
func TestMarkovDeclusteredMatchesMonteCarlo(t *testing.T) {
	lay, err := layout.NewDeclustered(39, 13, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := Model{Layout: lay, MTTFHours: 500, MTTRHours: 0.25, K: 3}
	exact, err := m.MarkovMTTFHours()
	if err != nil {
		t.Fatal(err)
	}
	same := m
	same.Layout = farm(39, 13, layout.DedicatedParity)
	if want, _ := same.MarkovMTTFHours(); exact != want {
		t.Fatalf("declustered chain %v h, dedicated chain over clusters of 13 %v h", exact, want)
	}
	mc, err := m.EstimateMTTF(2000, 23)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mc.MeanHours-exact) > 4*mc.StdErrHours {
		t.Fatalf("Markov %.1f h vs MC %.1f ± %.1f h", exact, mc.MeanHours, mc.StdErrHours)
	}
}
