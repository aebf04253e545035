package failure

import (
	"math"
	"testing"

	"ftmm/internal/analytic"
	"ftmm/internal/diskmodel"
	"ftmm/internal/layout"
)

// farm returns the layout of d drives in clusters of c.
func farm(d, c int, placement layout.Placement) *layout.Layout {
	l, err := layout.New(d, c, 1, placement)
	if err != nil {
		panic(err)
	}
	return l
}

// scaled returns a model small enough to Monte-Carlo quickly: MTTF is
// scaled down but stays >> MTTR, preserving the rare-event structure.
func scaled(placement layout.Placement, k int) Model {
	return Model{
		Layout:    farm(40, 4, placement),
		MTTFHours: 500, MTTRHours: 1,
		K: k,
	}
}

// closedForms is the model's design point in package analytic, which
// holds the paper's equations (4)-(6).
func closedForms(m Model) analytic.Config {
	return analytic.Config{
		Disk: diskmodel.Params{MTTFHours: m.MTTFHours, MTTRHours: m.MTTRHours},
		D:    m.disks(), C: m.Layout.GroupWidth() + 1, G: m.Layout.DeclusterGroup(), K: m.K,
	}
}

// scheme names the scheme whose catastrophe closed form fits the
// layout's placement.
func scheme(m Model) analytic.Scheme {
	switch m.Layout.Placement() {
	case layout.IntermixedParity:
		return analytic.ImprovedBandwidth
	case layout.DeclusteredParity:
		return analytic.DeclusteredParity
	}
	return analytic.StreamingRAID
}

// closedMTTFHours is equation (4) or (5) for the model.
func closedMTTFHours(m Model) float64 { return closedForms(m).MTTFCatastrophic(scheme(m)).Hours() }

// closedMTTDSHours is equation (6) for the model.
func closedMTTDSHours(m Model) float64 { return closedForms(m).MTTDS(analytic.NonClustered).Hours() }

func TestValidate(t *testing.T) {
	if err := scaled(layout.DedicatedParity, 3).Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	l := farm(40, 4, layout.DedicatedParity)
	bad := []Model{
		{MTTFHours: 500, MTTRHours: 1},
		{Layout: l, MTTFHours: 0, MTTRHours: 1},
		{Layout: l, MTTFHours: 500, MTTRHours: 0},
		{Layout: l, MTTFHours: 1, MTTRHours: 2},
		{Layout: l, MTTFHours: 500, MTTRHours: 1, K: -1},
	}
	for i, m := range bad {
		if m.Validate() == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

// The dedicated-parity Monte-Carlo MTTF must agree with equation (4).
func TestMTTFDedicatedMatchesAnalytic(t *testing.T) {
	m := scaled(layout.DedicatedParity, 3)
	est, err := m.EstimateMTTF(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := closedMTTFHours(m) // 500²/(40·3·1) = 2083 h
	if math.Abs(est.MeanHours-want) > 4*est.StdErrHours+0.05*want {
		t.Fatalf("MC MTTF = %.0f ± %.0f h, analytic %.0f h", est.MeanHours, est.StdErrHours, want)
	}
}

// The intermixed-parity Monte-Carlo MTTF converges to the exposure the
// placement has, 3(C-1) = 9 drives per failure on three or more
// clusters, so it sits at (2C-1)/(3(C-1)) = 7/9 of the paper's
// equation (5), which counts 2C-1.
func TestMTTFIntermixedMatchesCorrectedForm(t *testing.T) {
	m := scaled(layout.IntermixedParity, 3)
	est, err := m.EstimateMTTF(2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := float64(m.Layout.ClusterSize())
	corrected := m.MTTFHours * m.MTTFHours / (float64(m.disks()) * 3 * (c - 1) * m.MTTRHours)
	if math.Abs(est.MeanHours-corrected) > 4*est.StdErrHours+0.05*corrected {
		t.Fatalf("MC MTTF = %.0f ± %.0f h, 3(C-1) exposure gives %.0f h", est.MeanHours, est.StdErrHours, corrected)
	}
	paper := closedMTTFHours(m)
	if want := (2*c - 1) / (3 * (c - 1)); math.Abs(corrected/paper-want) > 1e-12 {
		t.Fatalf("3(C-1) form / equation (5) = %v, want %v", corrected/paper, want)
	}
	// And it must be clearly below the paper's 2C-1 form and the
	// dedicated-parity MTTF (IB is less reliable, §4).
	if est.MeanHours >= paper {
		t.Fatalf("MC %.0f h >= paper's optimistic form %.0f h", est.MeanHours, paper)
	}
	if est.MeanHours >= closedMTTFHours(scaled(layout.DedicatedParity, 3)) {
		t.Fatal("intermixed MTTF not below dedicated MTTF")
	}
}

// The degradation Monte-Carlo must agree with equation (6). The formula
// is a rare-event approximation (it drops the O(MTTR·D/MTTF) terms), so
// this test scales MTTF less aggressively than the others.
func TestMTTDSMatchesAnalytic(t *testing.T) {
	m := scaled(layout.DedicatedParity, 2)
	m.MTTFHours = 5000
	est, err := m.EstimateMTTDS(2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := closedMTTDSHours(m) // 5000²/(40·39·1) = 16026 h
	if math.Abs(est.MeanHours-want) > 4*est.StdErrHours+0.08*want {
		t.Fatalf("MC MTTDS = %.1f ± %.1f h, analytic %.1f h", est.MeanHours, est.StdErrHours, want)
	}
}

// MTTDS grows enormously with K (each extra overlapping failure is a
// factor of roughly MTTF/(D·MTTR)).
func TestMTTDSGrowsWithK(t *testing.T) {
	m2 := scaled(layout.DedicatedParity, 2)
	m3 := scaled(layout.DedicatedParity, 3)
	e2, err := m2.EstimateMTTDS(400, 4)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := m3.EstimateMTTDS(400, 5)
	if err != nil {
		t.Fatal(err)
	}
	if e3.MeanHours < 3*e2.MeanHours {
		t.Fatalf("K=3 MTTDS (%.0f) not much larger than K=2 (%.0f)", e3.MeanHours, e2.MeanHours)
	}
}

func TestEstimateErrors(t *testing.T) {
	m := scaled(layout.DedicatedParity, 0)
	if _, err := m.EstimateMTTDS(10, 1); err == nil {
		t.Error("K=0 MTTDS accepted")
	}
	if _, err := m.EstimateMTTF(0, 1); err == nil {
		t.Error("zero trials accepted")
	}
	bad := m
	bad.Layout = nil
	if _, err := bad.EstimateMTTF(10, 1); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestDeterminism(t *testing.T) {
	m := scaled(layout.DedicatedParity, 3)
	a, _ := m.EstimateMTTF(50, 42)
	b, _ := m.EstimateMTTF(50, 42)
	if a.MeanHours != b.MeanHours {
		t.Fatal("same seed produced different estimates")
	}
	c, _ := m.EstimateMTTF(50, 43)
	if a.MeanHours == c.MeanHours {
		t.Fatal("different seeds produced identical estimates")
	}
}

// TestWorkerCountInvariance pins the parallel sampler's contract: trial
// i draws from a source derived only from (seed, i), and the summation
// runs in trial order, so the estimate is bit-identical at any worker
// count.
func TestWorkerCountInvariance(t *testing.T) {
	m := scaled(layout.DedicatedParity, 3)
	type est func(trials int, seed int64, workers int) (Estimate, error)
	cases := []struct {
		name string
		fn   est
	}{
		{"mttf", m.EstimateMTTFWorkers},
		{"mttds", m.EstimateMTTDSWorkers},
		{"mttds-nc", m.EstimateMTTDSNonClusteredWorkers},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := tc.fn(64, 7, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				par, err := tc.fn(64, 7, workers)
				if err != nil {
					t.Fatal(err)
				}
				if par != serial {
					t.Fatalf("workers=%d: %+v != serial %+v", workers, par, serial)
				}
			}
		})
	}
}

// Sanity on the closed forms the models are checked against, at the
// paper's scale: package analytic's equations (4)-(6).
func TestAnalyticFormsPaperScale(t *testing.T) {
	m := Model{Layout: farm(100, 5, layout.DedicatedParity), MTTFHours: 300_000, MTTRHours: 1, K: 3}
	if got := closedMTTFHours(m); math.Abs(got-2.25e8) > 1 {
		t.Errorf("analytic MTTF = %v, want 2.25e8", got)
	}
	mi := m
	mi.Layout = farm(100, 5, layout.IntermixedParity)
	if got := closedMTTFHours(mi); math.Abs(got-1e8) > 1 {
		t.Errorf("analytic IB MTTF = %v, want 1e8", got)
	}
	if got := closedMTTDSHours(m); math.Abs(got-2.7e16/970200) > 1e6 {
		t.Errorf("analytic MTTDS = %v", got)
	}
}

// The scheme-faithful Non-clustered degradation must be rarer than the
// generic K-overlapping-failure approximation of equation (6): parity
// drives (1/C of failures) never demand a server, and repeat failures in
// an already-degraded cluster do not either.
func TestNCDegradationRarerThanEquation6(t *testing.T) {
	m := scaled(layout.DedicatedParity, 2)
	m.MTTFHours = 2000
	generic, err := m.EstimateMTTDS(1200, 51)
	if err != nil {
		t.Fatal(err)
	}
	faithful, err := m.EstimateMTTDSNonClustered(1200, 52)
	if err != nil {
		t.Fatal(err)
	}
	if faithful.MeanHours <= generic.MeanHours {
		t.Fatalf("faithful NC MTTDS %.0f h not above generic %.0f h", faithful.MeanHours, generic.MeanHours)
	}
	// The gap must exceed what the parity-drive discount alone gives:
	// demands arrive at (C-1)/C the failure rate, so with K=2 the time
	// scales by at least (C/(C-1))^2 = 16/9.
	minRatio := 16.0 / 9 * 0.85 // sampling slack
	if ratio := faithful.MeanHours / generic.MeanHours; ratio < minRatio {
		t.Fatalf("faithful/generic = %.2f, want >= %.2f", ratio, minRatio)
	}
}

func TestNCDegradationErrors(t *testing.T) {
	m := scaled(layout.DedicatedParity, 0)
	if _, err := m.EstimateMTTDSNonClustered(10, 1); err == nil {
		t.Error("K=0 accepted")
	}
	m.K = 2
	if _, err := m.EstimateMTTDSNonClustered(0, 1); err == nil {
		t.Error("zero trials accepted")
	}
	bad := m
	bad.Layout = nil
	if _, err := bad.EstimateMTTDSNonClustered(10, 1); err == nil {
		t.Error("invalid model accepted")
	}
}
