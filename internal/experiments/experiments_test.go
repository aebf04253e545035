package experiments

import (
	"math"
	"strings"
	"testing"

	"ftmm/internal/analytic"
	"ftmm/internal/schemes"
)

func TestTable2Render(t *testing.T) {
	res, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"20.0%", "25684.9", "3176862.3", "1041", "966", "1263",
		"10410", "3623", "2612", "10104", "11415.5",
	} {
		if !strings.Contains(res.Text, want) {
			t.Errorf("Table 2 output missing %q:\n%s", want, res.Text)
		}
	}
	if len(res.Metrics) != 4 {
		t.Fatal("metrics count")
	}
}

func TestTable3Render(t *testing.T) {
	res, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"14.3%", "17123.3", "1125", "1035", "1273",
		"15750", "4830", "3254", "15276", "7903.1",
	} {
		if !strings.Contains(res.Text, want) {
			t.Errorf("Table 3 output missing %q:\n%s", want, res.Text)
		}
	}
}

func TestKSweep(t *testing.T) {
	res, err := KSweep()
	if err != nil {
		t.Fatal(err)
	}
	m2 := res.PerDisk["MPEG-2 (4.5 Mb/s)"]
	if len(m2) != len(res.Ks) {
		t.Fatal("series length")
	}
	// Paper's printed values: 14.7, 16.2, 17.4 at k = 1, 2, 10.
	if m2[0] < 14.7 || m2[0] >= 14.8 {
		t.Errorf("k=1: %v", m2[0])
	}
	if m2[1] < 16.2 || m2[1] >= 16.3 {
		t.Errorf("k=2: %v", m2[1])
	}
	if last := m2[len(m2)-1]; last < 17.4 || last >= 17.5 {
		t.Errorf("k=10: %v", last)
	}
}

func TestMTTFExamples(t *testing.T) {
	res, err := MTTFExamples()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.SomeDiskHours-300) > 1e-9 {
		t.Errorf("first failure = %v h", res.SomeDiskHours)
	}
	if math.Abs(res.StreamingRAIDYears-1141.55) > 0.1 {
		t.Errorf("SR MTTF = %v years", res.StreamingRAIDYears)
	}
	if res.FiveFailureYears < 250e6 {
		t.Errorf("5-failure MTTDS = %v years", res.FiveFailureYears)
	}
	if math.Abs(res.ImprovedBWYears-540.7) > 0.5 {
		t.Errorf("IB MTTF = %v years", res.ImprovedBWYears)
	}
}

func TestFig9Shapes(t *testing.T) {
	a, err := Fig9a()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig9b()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cs) != 9 || len(b.Cs) != 9 {
		t.Fatal("C range")
	}
	// 9(b): IB dominates stream capacity everywhere.
	ib := b.Points[analytic.ImprovedBandwidth]
	sr := b.Points[analytic.StreamingRAID]
	for i := range ib {
		if ib[i].MaxStreams <= sr[i].MaxStreams {
			t.Errorf("C=%d: IB streams %v <= SR %v", b.Cs[i], ib[i].MaxStreams, sr[i].MaxStreams)
		}
	}
	// 9(a): NC is the cheapest dedicated-parity scheme at C=10.
	nc := a.Points[analytic.NonClustered]
	sg := a.Points[analytic.StaggeredGroup]
	last := len(nc) - 1
	if !(nc[last].Total < sg[last].Total && sg[last].Total < a.Points[analytic.StreamingRAID][last].Total) {
		t.Error("cost ordering NC < SG < SR at C=10 broken")
	}
}

func TestSizingWorkedExample(t *testing.T) {
	res, err := Sizing(1200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner.Scheme != analytic.NonClustered {
		t.Errorf("winner at 1200 = %v, want Non-clustered", res.Winner.Scheme)
	}
	scarce, err := Sizing(2200)
	if err != nil {
		t.Fatal(err)
	}
	if scarce.Winner.Scheme != analytic.ImprovedBandwidth {
		t.Errorf("winner at 2200 = %v, want Improved-bandwidth", scarce.Winner.Scheme)
	}
}

func TestFig4(t *testing.T) {
	res, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if res.SGPeak != 15 { // C(C+1)/2
		t.Errorf("SG peak = %d, want 15", res.SGPeak)
	}
	if res.SRPeak != 40 { // 2C x 4 streams
		t.Errorf("SR peak = %d, want 40", res.SRPeak)
	}
	if len(res.SG) == 0 || len(res.SR) == 0 {
		t.Fatal("empty occupancy series")
	}
	// Panel (a): the 4 staggered streams' sawtooths interleave into a
	// steady aggregate.
	first := res.SG[5]
	for _, v := range res.SG[5:9] {
		if v != first {
			t.Errorf("staggered aggregate not flat: %v", res.SG[5:9])
			break
		}
	}
	// Panel (b): one lone stream's occupancy is the 4,3,2,1 sawtooth.
	want := []int{4, 3, 2, 1}
	for i := 4; i+4 < len(res.SGOne); i += 4 {
		for j, w := range want {
			if res.SGOne[i+j] != w {
				t.Fatalf("sawtooth broken at cycle %d: got %d want %d", i+j, res.SGOne[i+j], w)
			}
		}
	}
}

func TestNCFailureMatchesFigures(t *testing.T) {
	res, err := NCFailure()
	if err != nil {
		t.Fatal(err)
	}
	// Figure 6/7 use failed disk 2: 6 lost (simple) vs 3 (alternate).
	if got := res.Lost[schemes.SimpleSwitchover][2]; got != 6 {
		t.Errorf("simple losses at disk 2 = %d, want 6 (Fig 6)", got)
	}
	if got := res.Lost[schemes.AlternateSwitchover][2]; got != 3 {
		t.Errorf("alternate losses at disk 2 = %d, want 3 (Fig 7)", got)
	}
	// Alternate never worse, for every failed-disk position.
	for disk := 0; disk < 4; disk++ {
		s := res.Lost[schemes.SimpleSwitchover][disk]
		a := res.Lost[schemes.AlternateSwitchover][disk]
		if a > s {
			t.Errorf("disk %d: alternate %d > simple %d", disk, a, s)
		}
	}
}

func TestIBShift(t *testing.T) {
	res, err := IBShift()
	if err != nil {
		t.Fatal(err)
	}
	if res.MaskedHiccups != 0 || res.MaskedTerminations != 0 {
		t.Errorf("reserved case: hiccups=%d terminations=%d, want 0,0", res.MaskedHiccups, res.MaskedTerminations)
	}
	if res.SaturatedTerminations == 0 {
		t.Error("saturated case produced no degradation")
	}
	// A displaced group whose own parity sits on the failed drive could
	// not shift; the engine terminates instead of hiccuping.
	if res.SaturatedHiccups != 0 {
		t.Errorf("saturated case: %d hiccups, want 0", res.SaturatedHiccups)
	}
	if res.MidCycleHiccups != 1 {
		t.Errorf("mid-cycle hiccups = %d, want 1", res.MidCycleHiccups)
	}
}

func TestMonteCarlo(t *testing.T) {
	res, err := MonteCarlo(400)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatal("row count")
	}
	for i, r := range res.Rows {
		ratio := r.SimulatedHours / r.AnalyticHours
		if i == 1 {
			// Intermixed parity: equation (5) counts an exposure of
			// 2C-1 = 7 drives where the placement has 3(C-1) = 9.
			ratio /= 7.0 / 9
		}
		if ratio < 0.8 || ratio > 1.25 {
			t.Errorf("%s: sim/analytic ratio %.2f outside [0.8,1.25]", r.Name, ratio)
		}
	}
	if _, err := MonteCarlo(0); err != nil { // default trials
		t.Fatal(err)
	}
}
