package experiments

import "fmt"

// Output is one experiment's result: the rendered text plus any
// machine-readable metric values the result type exports.
type Output struct {
	Text string
	// Values maps stable metric names to numbers (nil when the result
	// type exports none). cmd/ftmmbench -json emits these.
	Values map[string]float64
}

// Named is one registered experiment: a stable name, a one-line
// description, and a runner producing its output.
type Named struct {
	Name        string
	Description string
	Run         func(Options) (Output, error)
}

// Options tunes the stochastic experiments.
type Options struct {
	// Trials for Monte-Carlo based experiments (0 = default).
	Trials int
	// RequiredStreams for the sizing experiment (0 = default).
	RequiredStreams float64
}

// DefaultOptions are ftmmbench's flag defaults, what a zero field means,
// and the options EXPERIMENTS.md's generated tables are rendered with.
func DefaultOptions() Options {
	return Options{Trials: 1000, RequiredStreams: 1200}
}

// valuer is implemented by result types that export metric values.
type valuer interface {
	Values() map[string]float64
}

// All returns every experiment in presentation order. cmd/ftmmbench
// iterates this registry; tests assert each entry renders.
func All() []Named {
	render := func(r interface{ Render() string }, err error) (Output, error) {
		if err != nil {
			return Output{}, err
		}
		out := Output{Text: r.Render()}
		if v, ok := r.(valuer); ok {
			out.Values = v.Values()
		}
		return out, nil
	}
	return []Named{
		{"table2", "Table 2: scheme comparison at C=5", func(Options) (Output, error) {
			r, err := Table2()
			return render(r, err)
		}},
		{"table3", "Table 3: scheme comparison at C=7", func(Options) (Output, error) {
			r, err := Table3()
			return render(r, err)
		}},
		{"ksweep", "§2 k-sweep: streams/disk vs tracks per read cycle", func(Options) (Output, error) {
			r, err := KSweep()
			return render(r, err)
		}},
		{"mttf", "§2-§4 inline MTTF/MTTDS examples (1000 disks)", func(Options) (Output, error) {
			r, err := MTTFExamples()
			return render(r, err)
		}},
		{"fig9a", "Figure 9(a): total storage cost vs parity group size", func(Options) (Output, error) {
			r, err := Fig9a()
			return render(r, err)
		}},
		{"fig9b", "Figure 9(b): streams vs parity group size", func(Options) (Output, error) {
			r, err := Fig9b()
			return render(r, err)
		}},
		{"sizing", "§5 worked example: cheapest design for required streams", func(o Options) (Output, error) {
			streams := o.RequiredStreams
			if streams <= 0 {
				streams = DefaultOptions().RequiredStreams
			}
			r, err := Sizing(streams)
			return render(r, err)
		}},
		{"fig4", "Figure 4: staggered-group buffer sawtooth (simulated)", func(Options) (Output, error) {
			r, err := Fig4()
			return render(r, err)
		}},
		{"ncfailure", "Figures 5-7: non-clustered transition losses (simulated)", func(Options) (Output, error) {
			r, err := NCFailure()
			return render(r, err)
		}},
		{"ibshift", "Figure 8: improved-bandwidth shift to the right (simulated)", func(Options) (Output, error) {
			r, err := IBShift()
			return render(r, err)
		}},
		{"montecarlo", "Monte-Carlo validation of equations (4)-(6)", func(o Options) (Output, error) {
			r, err := MonteCarlo(o.Trials)
			return render(r, err)
		}},
		{"intro", "§1 capacity arithmetic (movies and streams per 1000 disks)", func(Options) (Output, error) {
			r, err := Intro()
			return render(r, err)
		}},
		{"rebuildmode", "rebuild mode: online parity rebuild vs tape reload", func(Options) (Output, error) {
			r, err := Rebuild()
			return render(r, err)
		}},
		{"reliability", "closed form vs exact Markov vs Monte-Carlo", func(o Options) (Output, error) {
			r, err := Reliability(o.Trials)
			return render(r, err)
		}},
		{"ablations", "reserve-depth and switchover-policy ablations", func(Options) (Output, error) {
			r, err := Ablations()
			return render(r, err)
		}},
		{"seek", "seek-order validation of the T(r) disk model", func(Options) (Output, error) {
			r, err := Seek()
			return render(r, err)
		}},
		{"prices", "price sensitivity of the §5 sizing conclusions", func(Options) (Output, error) {
			r, err := PriceSensitivity()
			return render(r, err)
		}},
		{"bandwidth", "operational validation of the bandwidth-overhead row", func(Options) (Output, error) {
			r, err := Bandwidth()
			return render(r, err)
		}},
		{"gss", "grouped-sweeping (ref [3]) capacity/buffer tradeoff", func(Options) (Output, error) {
			r, err := GSS()
			return render(r, err)
		}},
	}
}

// Find returns the named experiment.
func Find(name string) (Named, error) {
	for _, e := range All() {
		if e.Name == name {
			return e, nil
		}
	}
	return Named{}, fmt.Errorf("experiments: unknown experiment %q", name)
}
