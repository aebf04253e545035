package failure_test

import (
	"fmt"

	"ftmm/internal/analytic"
	"ftmm/internal/failure"
	"ftmm/internal/layout"
)

// Solve the paper's Table 2 reliability point exactly with the
// birth-death chain and compare with equation (4)'s closed form.
func ExampleModel_MarkovMTTFHours() {
	lay, err := layout.New(100, 5, 1, layout.DedicatedParity)
	if err != nil {
		panic(err)
	}
	m := failure.Model{Layout: lay, MTTFHours: 300_000, MTTRHours: 1, K: 3}
	exact, err := m.MarkovMTTFHours()
	if err != nil {
		panic(err)
	}
	closed := analytic.Table1Config(5, 3).MTTFCatastrophic(analytic.StreamingRAID)
	fmt.Printf("closed form: %.1f years\n", float64(closed))
	fmt.Printf("exact chain: %.1f years\n", exact/8760)
	// Output:
	// closed form: 25684.9 years
	// exact chain: 25685.7 years
}
