package stats_test

import (
	"fmt"

	"powerbench/internal/stats"
)

// The paper's analysis step: drop the first and last 10% of a power trace
// (ramp-up and ramp-down transients), then take the arithmetic mean.
func ExampleTrimmedMean() {
	trace := []float64{120, 180, 200, 200, 200, 200, 200, 200, 170, 110}
	fmt.Printf("raw mean:     %.1f W\n", stats.Mean(trace))
	fmt.Printf("trimmed mean: %.1f W\n", stats.TrimmedMean(trace, 0.10))
	// Output:
	// raw mean:     178.0 W
	// trimmed mean: 193.8 W
}

// R² (Eq. 6) measures the similarity between a measured power series and
// the regression model's predictions.
func ExampleRSquared() {
	measured := []float64{1, 2, 3, 4, 5}
	predicted := []float64{1.1, 1.9, 3.2, 3.8, 5.0}
	r2, _ := stats.RSquared(measured, predicted)
	fmt.Printf("R² = %.3f\n", r2)
	// Output:
	// R² = 0.990
}

// Z-scoring unifies the dimensions of regression variables (§VI-A2).
func ExampleNormalization() {
	n := stats.FitNormalization([]float64{10, 20, 30})
	fmt.Printf("z(30) = %.2f\n", n.Apply(30))
	fmt.Printf("z(10) = %.2f\n", n.Apply(10))
	// Output:
	// z(30) = 1.00
	// z(10) = -1.00
}
