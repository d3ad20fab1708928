package regression

import (
	"math"
	"math/rand"
	"testing"
)

func TestDiagnoseCleanFit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var x [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		a := rng.Float64() * 10
		x = append(x, []float64{a})
		y = append(y, 2*a+1+rng.NormFloat64()*0.3)
	}
	m, err := Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Diagnose(m, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.ResidualMean) > 0.05 {
		t.Errorf("residual mean %v, want ≈0", d.ResidualMean)
	}
	if math.Abs(d.ResidualStdDev-0.3) > 0.05 {
		t.Errorf("residual sd %v, want ≈0.3", d.ResidualStdDev)
	}
	// Independent noise → DW ≈ 2.
	if d.DurbinWatson < 1.7 || d.DurbinWatson > 2.3 {
		t.Errorf("Durbin-Watson %v, want ≈2", d.DurbinWatson)
	}
	if len(d.WorstIndices) != 10 {
		t.Errorf("worst indices = %d", len(d.WorstIndices))
	}
}

func TestDiagnoseSerialCorrelation(t *testing.T) {
	// A slowly drifting unmodelled component (program phases) drives
	// Durbin-Watson far below 2.
	var x [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		a := float64(i) / 40
		x = append(x, []float64{a})
		y = append(y, a+math.Sin(float64(i)/30))
	}
	m, err := Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Diagnose(m, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if d.DurbinWatson > 0.5 {
		t.Errorf("Durbin-Watson %v should flag strong serial correlation", d.DurbinWatson)
	}
}

func TestDiagnoseOutlierDetection(t *testing.T) {
	var x [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		a := float64(i)
		x = append(x, []float64{a})
		y = append(y, 3*a)
	}
	y[42] += 500 // inject an outlier
	m, err := Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Diagnose(m, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if d.WorstIndices[0] != 42 {
		t.Errorf("worst observation = %d, want 42", d.WorstIndices[0])
	}
	if d.MaxAbsStandardized < 3 {
		t.Errorf("outlier z-score %v too small", d.MaxAbsStandardized)
	}
}

func TestDiagnoseErrors(t *testing.T) {
	m := &Model{Coefficients: []float64{1}}
	if _, err := Diagnose(m, nil, nil); err == nil {
		t.Error("empty input should error")
	}
	if _, err := Diagnose(m, [][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
}
