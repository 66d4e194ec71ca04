package stats

import (
	"math"
	"sort"
	"testing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	tests := []struct {
		xs   []float64
		want float64
	}{
		{xs: nil, want: 0},
		{xs: []float64{5}, want: 5},
		{xs: []float64{1, 2, 3, 4}, want: 2.5},
		{xs: []float64{-1, 1}, want: 0},
	}
	for _, tt := range tests {
		if got := Mean(tt.xs); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", tt.xs, got, tt.want)
		}
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEqual(got, 2.138, 0.01) {
		t.Errorf("StdDev = %v, want ≈2.138", got)
	}
	if StdDev([]float64{1}) != 0 {
		t.Error("StdDev of singleton should be 0")
	}
}

func TestMedian(t *testing.T) {
	tests := []struct {
		xs   []float64
		want float64
	}{
		{xs: nil, want: 0},
		{xs: []float64{3, 1, 2}, want: 2},
		{xs: []float64{4, 1, 2, 3}, want: 2.5},
	}
	for _, tt := range tests {
		if got := Median(tt.xs); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Median(%v) = %v, want %v", tt.xs, got, tt.want)
		}
	}
	// Median must not mutate its input.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 {
		t.Error("Median mutated input")
	}
}

func TestCI95(t *testing.T) {
	if CI95([]float64{1}) != 0 {
		t.Error("CI95 of singleton should be 0")
	}
	got := CI95([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if got <= 0 || got > 3 {
		t.Errorf("CI95 = %v out of plausible range", got)
	}
}

func TestLinearFit(t *testing.T) {
	// y = 3x + 1 exactly.
	x := []float64{1, 2, 3, 4}
	y := []float64{4, 7, 10, 13}
	slope, intercept, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(slope, 3, 1e-9) || !almostEqual(intercept, 1, 1e-9) {
		t.Errorf("fit = (%v, %v), want (3, 1)", slope, intercept)
	}
	if _, _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, _, err := LinearFit([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Error("zero x-variance accepted")
	}
}

func TestLogLogSlope(t *testing.T) {
	// y = x² has log-log slope 2.
	x := []float64{1, 2, 4, 8, 16}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = x[i] * x[i]
	}
	slope, err := LogLogSlope(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(slope, 2, 1e-9) {
		t.Errorf("slope = %v, want 2", slope)
	}
	if _, err := LogLogSlope([]float64{0, 1}, []float64{1, 2}); err == nil {
		t.Error("non-positive x accepted")
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(6, 3); got != 2 {
		t.Errorf("Ratio = %v", got)
	}
	if !math.IsNaN(Ratio(1, 0)) {
		t.Error("Ratio(1,0) should be NaN")
	}
}

// StdDev returns the sample standard deviation (0 for fewer than two
// values).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Median returns the median (0 for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval for the mean.
func CI95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return 1.96 * StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Ratio returns a/b, or NaN if b is zero.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}
