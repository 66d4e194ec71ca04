// Package stats provides the small statistical helpers the experiment
// harness uses: the mean and least-squares fits
// for scaling-law checks (e.g. "overhead grows linearly in Δ").
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// LinearFit returns the least-squares slope and intercept of y against x.
// It errors on fewer than two points or zero x-variance.
func LinearFit(x, y []float64) (slope, intercept float64, err error) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, 0, fmt.Errorf("stats: need ≥2 paired points, got %d/%d", len(x), len(y))
	}
	mx, my := Mean(x), Mean(y)
	// Products rounded explicitly, so no GOARCH fuses them (DESIGN.md §4).
	var sxx, sxy float64
	for i := range x {
		dx := x[i] - mx
		sxx += float64(dx * dx)
		sxy += float64(dx * (y[i] - my))
	}
	if sxx == 0 {
		return 0, 0, fmt.Errorf("stats: zero variance in x")
	}
	slope = sxy / sxx
	return slope, my - float64(slope*mx), nil
}

// LogLogSlope fits log(y) against log(x) and returns the slope — the
// empirical polynomial exponent of a scaling law. All values must be
// positive.
func LogLogSlope(x, y []float64) (float64, error) {
	lx := make([]float64, len(x))
	ly := make([]float64, len(y))
	for i := range x {
		if x[i] <= 0 || i >= len(y) || y[i] <= 0 {
			return 0, fmt.Errorf("stats: log-log fit needs positive values")
		}
		lx[i] = math.Log(x[i])
		ly[i] = math.Log(y[i])
	}
	slope, _, err := LinearFit(lx, ly)
	return slope, err
}
