package core

import (
	"fmt"

	"repro/internal/stats"
)

// CalibrationPoint is one observation of a calibration sweep: the reset
// value used, the achieved mean sample interval, and the overhead fraction
// (extra run time / unperturbed run time) measured at that reset value.
type CalibrationPoint struct {
	Reset          uint64
	IntervalCycles float64
	OverheadFrac   float64
}

// ResetPlanner answers §V-C's question — "finding a right spot within the
// trade-off needs two relationships: (1) between reset values and overhead
// and (2) between reset values and sample intervals" — by fitting both from
// a calibration sweep:
//
//   - interval(R) ≈ a·R + b  (the paper: "the sample intervals have a
//     strong linearity with the reset values and the deviations are very
//     small"), and
//   - overhead(R) ≈ c/R + d  (overhead is proportional to the sampling
//     rate; the paper's companion study [6] found extra execution time
//     "accurately predictable from the number of samples taken").
type ResetPlanner struct {
	// IntervalFit is the linear fit of interval-vs-reset.
	IntervalFit stats.Fit
	// OverheadFit is the linear fit of overhead-vs-1/reset.
	OverheadFit stats.Fit
	minReset    uint64
	maxReset    uint64
}

// NewResetPlanner fits a planner from at least three calibration points
// with distinct reset values.
func NewResetPlanner(points []CalibrationPoint) (*ResetPlanner, error) {
	if len(points) < 3 {
		return nil, fmt.Errorf("core: planner needs >= 3 calibration points, got %d", len(points))
	}
	xs := make([]float64, len(points))
	invs := make([]float64, len(points))
	ys := make([]float64, len(points))
	ohs := make([]float64, len(points))
	p := &ResetPlanner{minReset: points[0].Reset, maxReset: points[0].Reset}
	for i, pt := range points {
		if pt.Reset == 0 {
			return nil, fmt.Errorf("core: calibration point %d has zero reset", i)
		}
		xs[i] = float64(pt.Reset)
		invs[i] = 1 / float64(pt.Reset)
		ys[i] = pt.IntervalCycles
		ohs[i] = pt.OverheadFrac
		if pt.Reset < p.minReset {
			p.minReset = pt.Reset
		}
		if pt.Reset > p.maxReset {
			p.maxReset = pt.Reset
		}
	}
	var err error
	if p.IntervalFit, err = stats.LinearFit(xs, ys); err != nil {
		return nil, fmt.Errorf("core: interval fit: %w", err)
	}
	if p.OverheadFit, err = stats.LinearFit(invs, ohs); err != nil {
		return nil, fmt.Errorf("core: overhead fit: %w", err)
	}
	if p.IntervalFit.Slope <= 0 {
		return nil, fmt.Errorf("core: interval does not grow with reset (slope %.3g); calibration data suspect", p.IntervalFit.Slope)
	}
	return p, nil
}

// PredictIntervalCycles returns the expected sample interval at reset r.
func (p *ResetPlanner) PredictIntervalCycles(r uint64) float64 {
	return p.IntervalFit.Slope*float64(r) + p.IntervalFit.Intercept
}

// PredictOverheadFrac returns the expected overhead fraction at reset r.
func (p *ResetPlanner) PredictOverheadFrac(r uint64) float64 {
	return p.OverheadFit.Slope/float64(r) + p.OverheadFit.Intercept
}

// ForOverheadBudget returns the smallest (densest) reset value whose
// predicted overhead stays within the budget, clamped to the calibrated
// range. Denser is better: the budget caps perturbation, and the smallest
// admissible R maximizes estimation accuracy (Fig. 9's trade-off).
func (p *ResetPlanner) ForOverheadBudget(frac float64) (uint64, error) {
	if frac <= 0 {
		return 0, fmt.Errorf("core: overhead budget must be positive")
	}
	base := p.OverheadFit.Intercept
	if frac <= base {
		// Even an infinite reset value cannot get under the budget.
		return 0, fmt.Errorf("core: budget %.4f below the rate-independent floor %.4f", frac, base)
	}
	// overhead(R) = c/R + d <= frac  ⇔  R >= c/(frac-d): the smallest
	// admissible R is the densest sampling the budget allows.
	r := p.OverheadFit.Slope / (frac - base)
	if r < float64(p.minReset) {
		return p.minReset, nil
	}
	if r > float64(p.maxReset) {
		return 0, fmt.Errorf("core: budget %.4f needs R > %d, outside the calibrated range (predicted overhead at %d is %.4f)",
			frac, p.maxReset, p.maxReset, p.PredictOverheadFrac(p.maxReset))
	}
	return uint64(r + 0.5), nil
}

// Linearity reports the R² of the interval fit — the quantity behind the
// paper's claim that "the sample interval is predictable from a given
// reset value".
func (p *ResetPlanner) Linearity() float64 { return p.IntervalFit.R2 }
