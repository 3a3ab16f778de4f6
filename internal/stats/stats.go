// Package stats provides the small set of descriptive statistics the
// experiment harness needs: means, standard deviations, percentiles and
// least-squares fits. The paper reports every measurement as
// "averaged over N runs, error bars show the standard deviations" (Fig. 9)
// and argues about linearity between reset values and sample intervals
// (§V-C), so those primitives live here.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// variance returns the population variance of xs, or 0 when len(xs) < 2.
func variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Stddev returns the population standard deviation of xs.
func Stddev(xs []float64) float64 { return math.Sqrt(variance(xs)) }

// Min returns the smallest element of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It copies and sorts its input.
func Percentile(xs []float64, p float64) float64 {
	return percentileSorted(sortedCopy(xs), p)
}

// sortedCopy returns xs copied and sorted, NaNs first.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentileSorted is Percentile over an already sorted slice.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// MAD returns the median absolute deviation from the median — the robust
// spread estimate the fluctuation detector scales by 1.4826 to get a
// stddev-comparable sigma that a single extreme outlier cannot inflate.
func MAD(xs []float64) float64 {
	return MADAboutSorting(append([]float64(nil), xs...), Median(xs))
}

// MADAboutSorting is MAD with the median already known, the median of
// |x − med|, for a caller done with xs: it overwrites xs with the
// deviations and sorts them in place. A caller holding Summarize's P50
// saves MAD's own sort.
func MADAboutSorting(xs []float64, med float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	for i, x := range xs {
		d := x - med
		if d < 0 {
			d = -d
		}
		xs[i] = d
	}
	sort.Float64s(xs)
	return percentileSorted(xs, 50)
}

// MADSigmaFactor converts a MAD into a normal-consistent sigma estimate.
const MADSigmaFactor = 1.4826

// Summary bundles the descriptive statistics reported throughout the
// paper's evaluation: mean, standard deviation and tail percentiles.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
	P50    float64
	P99    float64
}

// Summarize computes a Summary of xs. It sorts one copy for both
// percentiles; Min and Max stay scans, which differ from the ends of the
// sorted copy when xs holds a NaN.
func Summarize(xs []float64) Summary {
	return SummarizeSorting(append([]float64(nil), xs...))
}

// SummarizeSorting is Summarize for a caller done with xs: it takes the
// scans first, in xs's order, then sorts xs in place for the percentiles
// instead of a copy.
func SummarizeSorting(xs []float64) Summary {
	sum := Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Stddev: Stddev(xs),
		Min:    Min(xs),
		Max:    Max(xs),
	}
	sort.Float64s(xs)
	sum.P50, sum.P99 = percentileSorted(xs, 50), percentileSorted(xs, 99)
	return sum
}

// String renders the summary in a compact single-line form.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f p99=%.3f max=%.3f",
		s.N, s.Mean, s.Stddev, s.Min, s.P50, s.P99, s.Max)
}

// Fit is a least-squares linear fit y = Slope*x + Intercept with the
// coefficient of determination R2. §V-C uses exactly this to argue that
// "the sample intervals have a strong linearity with the reset values".
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearFit performs an ordinary least-squares fit of ys against xs.
// It returns an error when the slices differ in length or hold fewer than
// two points, or when all xs are identical (vertical line).
func LinearFit(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("stats: length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return Fit{}, fmt.Errorf("stats: need at least 2 points, got %d", len(xs))
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, fmt.Errorf("stats: all x values identical")
	}
	slope := sxy / sxx
	f := Fit{Slope: slope, Intercept: my - slope*mx}
	if syy == 0 {
		f.R2 = 1 // perfectly flat data is perfectly explained by a flat line
	} else {
		f.R2 = sxy * sxy / (sxx * syy)
	}
	return f, nil
}
