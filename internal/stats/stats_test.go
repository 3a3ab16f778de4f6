package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool {
	return math.Abs(a-b) < 1e-9 || math.Abs(a-b) < 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almost(got, c.want) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVarianceAndStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := variance(xs); !almost(got, 4) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := Stddev(xs); !almost(got, 2) {
		t.Errorf("Stddev = %v, want 2", got)
	}
	if variance([]float64{3}) != 0 || variance(nil) != 0 {
		t.Error("Variance of <2 points should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v, want -1/7", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("Min/Max of empty should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {62.5, 3.5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile of empty should be 0")
	}
	// Input must not be mutated (it is copied before sorting).
	in := []float64{3, 1, 2}
	Percentile(in, 50)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestMedianAndMAD(t *testing.T) {
	xs := []float64{99, 100, 101, 300}
	if got := Median(xs); !almost(got, 100.5) {
		t.Errorf("Median = %v, want 100.5", got)
	}
	// Deviations from 100.5: 1.5, 0.5, 0.5, 199.5 → MAD = 1.0.
	if got := MAD(xs); !almost(got, 1.0) {
		t.Errorf("MAD = %v, want 1.0", got)
	}
	if MAD(nil) != 0 {
		t.Error("MAD of empty should be 0")
	}
	// A single huge outlier barely moves the MAD but doubles the stddev —
	// that robustness is why the fluctuation detector uses it.
	if Stddev(xs) < 20*MAD(xs) {
		t.Errorf("stddev %v vs MAD %v: outlier did not separate them", Stddev(xs), MAD(xs))
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || !almost(s.Mean, 3) || !almost(s.Min, 1) || !almost(s.Max, 5) || !almost(s.P50, 3) {
		t.Errorf("bad summary: %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	f, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(f.Slope, 2) || !almost(f.Intercept, 1) || !almost(f.R2, 1) {
		t.Errorf("fit = %+v, want slope 2 intercept 1 r2 1", f)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("accepted single point")
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("accepted length mismatch")
	}
	if _, err := LinearFit([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("accepted vertical line")
	}
}

func TestLinearFitFlatData(t *testing.T) {
	f, err := LinearFit([]float64{1, 2, 3}, []float64{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(f.Slope, 0) || !almost(f.Intercept, 4) || !almost(f.R2, 1) {
		t.Errorf("flat fit = %+v", f)
	}
}

// Property: mean is within [min, max]; stddev is non-negative; percentile is
// monotone in p.
func TestQuickSummaryInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	prop := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		if s.Stddev < 0 {
			return false
		}
		last := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := Percentile(xs, p)
			if v < last-1e-9 {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: a least-squares fit of exactly linear data recovers the line.
func TestQuickLinearFitRecoversLine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prop := func(slope, intercept int8, n uint8) bool {
		pts := int(n%20) + 2
		xs := make([]float64, pts)
		ys := make([]float64, pts)
		for i := range xs {
			xs[i] = float64(i)
			ys[i] = float64(slope)*xs[i] + float64(intercept)
		}
		f, err := LinearFit(xs, ys)
		if err != nil {
			return false
		}
		return almost(f.Slope, float64(slope)) && almost(f.Intercept, float64(intercept))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestSummarizeMatchesPerStatistic: Summarize sorts one copy for both
// percentiles; every field must equal, bit for bit, the standalone
// function it stands for — on random inputs with ties, and on inputs
// holding NaNs, where Min and Max (scans) differ from the sorted ends.
func TestSummarizeMatchesPerStatistic(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	check := func(name string, xs []float64) {
		t.Helper()
		s := Summarize(xs)
		want := Summary{N: len(xs), Mean: Mean(xs), Stddev: Stddev(xs), Min: Min(xs), Max: Max(xs),
			P50: Percentile(xs, 50), P99: Percentile(xs, 99)}
		if s.N != want.N || !same(s.Mean, want.Mean) || !same(s.Stddev, want.Stddev) ||
			!same(s.Min, want.Min) || !same(s.Max, want.Max) || !same(s.P50, want.P50) || !same(s.P99, want.P99) {
			t.Errorf("%s: Summarize = %+v, per statistic %+v", name, s, want)
		}
		if mad := MADAboutSorting(slices.Clone(xs), Median(xs)); !same(mad, MAD(xs)) {
			t.Errorf("%s: MADAboutSorting(xs, Median) = %v, MAD = %v", name, mad, MAD(xs))
		}
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 200; i++ {
		xs := make([]float64, rng.Intn(300))
		for j := range xs {
			xs[j] = float64(rng.Intn(50)) + rng.Float64()*float64(rng.Intn(2))
		}
		check("random", xs)
	}
	check("empty", nil)

	nan := math.NaN()
	xs := []float64{3, nan, 1, 7, nan, 2}
	check("NaN", xs)
	if s := Summarize(xs); s.Min != 1 || s.Max != 7 {
		t.Errorf("NaN input: Min %v Max %v, want the scans' 1 and 7", s.Min, s.Max)
	}
	check("leading NaN", []float64{nan, 5, 4})
}
