package palu_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"hybridplaw/internal/experiments"
	"hybridplaw/internal/hist"
	"hybridplaw/internal/palu"
)

// The per-degree Eq. (5) implementation the shared-table path replaced,
// kept verbatim as the oracle: three math.Pow calls at every degree.

func legacyEval(c palu.Curve, d int) float64 {
	return math.Pow(float64(d), -c.Alpha) + math.Pow(c.R, float64(1-d))*c.UOverC()
}

func legacyPMF(c palu.Curve, dmax int) ([]float64, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if dmax < 1 {
		return nil, errors.New("palu: dmax must be >= 1")
	}
	out := make([]float64, dmax)
	var z float64
	for d := 1; d <= dmax; d++ {
		v := legacyEval(c, d)
		if v < 0 || math.IsNaN(v) {
			return nil, fmt.Errorf("palu: PALU(%d) = %v not a density (delta %v gives negative star weight)", d, v, c.Delta)
		}
		out[d-1] = v
		z += v
	}
	for i := range out {
		out[i] /= z
	}
	return out, nil
}

func legacyPool(pmf []float64) []float64 {
	out := make([]float64, hist.BinIndex(len(pmf))+1)
	for d := 1; d <= len(pmf); d++ {
		out[hist.BinIndex(d)] += pmf[d-1]
	}
	return out
}

func legacyPooledD(c palu.Curve, dmax int) ([]float64, error) {
	pmf, err := legacyPMF(c, dmax)
	if err != nil {
		return nil, err
	}
	return legacyPool(pmf), nil
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, legacy %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, legacy %v", what, i, got[i], want[i])
		}
	}
}

// TestFigure4MatchesLegacyBits pins the whole Fig. 4 curve family at the
// paper's degree range: every panel × r, pooled by the family path and by
// PooledD, and the PMF, equal to the per-degree oracle bit for bit.
func TestFigure4MatchesLegacyBits(t *testing.T) {
	const dmax = 1 << 20
	for _, panel := range experiments.Figure4Spec() {
		panel := panel
		t.Run(fmt.Sprintf("alpha%g", panel.Alpha), func(t *testing.T) {
			t.Parallel()
			family, err := palu.PooledFamily(panel.Alpha, panel.Delta, panel.Rs, dmax)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range panel.Rs {
				c := palu.Curve{Alpha: panel.Alpha, Delta: panel.Delta, R: r}
				want, err := legacyPMF(c, dmax)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.PMF(dmax)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("r=%g PMF", r), got, want)
				pooled := legacyPool(want)
				sameBits(t, fmt.Sprintf("r=%g family", r), family[i], pooled)
				pd, err := c.PooledD(dmax)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("r=%g PooledD", r), pd, pooled)
			}
		})
	}
}

// TestCurvesMatchLegacyBitsOffFigure covers the parameter corners Fig. 4
// does not reach: δ > 0 (u/c < 0), r close to 1, very large r, and degree
// ranges that end before, at and after the geometric term underflows.
func TestCurvesMatchLegacyBitsOffFigure(t *testing.T) {
	for _, alpha := range []float64{0.5, 1.5, 3.7} {
		for _, delta := range []float64{-0.9, -0.3, 0, 0.4} {
			for _, r := range []float64{1.0001, 1.3, 7, 1e3, math.Inf(1)} {
				for _, dmax := range []int{1, 2, 1000, 1077, 3000} {
					c := palu.Curve{Alpha: alpha, Delta: delta, R: r}
					want, wantErr := legacyPooledD(c, dmax)
					got, err := c.PooledD(dmax)
					if fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Fatalf("%+v dmax %d: error %v, legacy %v", c, dmax, err, wantErr)
					}
					if wantErr == nil {
						sameBits(t, fmt.Sprintf("%+v dmax %d", c, dmax), got, want)
					}
				}
			}
		}
	}
}

// TestCurveErrorsMatchLegacy pins the error paths: a δ whose star weight
// drives PALU(d) negative, and a u/c so large it is infinite (the
// geometric term's underflow then yields 0·∞ = NaN, which the underflow
// cut must not hide), reported with the legacy message through PMF,
// PooledD and the family.
func TestCurveErrorsMatchLegacy(t *testing.T) {
	for _, tc := range []struct {
		c    palu.Curve
		dmax int
	}{
		{palu.Curve{Alpha: 2, Delta: 0.9, R: 1.01}, 5000},
		{palu.Curve{Alpha: 30, Delta: -1 + 0x1p-52, R: 2}, 5000},
		{palu.Curve{Alpha: 2, Delta: -0.5, R: 0.5}, 5000},
		{palu.Curve{Alpha: 2, Delta: -0.5, R: 2}, 0},
	} {
		c, dmax := tc.c, tc.dmax
		_, wantErr := legacyPMF(c, dmax)
		if wantErr == nil {
			t.Fatalf("%+v dmax %d: legacy accepts it", c, dmax)
		}
		if _, err := c.PMF(dmax); fmt.Sprint(err) != wantErr.Error() {
			t.Errorf("%+v PMF(%d): %v, legacy %v", c, dmax, err, wantErr)
		}
		if _, err := c.PooledD(dmax); fmt.Sprint(err) != wantErr.Error() {
			t.Errorf("%+v PooledD(%d): %v, legacy %v", c, dmax, err, wantErr)
		}
		// The family reports the first r that fails, as a loop of
		// PooledD calls would.
		rs := []float64{3, c.R, 5}
		var want error
		for _, r := range rs {
			if _, err := legacyPooledD(palu.Curve{Alpha: c.Alpha, Delta: c.Delta, R: r}, dmax); err != nil {
				want = fmt.Errorf("r=%v: %w", r, err)
				break
			}
		}
		if _, err := palu.PooledFamily(c.Alpha, c.Delta, rs, dmax); fmt.Sprint(err) != want.Error() {
			t.Errorf("%+v PooledFamily(%d): %v, want %v", c, dmax, err, want)
		}
	}
	_, err := (palu.Curve{Alpha: 2, Delta: 0.9, R: 1.01}).PMF(1000)
	if err == nil || err.Error() != "palu: PALU(2) = -0.4658333561888045 not a density (delta 0.9 gives negative star weight)" {
		t.Errorf("negative-density message changed: %v", err)
	}
}

// TestGeometricTermStaysZero checks the premise of the underflow cut on
// a grid of r: once math.Pow(r, 1−d) is 0 it stays 0 for larger d.
func TestGeometricTermStaysZero(t *testing.T) {
	for _, r := range []float64{1.001, 1.0037, 1.01, 1.05, 1.2, 1.8, 2, 3, 11, 35, 200, 1e6} {
		first := 0
		for d := 1; d <= 1<<21; d++ {
			g := math.Pow(r, float64(1-d))
			if first == 0 && g == 0 {
				first = d
			}
			if first != 0 && g != 0 {
				t.Fatalf("r=%v: r^(1-%d) = %v after underflow at d=%d", r, d, g, first)
			}
		}
		if first == 0 {
			t.Fatalf("r=%v: no underflow below 2^21", r)
		}
	}
}

func BenchmarkCurveFamily(b *testing.B) {
	panel := experiments.Figure4Spec()[2]
	for i := 0; i < b.N; i++ {
		if _, err := palu.PooledFamily(panel.Alpha, panel.Delta, panel.Rs, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}
