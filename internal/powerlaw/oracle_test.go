package powerlaw_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/netgen"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/powerlaw"
	"hybridplaw/internal/scenario"
	"hybridplaw/internal/specialfn"
	"hybridplaw/internal/stats"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/xrand"
)

// The CSN scan the screened implementation replaced, kept verbatim as the
// oracle: every golden-section step re-walks the support, and every
// candidate's KS distance calls math.Pow for each integer from xmin to
// the largest degree.

func legacyLogLikelihood(h *hist.Histogram, xmin int, alpha float64) float64 {
	z, err := specialfn.HurwitzZeta(alpha, float64(xmin))
	if err != nil {
		return math.Inf(-1)
	}
	var n int64
	var sumLog float64
	for _, d := range h.Support() {
		if d < xmin {
			continue
		}
		c := h.Count(d)
		n += c
		sumLog += float64(c) * math.Log(float64(d))
	}
	if n == 0 {
		return math.Inf(-1)
	}
	return -float64(n)*math.Log(z) - alpha*sumLog
}

func legacyFitAtXmin(h *hist.Histogram, xmin int) (powerlaw.Fit, error) {
	if h == nil || h.Total() == 0 {
		return powerlaw.Fit{}, errors.New("powerlaw: empty histogram")
	}
	if xmin < 1 {
		return powerlaw.Fit{}, errors.New("powerlaw: xmin must be >= 1")
	}
	var nTail int64
	for _, d := range h.Support() {
		if d >= xmin {
			nTail += h.Count(d)
		}
	}
	if nTail < 2 {
		return powerlaw.Fit{}, fmt.Errorf("powerlaw: only %d observations above xmin=%d", nTail, xmin)
	}
	neg := func(alpha float64) float64 { return -legacyLogLikelihood(h, xmin, alpha) }
	alpha, err := stats.GoldenSection(neg, 1.01, 6, 1e-8)
	if err != nil {
		return powerlaw.Fit{}, err
	}
	fit := powerlaw.Fit{Alpha: alpha, Xmin: xmin, NTail: nTail}
	fit.KS, err = legacyKSDistance(h, fit)
	if err != nil {
		return powerlaw.Fit{}, err
	}
	return fit, nil
}

func legacyKSDistance(h *hist.Histogram, f powerlaw.Fit) (float64, error) {
	z, err := specialfn.HurwitzZeta(f.Alpha, float64(f.Xmin))
	if err != nil {
		return 0, err
	}
	var obs []float64
	var modelCDF []float64
	var cum float64
	var modelCum float64
	var total float64
	support := h.Support()
	for _, d := range support {
		if d >= f.Xmin {
			total += float64(h.Count(d))
		}
	}
	if total == 0 {
		return 0, errors.New("powerlaw: empty tail")
	}
	maxD := support[len(support)-1]
	for d := f.Xmin; d <= maxD; d++ {
		modelCum += math.Pow(float64(d), -f.Alpha) / z
		if c := h.Count(d); c > 0 {
			cum += float64(c) / total
			obs = append(obs, cum)
			modelCDF = append(modelCDF, modelCum)
		}
	}
	var maxDiff float64
	for i := range obs {
		if diff := math.Abs(obs[i] - modelCDF[i]); diff > maxDiff {
			maxDiff = diff
		}
	}
	return maxDiff, nil
}

func legacyFitScan(h *hist.Histogram, maxXmin int) (powerlaw.Fit, error) {
	if h == nil || h.Total() == 0 {
		return powerlaw.Fit{}, errors.New("powerlaw: empty histogram")
	}
	support := h.Support()
	if maxXmin <= 0 {
		maxXmin = support[int(0.9*float64(len(support)-1))]
		if maxXmin < 1 {
			maxXmin = 1
		}
	}
	best := powerlaw.Fit{KS: math.Inf(1)}
	found := false
	for _, xmin := range support {
		if xmin > maxXmin {
			break
		}
		f, err := legacyFitAtXmin(h, xmin)
		if err != nil {
			continue
		}
		if f.KS < best.KS {
			best = f
			found = true
		}
	}
	if !found {
		return powerlaw.Fit{}, errors.New("powerlaw: no viable xmin")
	}
	return best, nil
}

func sameFit(a, b powerlaw.Fit) bool {
	return math.Float64bits(a.Alpha) == math.Float64bits(b.Alpha) &&
		math.Float64bits(a.KS) == math.Float64bits(b.KS) &&
		a.Xmin == b.Xmin && a.NTail == b.NTail
}

type fixture struct {
	name string
	h    *hist.Histogram
}

// oracleFixtures returns the histograms the CSN fit meets in practice:
// the six merged Fig. 3 panel histograms the modelsel tables fit, the
// palu-bench fit histogram (246 support points up to degree 654,185),
// and the zeta-sample fixtures of the other tests.
func oracleFixtures(t testing.TB) []fixture {
	t.Helper()
	var fs []fixture
	for _, spec := range netgen.Figure3Panels() {
		sink := stream.NewEnsembleSink(spec.Quantity)
		req := scenario.WindowReq{Site: spec.Site, NV: spec.NV, Windows: spec.Windows}
		if _, err := scenario.Standalone().Stream(req, stream.PipelineConfig{}, sink); err != nil {
			t.Fatal(err)
		}
		fs = append(fs, fixture{"fig3 " + spec.ID, sink.Merged(spec.Quantity)})
	}
	fs = append(fs, fixture{"palu-bench", benchHistogram(t)})
	fs = append(fs,
		fixture{"zeta 2.3 n3000", zetaSampleHistogram(t, 2.3, 3000, 11)},
		fixture{"zeta 2.2 n50000", zetaSampleHistogram(t, 2.2, 50000, 1)},
	)
	return fs
}

// benchHistogram is palu-bench's fit histogram.
func benchHistogram(t testing.TB) *hist.Histogram {
	t.Helper()
	params, err := palu.FromWeights(2, 2, 1.5, 2.5, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := palu.FastObservedHistogram(params, 300_000, 0.5, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func zetaSampleHistogram(t testing.TB, alpha float64, n int, seed uint64) *hist.Histogram {
	t.Helper()
	r := xrand.New(seed)
	h := hist.New()
	for i := 0; i < n; i++ {
		d, err := r.Zeta(alpha)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// TestCSNMatchesLegacyBits pins the screened scan to the full one: on
// every fixture FitScan returns the legacy Fit bit for bit; for every
// candidate xmin the fitted exponent equals the legacy one and the
// screened KS lies within a tenth of the screen's error budget of the
// exact KS; and FitAtXmin equals the legacy fit on and off the support.
func TestCSNMatchesLegacyBits(t *testing.T) {
	for _, fx := range oracleFixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			want, wantErr := legacyFitScan(fx.h, 0)
			got, err := powerlaw.FitScan(fx.h, 0)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !sameFit(got, want) {
				t.Fatalf("FitScan = %+v, %v; legacy %+v, %v", got, err, want, wantErr)
			}
			support := fx.h.Support()
			maxXmin := support[int(0.9*float64(len(support)-1))]
			var worst float64
			for _, xmin := range support {
				if xmin > maxXmin {
					break
				}
				want, wantErr := legacyFitAtXmin(fx.h, xmin)
				got, err := powerlaw.FitNoKS(fx.h, xmin)
				got.KS = want.KS
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || !sameFit(got, want) {
					t.Fatalf("fit at xmin %d = %+v, %v; legacy %+v, %v", xmin, got, err, want, wantErr)
				}
				if wantErr != nil {
					continue
				}
				screen, err := powerlaw.KSScreen(fx.h, got)
				if err != nil {
					t.Fatal(err)
				}
				worst = math.Max(worst, math.Abs(screen-want.KS))
			}
			if worst >= powerlaw.ScreenEps/10 {
				t.Errorf("screened KS off by %g, budget %g", worst, powerlaw.ScreenEps/10)
			}
			for _, xmin := range []int{0, 1, 2, want.Xmin, want.Xmin + 1, support[len(support)-1]} {
				want, wantErr := legacyFitAtXmin(fx.h, xmin)
				got, err := powerlaw.FitAtXmin(fx.h, xmin)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || !sameFit(got, want) {
					t.Fatalf("FitAtXmin(%d) = %+v, %v; legacy %+v, %v", xmin, got, err, want, wantErr)
				}
			}
		})
	}
}

// BenchmarkFitScanHeavy is the CSN scan on palu-bench's fit histogram,
// the case the per-integer KS walk made slow.
func BenchmarkFitScanHeavy(b *testing.B) {
	h := benchHistogram(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := powerlaw.FitScan(h, 0); err != nil {
			b.Fatal(err)
		}
	}
}
