package palu

import (
	"errors"
	"fmt"
	"math"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/specialfn"
)

// Curve is the one-parameter PALU degree law of Section VI, Eq. (5):
//
//	PALU(d) ∝ d^{−α} + r^{(1−d)} ((1+δ)^{−α} − 1)
//
// obtained from the reduced degree law c·d^{−α} + u·(Λ/d)^d by the
// geometric approximation (Λ/d)^d ≈ r^{(1−d)} and by aligning u/c with the
// Zipf–Mandelbrot parameters via u/c = (1+δ)^{−α} − 1.
type Curve struct {
	// Alpha and Delta are the Zipf–Mandelbrot parameters being matched.
	Alpha, Delta float64
	// R is the geometric decay base (r > 1 for decaying star terms).
	R float64
}

// Validate checks the curve parameter domain.
func (c Curve) Validate() error {
	switch {
	case math.IsNaN(c.Alpha) || math.IsNaN(c.Delta) || math.IsNaN(c.R):
		return errors.New("palu: NaN curve parameter")
	case c.Alpha <= 0:
		return fmt.Errorf("palu: curve alpha %v must be positive", c.Alpha)
	case c.Delta <= -1:
		return fmt.Errorf("palu: curve delta %v must exceed -1", c.Delta)
	case c.R <= 1:
		return fmt.Errorf("palu: curve r %v must exceed 1", c.R)
	}
	return nil
}

// UOverC returns u/c = (1+δ)^{−α} − 1, the Section VI bridge constant.
func (c Curve) UOverC() float64 {
	return math.Pow(1+c.Delta, -c.Alpha) - 1
}

// Eval returns the unnormalized PALU(d) of Eq. (5).
func (c Curve) Eval(d int) float64 {
	return math.Pow(float64(d), -c.Alpha) + math.Pow(c.R, float64(1-d))*c.UOverC()
}

// PMF returns the normalized PALU(d) probabilities for d = 1..dmax.
func (c Curve) PMF(dmax int) ([]float64, error) {
	if err := c.check(dmax); err != nil {
		return nil, err
	}
	pw := powTable(c.Alpha, dmax)
	head, z, err := c.density(pw, nil)
	if err != nil {
		return nil, err
	}
	copy(pw, head)
	for i := range pw {
		pw[i] /= z
	}
	return pw, nil
}

// PooledD returns the binary-log pooled differential cumulative
// probabilities of the normalized curve over 1..dmax, the quantity plotted
// in Fig. 4.
func (c Curve) PooledD(dmax int) ([]float64, error) {
	if err := c.check(dmax); err != nil {
		return nil, err
	}
	out, _, err := c.pooled(powTable(c.Alpha, dmax), nil)
	return out, err
}

// PooledFamily returns Curve{alpha, delta, r}.PooledD(dmax) for every r in
// rs — one Fig. 4 panel — bit for bit, evaluating the d^{−α} table the
// curves share once instead of once per r. An error names the r it came
// from.
func PooledFamily(alpha, delta float64, rs []float64, dmax int) ([][]float64, error) {
	var pw, buf []float64
	out := make([][]float64, len(rs))
	for i, r := range rs {
		c := Curve{Alpha: alpha, Delta: delta, R: r}
		if err := c.check(dmax); err != nil {
			return nil, fmt.Errorf("r=%v: %w", r, err)
		}
		if pw == nil {
			pw = powTable(alpha, dmax)
		}
		var err error
		if out[i], buf, err = c.pooled(pw, buf); err != nil {
			return nil, fmt.Errorf("r=%v: %w", r, err)
		}
	}
	return out, nil
}

func (c Curve) check(dmax int) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if dmax < 1 {
		return errors.New("palu: dmax must be >= 1")
	}
	return nil
}

// powTable returns pw[d−1] = d^{−α} for d = 1..dmax.
func powTable(alpha float64, dmax int) []float64 {
	pw := make([]float64, dmax)
	for i := range pw {
		pw[i] = math.Pow(float64(i+1), -alpha)
	}
	return pw
}

// density evaluates the unnormalized PALU(d) = d^{−α} + r^{1−d}·u/c of
// Eval for d = 1..len(pw), given pw[d−1] = d^{−α}, and returns the sum z
// taken in ascending d. Only the head of the curve is stored (in buf's
// backing array): once the geometric term r^{1−d} has underflowed to 0 it
// stays 0 for every larger d, and x + 0·u == x exactly for finite u, so
// from there on PALU(d) is pw[d−1] itself, bit for bit.
//
// The cut is exact because math.Pow raises to an integer power by
// repeated squaring with the binary exponent carried apart, so its
// relative error (a few dozen ulps) is far below the factor r by which
// r^{1−d} shrinks per step whenever r^{1−d} can underflow at all below an
// allocatable dmax; TestGeometricTermStaysZero checks the premise.
func (c Curve) density(pw, buf []float64) (head []float64, z float64, err error) {
	u := c.UOverC()
	head = buf[:0]
	for d := 1; d <= len(pw); d++ {
		g := math.Pow(c.R, float64(1-d))
		if g == 0 && !math.IsInf(u, 0) {
			for _, v := range pw[d-1:] {
				z += v
			}
			break
		}
		v := pw[d-1] + g*u
		if v < 0 || math.IsNaN(v) {
			return nil, 0, fmt.Errorf("palu: PALU(%d) = %v not a density (delta %v gives negative star weight)", d, v, c.Delta)
		}
		head = append(head, v)
		z += v
	}
	return head, z, nil
}

// pooled pools the normalized curve over the degrees of pw into binary-log
// bins, adding each PALU(d)/z in ascending d. It also returns the head
// buffer so a caller can reuse it for the next curve.
func (c Curve) pooled(pw, buf []float64) (out, head []float64, err error) {
	head, z, err := c.density(pw, buf)
	if err != nil {
		return nil, buf, err
	}
	out = make([]float64, hist.BinIndex(len(pw))+1)
	for i, v := range head {
		out[hist.BinIndex(i+1)] += v / z
	}
	for d := len(head) + 1; d <= len(pw); d++ {
		out[hist.BinIndex(d)] += pw[d-1] / z
	}
	return out, head, nil
}

// DeltaFromObservation inverts the Section VI parameter bridge
//
//	(1+δ)^{−α} = (U/C) e^{−λp} ζ(α) p^{−α} + 1
//
// returning the Zipf–Mandelbrot offset δ implied by an observation of the
// full PALU model. C must be positive (a coreless network has no
// power-law term to align with).
func DeltaFromObservation(o Observation) (float64, error) {
	if o.Params.C <= 0 {
		return 0, errors.New("palu: delta bridge requires C > 0")
	}
	if o.P <= 0 {
		return 0, errors.New("palu: delta bridge requires p > 0")
	}
	z := specialfn.MustZeta(o.Alpha)
	rhs := (o.Params.U/o.Params.C)*math.Exp(-o.Mu())*z*math.Pow(o.P, -o.Alpha) + 1
	// (1+δ)^{−α} = rhs  →  δ = rhs^{−1/α} − 1.
	return math.Pow(rhs, -1/o.Alpha) - 1, nil
}

// UOverCFromObservation returns u/c = (U/C) e^{−λp} ζ(α) / p^α for the
// observation, the left side of the Section VI bridge.
func UOverCFromObservation(o Observation) (float64, error) {
	if o.Params.C <= 0 {
		return 0, errors.New("palu: u/c requires C > 0")
	}
	if o.P <= 0 {
		return 0, errors.New("palu: u/c requires p > 0")
	}
	z := specialfn.MustZeta(o.Alpha)
	return (o.Params.U / o.Params.C) * math.Exp(-o.Mu()) * z * math.Pow(o.P, -o.Alpha), nil
}

// GeometricRFromMu returns the r that makes the geometric tail r^{(1−d)}
// match the Poisson form (Λ/d)^d at a reference degree dref (erratum E2:
// Λ = e·μ). It gives a principled default for the free parameter r when
// rendering Eq. (5) against a concrete observation.
func GeometricRFromMu(mu float64, dref int) (float64, error) {
	if mu <= 0 {
		return 0, errors.New("palu: geometric r requires mu > 0")
	}
	if dref < 2 {
		return 0, errors.New("palu: reference degree must be >= 2")
	}
	// Solve r^{1-dref} = Po-form(dref)/Po-form(1), i.e. match the decay
	// between d=1 and d=dref of the Poisson pmf ratio.
	p1 := specialfn.PoissonPMF(1, mu)
	pd := specialfn.PoissonPMF(dref, mu)
	if p1 <= 0 || pd <= 0 {
		return 0, errors.New("palu: degenerate Poisson mass for geometric match")
	}
	ratio := pd / p1
	r := math.Pow(ratio, 1/float64(1-dref))
	if r <= 1 {
		return 0, fmt.Errorf("palu: matched r=%v <= 1 (mu too large for geometric tail)", r)
	}
	return r, nil
}
