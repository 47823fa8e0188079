package main

import (
	"fmt"
	"math"
	"sort"
)

// dist summarizes repeated timings: the median, and the highest
// percentile that still has at least ten samples beyond it (none when
// there are fewer than eleven samples).
type dist struct {
	n      int
	median float64
	pct    float64 // 0 = no percentile has ten samples beyond it
	pval   float64
}

// percentiles are the candidates tried, highest first.
var percentiles = []float64{99.9, 99, 95, 90, 75, 50}

func summarize(xs []float64) dist {
	d := dist{n: len(xs)}
	if len(xs) == 0 {
		return d
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		d.median = s[n/2]
	} else {
		d.median = (s[n/2-1] + s[n/2]) / 2
	}
	for _, p := range percentiles {
		rank := int(math.Ceil(p / 100 * float64(n))) // nearest-rank
		if rank >= 1 && n-rank >= 10 {
			d.pct, d.pval = p, s[rank-1]
			break
		}
	}
	return d
}

// String renders the summary with its sample count.
func (d dist) String() string {
	if d.pct == 0 {
		return fmt.Sprintf("median %.4f (n=%d; no percentile has 10 samples beyond it)", d.median, d.n)
	}
	return fmt.Sprintf("median %.4f p%g %.4f (n=%d)", d.median, d.pct, d.pval, d.n)
}
