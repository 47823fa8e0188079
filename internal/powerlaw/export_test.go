package powerlaw

import (
	"sort"

	"hybridplaw/internal/hist"
)

// KSScreen exposes ksScreen to the oracle tests, for an f.Xmin on the
// support of h.
func KSScreen(h *hist.Histogram, f Fit) (float64, error) {
	t := newTail(h)
	return t.ksScreen(sort.SearchInts(t.support, f.Xmin), f)
}

// ScreenEps is the screen's error budget.
const ScreenEps = screenEps

// FitNoKS exposes the golden-section fit of FitAtXmin without its KS
// distance.
func FitNoKS(h *hist.Histogram, xmin int) (Fit, error) {
	t := newTail(h)
	return t.fit(sort.SearchInts(t.support, xmin), xmin)
}
