package stream

// Multi-consumer sink dispatch (DESIGN.md §14). A Multicast fans every
// completed window of one pipeline run out to several independent
// consumers' sink sets, so N consumers of the same window sequence pay
// one decode + reduce instead of N. Error isolation is per consumer:
// one SinkGroup's failure stops deliveries to that group only, and the
// pipeline itself is cancelled only when every group has failed —
// the shared-replay coordinator in internal/scenario then maps each
// group's own error back to its scenario.

import (
	"errors"
	"fmt"
)

// ErrAllSinkGroupsFailed cancels a multicast pipeline run: every
// consumer's sink group has failed, so decoding further windows would
// feed no one. Per-group causes are on SinkGroup.Err.
var ErrAllSinkGroupsFailed = errors.New("stream: every multicast sink group failed")

// SinkGroup is one consumer's ordered sink set under a Multicast. The
// first sink error is latched: the group receives no further windows,
// Err reports the cause, and sibling groups are unaffected.
type SinkGroup struct {
	// Name identifies the consumer in errors and logs.
	Name string
	// Sinks receive each window in order, exactly as in a dedicated
	// pipeline run.
	Sinks []Sink

	err       error
	delivered int64
}

// Err returns the group's latched sink error (nil while healthy).
func (g *SinkGroup) Err() error { return g.err }

// Delivered returns the number of windows fully delivered to every sink
// of the group.
func (g *SinkGroup) Delivered() int64 { return g.delivered }

// Multicast is a Sink that fans each window out to every group. It is
// not safe for concurrent use by multiple pipelines; a pipeline run
// delivers windows sequentially, which is all it needs.
type Multicast struct {
	groups []*SinkGroup
}

// NewMulticast builds a multicast over the given groups.
func NewMulticast(groups ...*SinkGroup) *Multicast {
	return &Multicast{groups: groups}
}

// Groups returns the underlying groups (for post-run error harvesting).
func (m *Multicast) Groups() []*SinkGroup { return m.groups }

// ConsumeWindow implements Sink: the window is delivered to every
// healthy group in registration order. A group whose sink errors is
// retired with its cause; the error returned to the pipeline is nil
// while at least one group remains healthy and ErrAllSinkGroupsFailed
// once none does.
func (m *Multicast) ConsumeWindow(res *WindowResult) error {
	healthy := 0
	for _, g := range m.groups {
		if g.err != nil {
			continue
		}
		delivered := true
		for _, s := range g.Sinks {
			if err := s.ConsumeWindow(res); err != nil {
				g.err = fmt.Errorf("sink group %q: %w", g.Name, err)
				delivered = false
				break
			}
		}
		if delivered {
			g.delivered++
			healthy++
		}
	}
	if healthy == 0 && len(m.groups) > 0 {
		return ErrAllSinkGroupsFailed
	}
	return nil
}

// UnionConfigs merges the pipeline configurations of several consumers
// of one shared replay into the single configuration the physical run
// uses. Window geometry (NV, MaxWindows) must agree — consumers of one
// shared window sequence cut it identically by construction. The
// retention flags are OR-ed (a consumer that asked for matrices or
// partials gets them; the others simply ignore the extra fields), and
// the throughput knob takes the widest request: Workers is
// result-invariant by the pipeline's own contract, so the union changes
// wall time only, never bytes. Metrics takes the first non-nil bundle.
func UnionConfigs(cfgs ...PipelineConfig) (PipelineConfig, error) {
	if len(cfgs) == 0 {
		return PipelineConfig{}, errors.New("stream: union of zero pipeline configs")
	}
	u := cfgs[0]
	for _, c := range cfgs[1:] {
		if c.NV != u.NV || c.MaxWindows != u.MaxWindows {
			return PipelineConfig{}, fmt.Errorf(
				"stream: cannot union pipeline configs with different window geometry (%d×%d vs %d×%d)",
				u.MaxWindows, u.NV, c.MaxWindows, c.NV)
		}
		u.KeepMatrices = u.KeepMatrices || c.KeepMatrices
		u.KeepPartials = u.KeepPartials || c.KeepPartials
		u.Workers = unionWidth(u.Workers, c.Workers)
		if u.Metrics == nil {
			u.Metrics = c.Metrics
		}
	}
	return u, nil
}

// unionWidth merges two worker requests: any non-positive request
// means "the widest default", which dominates; otherwise the larger
// explicit width wins.
func unionWidth(a, b int) int {
	if a <= 0 || b <= 0 {
		return 0
	}
	if b > a {
		return b
	}
	return a
}
