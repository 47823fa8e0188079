package stream

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// countSink counts windows and optionally fails at a given T.
type countSink struct {
	windows int
	failAt  int // fail on this window index; -1 = never
}

func (s *countSink) ConsumeWindow(res *WindowResult) error {
	if s.failAt >= 0 && res.T == s.failAt {
		return fmt.Errorf("synthetic sink failure at t=%d", res.T)
	}
	s.windows++
	return nil
}

// multicastTrace is a short deterministic packet source.
type multicastTrace struct{ n, i int64 }

func (s *multicastTrace) Next() (Packet, bool) {
	if s.i >= s.n {
		return Packet{}, false
	}
	s.i++
	return Packet{Src: uint32(s.i % 97), Dst: uint32(s.i % 89), Valid: true}, true
}

func (s *multicastTrace) Err() error { return nil }

// TestMulticastFanOut: every group's sinks see every window, identical
// to a dedicated run.
func TestMulticastFanOut(t *testing.T) {
	a1, a2, b := &countSink{failAt: -1}, &countSink{failAt: -1}, &countSink{failAt: -1}
	ga := &SinkGroup{Name: "a", Sinks: []Sink{a1, a2}}
	gb := &SinkGroup{Name: "b", Sinks: []Sink{b}}
	stats, err := Run(&multicastTrace{n: 4000}, PipelineConfig{NV: 1000, Workers: 1},
		NewMulticast(ga, gb))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Windows != 4 {
		t.Fatalf("windows = %d, want 4", stats.Windows)
	}
	for name, s := range map[string]*countSink{"a1": a1, "a2": a2, "b": b} {
		if s.windows != 4 {
			t.Errorf("sink %s saw %d windows, want 4", name, s.windows)
		}
	}
	if ga.Delivered() != 4 || gb.Delivered() != 4 {
		t.Errorf("delivered = %d/%d, want 4/4", ga.Delivered(), gb.Delivered())
	}
	if ga.Err() != nil || gb.Err() != nil {
		t.Errorf("healthy groups report errors: %v, %v", ga.Err(), gb.Err())
	}
}

// TestMulticastErrorIsolation: one group's sink failure retires that
// group only; the pipeline keeps running for the survivors and the
// failed group's cause is preserved.
func TestMulticastErrorIsolation(t *testing.T) {
	bad := &countSink{failAt: 1}
	good := &countSink{failAt: -1}
	gBad := &SinkGroup{Name: "bad", Sinks: []Sink{bad}}
	gGood := &SinkGroup{Name: "good", Sinks: []Sink{good}}
	stats, err := Run(&multicastTrace{n: 4000}, PipelineConfig{NV: 1000, Workers: 1},
		NewMulticast(gBad, gGood))
	if err != nil {
		t.Fatalf("pipeline failed despite a healthy group: %v", err)
	}
	if stats.Windows != 4 || good.windows != 4 {
		t.Errorf("healthy group: %d pipeline windows, %d delivered, want 4/4",
			stats.Windows, good.windows)
	}
	if gBad.Err() == nil || !strings.Contains(gBad.Err().Error(), "synthetic sink failure") {
		t.Errorf("failed group error = %v", gBad.Err())
	}
	if gBad.Delivered() != 1 {
		t.Errorf("failed group delivered = %d, want 1 (window 0 only)", gBad.Delivered())
	}
	if gGood.Err() != nil {
		t.Errorf("healthy group error = %v", gGood.Err())
	}
}

// TestMulticastAllGroupsFailed: when the last group dies the pipeline is
// cancelled with the sentinel, not with one group's private error.
func TestMulticastAllGroupsFailed(t *testing.T) {
	g1 := &SinkGroup{Name: "g1", Sinks: []Sink{&countSink{failAt: 0}}}
	g2 := &SinkGroup{Name: "g2", Sinks: []Sink{&countSink{failAt: 2}}}
	stats, err := Run(&multicastTrace{n: 8000}, PipelineConfig{NV: 1000, Workers: 1},
		NewMulticast(g1, g2))
	if !errors.Is(err, ErrAllSinkGroupsFailed) {
		t.Fatalf("err = %v, want ErrAllSinkGroupsFailed", err)
	}
	// g2 survived windows 0 and 1; the run stopped at its window-2 death.
	if g2.Delivered() != 2 {
		t.Errorf("g2 delivered = %d, want 2", g2.Delivered())
	}
	if stats.Windows > 2 {
		t.Errorf("pipeline kept going after every group died: %d windows", stats.Windows)
	}
	if g1.Err() == nil || g2.Err() == nil {
		t.Errorf("per-group causes lost: %v, %v", g1.Err(), g2.Err())
	}
}

// TestMulticastMatchesDedicatedRuns: a multicast run is byte-identical
// (per-window aggregates and histograms) to each consumer's dedicated
// run.
func TestMulticastMatchesDedicatedRuns(t *testing.T) {
	render := func(res *WindowResult) string {
		return fmt.Sprintf("%d:%+v:%d", res.T, res.Aggregates, res.Hists[SourcePackets].MaxDegree())
	}
	dedicated := func() []string {
		var got []string
		_, err := Run(&multicastTrace{n: 6000}, PipelineConfig{NV: 2000, Workers: 1},
			FuncSink(func(res *WindowResult) error { got = append(got, render(res)); return nil }))
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	var m1, m2 []string
	_, err := Run(&multicastTrace{n: 6000}, PipelineConfig{NV: 2000, Workers: 1},
		NewMulticast(
			&SinkGroup{Name: "m1", Sinks: []Sink{FuncSink(func(res *WindowResult) error { m1 = append(m1, render(res)); return nil })}},
			&SinkGroup{Name: "m2", Sinks: []Sink{FuncSink(func(res *WindowResult) error { m2 = append(m2, render(res)); return nil })}},
		))
	if err != nil {
		t.Fatal(err)
	}
	want := dedicated()
	if fmt.Sprint(m1) != fmt.Sprint(want) || fmt.Sprint(m2) != fmt.Sprint(want) {
		t.Errorf("multicast windows diverge from dedicated run:\nwant %v\n m1  %v\n m2  %v", want, m1, m2)
	}
}

func TestUnionConfigs(t *testing.T) {
	sm := NewMetrics(nil)
	u, err := UnionConfigs(
		PipelineConfig{NV: 1000, MaxWindows: 2, Workers: 2, KeepMatrices: true},
		PipelineConfig{NV: 1000, MaxWindows: 2, Workers: 4, KeepPartials: true, Metrics: sm},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !u.KeepMatrices || !u.KeepPartials {
		t.Errorf("retention flags not OR-ed: %+v", u)
	}
	if u.Workers != 4 {
		t.Errorf("width not max-ed: workers=%d", u.Workers)
	}
	if u.Metrics != sm {
		t.Error("first non-nil metrics bundle not kept")
	}

	// A non-positive width request means "widest default" and dominates.
	u, err = UnionConfigs(
		PipelineConfig{NV: 1000, MaxWindows: 2, Workers: 4},
		PipelineConfig{NV: 1000, MaxWindows: 2, Workers: 0},
	)
	if err != nil || u.Workers != 0 {
		t.Errorf("default width did not dominate: workers=%d err=%v", u.Workers, err)
	}

	if _, err := UnionConfigs(
		PipelineConfig{NV: 1000, MaxWindows: 2},
		PipelineConfig{NV: 2000, MaxWindows: 1},
	); err == nil {
		t.Error("geometry mismatch accepted")
	}
	if _, err := UnionConfigs(); err == nil {
		t.Error("empty union accepted")
	}
}
