package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	s := time.Second
	tr := &tracer{spans: []span{
		{name: "root", start: 0, end: 10 * s},
		{name: "a", parent: 1, start: 1 * s, end: 4 * s},
		{name: "b", parent: 1, start: 3 * s, end: 6 * s}, // overlaps a on another goroutine
		{name: "c", parent: 2, start: 2 * s, end: 3 * s},
		{name: "open", parent: 1, start: 8 * s, end: -1}, // never stopped: not timed
	}}
	lt := tr.layers()
	want := map[string]float64{"root": 5, "a": 2, "b": 3, "c": 1}
	for name, w := range want {
		if got := lt.self[name]; math.Abs(got-w) > 1e-9 {
			t.Errorf("self[%s] = %v, want %v", name, got, w)
		}
	}
	if _, ok := lt.self["open"]; ok {
		t.Error("an open span was timed")
	}
}

func TestSummarizeKeepsTenSamplesBeyondThePercentile(t *testing.T) {
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	d := summarize(xs)
	if d.median != 10.5 || d.pct != 50 || d.pval != 10 {
		t.Errorf("n=20: got %+v, want median 10.5 and p50 = 10", d)
	}
	if d := summarize(xs[:10]); d.pct != 0 {
		t.Errorf("n=10: got p%v, want no percentile", d.pct)
	}
	xs = make([]float64, 1000)
	if d := summarize(xs); d.pct != 99 {
		t.Errorf("n=1000: got p%v, want p99", d.pct)
	}
}
