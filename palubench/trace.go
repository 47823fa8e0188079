package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name (the layer metric it
// feeds, without the "_s" suffix), the span that caused it, and its
// start and end as offsets from the tracer's origin.
type span struct {
	name       string
	parent     int // id of the enclosing span; 0 = none
	start, end time.Duration
}

// tracer records spans in memory. Spans are taken only around calls the
// benchmark makes into the program's public API; nothing inside the
// program is traced. A nil *tracer is inert, so the untraced runs share
// the traced code paths at the cost of one branch per call.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span under parent and returns its id (0 on a nil
// tracer). Ids are 1-based indexes into spans.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: now, end: -1})
	return len(t.spans)
}

// stop closes span id.
func (t *tracer) stop(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// layerTimes is the self time of every span, grouped by span name: a
// span's duration minus the part of its interval that its child spans
// cover. Self times of all spans add up to the busy time of the traced
// run, so each layer's share of the run is its sum over that total.
type layerTimes struct {
	self    map[string]float64   // seconds, summed per name
	samples map[string][]float64 // per-span self seconds, per name
	spans   int
}

func (t *tracer) layers() layerTimes {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	lt := layerTimes{self: map[string]float64{}, samples: map[string][]float64{}, spans: len(spans)}
	for i, s := range spans {
		if s.end < 0 {
			continue // an aborted run leaves spans open; they are not timed
		}
		self := (s.end - s.start - covered(s, children[i+1])).Seconds()
		lt.self[s.name] += self
		lt.samples[s.name] = append(lt.samples[s.name], self)
	}
	return lt
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval. Children of one parent may overlap
// when they run on different goroutines.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.start, parent.start), k.end
		if b < 0 {
			continue
		}
		b = min(b, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration = 0, -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}
