package scenario

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hybridplaw/internal/obs"
	"hybridplaw/internal/stream"
)

// renderWindow is the per-window fingerprint the equivalence tests
// compare: aggregates plus a histogram property, enough to catch any
// divergence between shared and dedicated replays.
func renderWindow(res *stream.WindowResult) string {
	return fmt.Sprintf("%d:%+v:%d", res.T, res.Aggregates,
		res.Hists[stream.SourcePackets].MaxDegree())
}

// collectScenario streams req and appends each window's fingerprint to
// its slot in got (guarded by mu — the engine may run scenarios
// concurrently).
func collectScenario(name string, req WindowReq, mu *sync.Mutex, got map[string][]string) Scenario {
	return Scenario{
		Name: name, Title: name, Windows: []WindowReq{req},
		Run: func(ctx *Context) (Result, error) {
			var mine []string
			if _, err := ctx.Stream(req, stream.PipelineConfig{},
				stream.FuncSink(func(res *stream.WindowResult) error {
					mine = append(mine, renderWindow(res))
					return nil
				})); err != nil {
				return nil, err
			}
			mu.Lock()
			got[name] = mine
			mu.Unlock()
			return textResult(name), nil
		},
	}
}

// TestSharedReplayExactCounters is the acceptance pin for the
// coordinator: a run whose scenarios declare two unique window keys —
// one shared by three consumers, one private — performs exactly one
// physical replay per unique key, at Workers=1 (park/resume rendezvous)
// and at Workers=4 alike, with the sharing visible in CacheStats.
func TestSharedReplayExactCounters(t *testing.T) {
	shared := WindowReq{Site: testSite(31), NV: 1500, Windows: 2}
	private := WindowReq{Site: testSite(37), NV: 1500, Windows: 1}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var mu sync.Mutex
			got := make(map[string][]string)
			reg := NewRegistry()
			reg.MustRegister(collectScenario("a", shared, &mu, got))
			reg.MustRegister(collectScenario("b", shared, &mu, got))
			reg.MustRegister(collectScenario("c", shared, &mu, got))
			reg.MustRegister(collectScenario("solo", private, &mu, got))
			eng, err := NewEngine(reg, Config{Workers: workers, CacheDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			cs := eng.CacheStats()
			// Exactly one physical replay per unique window key: the
			// shared group's single miss plus the solo scenario's.
			if cs.Hits != 0 || cs.Misses != 2 {
				t.Errorf("hits=%d misses=%d, want 0/2 (one physical replay per key)",
					cs.Hits, cs.Misses)
			}
			if cs.ReplaysSaved != 2 {
				t.Errorf("ReplaysSaved = %d, want 2 (three consumers, one replay)", cs.ReplaysSaved)
			}
			if cs.MaxFanOut != 3 {
				t.Errorf("MaxFanOut = %d, want 3", cs.MaxFanOut)
			}
			// Delivered windows: 3 consumers × 2 shared windows + 1 solo.
			if cs.DeliveredWindows != 7 {
				t.Errorf("DeliveredWindows = %d, want 7", cs.DeliveredWindows)
			}
			for _, name := range []string{"a", "b", "c"} {
				if len(got[name]) != shared.Windows {
					t.Errorf("%s saw %d windows, want %d", name, len(got[name]), shared.Windows)
				}
				if fmt.Sprint(got[name]) != fmt.Sprint(got["a"]) {
					t.Errorf("consumer %s diverged from a:\n%v\n%v", name, got[name], got["a"])
				}
			}
			if len(got["solo"]) != private.Windows {
				t.Errorf("solo saw %d windows, want %d", len(got["solo"]), private.Windows)
			}
		})
	}
}

// TestSharedReplayMatchesUnshared is the byte-identity acceptance
// criterion at the engine level: every consumer's window sequence is
// identical with sharing on and off, with and without the cache.
func TestSharedReplayMatchesUnshared(t *testing.T) {
	req := WindowReq{Site: testSite(41), NV: 2000, Windows: 3}
	collect := func(noShare bool, cacheDir string) map[string][]string {
		var mu sync.Mutex
		got := make(map[string][]string)
		reg := NewRegistry()
		reg.MustRegister(collectScenario("x", req, &mu, got))
		reg.MustRegister(collectScenario("y", req, &mu, got))
		eng, err := NewEngine(reg, Config{
			Workers: 2, CacheDir: cacheDir, NoSharedReplay: noShare,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if want := int64(0); noShare {
			if cs := eng.CacheStats(); cs.ReplaysSaved != want {
				t.Errorf("unshared run saved %d replays", cs.ReplaysSaved)
			}
		}
		return got
	}
	for _, tc := range []struct {
		name  string
		cache bool
	}{{"direct", false}, {"cached", true}} {
		t.Run(tc.name, func(t *testing.T) {
			sharedDir, unsharedDir := "", ""
			if tc.cache {
				sharedDir, unsharedDir = t.TempDir(), t.TempDir()
			}
			shared := collect(false, sharedDir)
			unshared := collect(true, unsharedDir)
			for _, name := range []string{"x", "y"} {
				if len(shared[name]) != req.Windows {
					t.Fatalf("%s: %d windows, want %d", name, len(shared[name]), req.Windows)
				}
				if fmt.Sprint(shared[name]) != fmt.Sprint(unshared[name]) {
					t.Errorf("%s diverges shared vs unshared:\n%v\n%v",
						name, shared[name], unshared[name])
				}
			}
		})
	}
}

// TestSharedReplaySinkErrorIsolation: one consumer's sink failure fails
// that scenario only; its group peer completes from the same physical
// replay.
func TestSharedReplaySinkErrorIsolation(t *testing.T) {
	req := WindowReq{Site: testSite(43), NV: 1000, Windows: 3}
	boom := errors.New("consumer sink exploded")
	reg := NewRegistry()
	reg.MustRegister(Scenario{
		Name: "fragile", Title: "f", Windows: []WindowReq{req},
		Run: func(ctx *Context) (Result, error) {
			_, err := ctx.Stream(req, stream.PipelineConfig{},
				stream.FuncSink(func(res *stream.WindowResult) error {
					if res.T == 1 {
						return boom
					}
					return nil
				}))
			return textResult("f"), err
		},
	})
	var healthyWindows int
	reg.MustRegister(Scenario{
		Name: "healthy", Title: "h", Windows: []WindowReq{req},
		Run: func(ctx *Context) (Result, error) {
			_, err := ctx.Stream(req, stream.PipelineConfig{},
				stream.FuncSink(func(*stream.WindowResult) error {
					healthyWindows++
					return nil
				}))
			return textResult("h"), err
		},
	})
	eng, err := NewEngine(reg, Config{Workers: 2, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	reports, runErr := eng.Run()
	if runErr == nil {
		t.Fatal("fragile scenario's sink error not surfaced")
	}
	byName := map[string]Report{}
	for _, r := range reports {
		byName[r.Scenario.Name] = r
	}
	if !errors.Is(byName["fragile"].Err, boom) {
		t.Errorf("fragile error = %v, want the sink cause", byName["fragile"].Err)
	}
	if byName["healthy"].Err != nil {
		t.Errorf("healthy scenario failed: %v", byName["healthy"].Err)
	}
	if healthyWindows != req.Windows {
		t.Errorf("healthy consumer saw %d windows, want %d", healthyWindows, req.Windows)
	}
	if cs := eng.CacheStats(); cs.ReplaysSaved != 1 || cs.Misses != 1 {
		t.Errorf("stats = %+v, want 1 replay saved on 1 miss", cs)
	}
}

// TestSharedReplayRenounce: a scenario that completes without streaming
// its declared window releases the group; the remaining consumer runs
// the replay alone (fan-out 1, nothing saved) instead of hanging.
func TestSharedReplayRenounce(t *testing.T) {
	req := WindowReq{Site: testSite(47), NV: 1000, Windows: 1}
	reg := NewRegistry()
	reg.MustRegister(Scenario{
		Name: "ghost", Title: "g", Windows: []WindowReq{req},
		Run: func(*Context) (Result, error) {
			return textResult("skipped the stream entirely"), nil
		},
	})
	var mu sync.Mutex
	got := make(map[string][]string)
	reg.MustRegister(collectScenario("keeper", req, &mu, got))
	eng, err := NewEngine(reg, Config{Workers: 1, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got["keeper"]) != req.Windows {
		t.Errorf("keeper saw %d windows, want %d", len(got["keeper"]), req.Windows)
	}
	if cs := eng.CacheStats(); cs.ReplaysSaved != 0 || cs.MaxFanOut != 1 {
		t.Errorf("stats = %+v, want fan-out 1 and nothing saved", cs)
	}
}

// TestSharedReplayDifferentGeometryNotShared: equal cache keys with
// different NV×Windows cuts must not rendezvous — the windows differ —
// but the cache still records the common packet prefix once.
func TestSharedReplayDifferentGeometryNotShared(t *testing.T) {
	site := testSite(53)
	wide := WindowReq{Site: site, NV: 2000, Windows: 1}
	narrow := WindowReq{Site: site, NV: 1000, Windows: 2}
	if wide.Key() != narrow.Key() {
		t.Fatal("test premise broken: keys differ")
	}
	var mu sync.Mutex
	got := make(map[string][]string)
	reg := NewRegistry()
	reg.MustRegister(collectScenario("wide", wide, &mu, got))
	reg.MustRegister(collectScenario("narrow", narrow, &mu, got))
	eng, err := NewEngine(reg, Config{Workers: 2, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	cs := eng.CacheStats()
	if cs.ReplaysSaved != 0 || cs.MaxFanOut != 0 {
		t.Errorf("different geometries shared a replay: %+v", cs)
	}
	if cs.Hits+cs.Misses != 2 || cs.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1 miss + 1 hit (one archive, two replays)",
			cs.Hits, cs.Misses)
	}
	if len(got["wide"]) != 1 || len(got["narrow"]) != 2 {
		t.Errorf("windows = %d/%d, want 1/2", len(got["wide"]), len(got["narrow"]))
	}
}

// TestSharedReplayMetricsEndToEnd pins the coordinator's instrument
// bundle: replays saved, physical shared replays, fanned-out windows,
// and the span timer all reflect one 2-consumer group.
func TestSharedReplayMetricsEndToEnd(t *testing.T) {
	req := WindowReq{Site: testSite(61), NV: 1500, Windows: 2}
	var mu sync.Mutex
	got := make(map[string][]string)
	reg := NewRegistry()
	reg.MustRegister(collectScenario("m1", req, &mu, got))
	reg.MustRegister(collectScenario("m2", req, &mu, got))
	obsReg := obs.NewRegistry()
	eng, err := NewEngine(reg, Config{Workers: 2, CacheDir: t.TempDir(), Metrics: obsReg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	m := eng.Metrics()
	if got := m.SharedReplays.Value(); got != 1 {
		t.Errorf("shared replays counter = %d, want 1", got)
	}
	if got := m.ReplaysSaved.Value(); got != 1 {
		t.Errorf("replays saved counter = %d, want 1", got)
	}
	// Physical run delivered 2 windows; the second consumer's 2 are the
	// fan-out surplus.
	if got := m.FannedOutWindows.Value(); got != 2 {
		t.Errorf("fanned-out windows counter = %d, want 2", got)
	}
	if got := m.SharedReplayTime.Spans(); got != 1 {
		t.Errorf("shared replay spans = %d, want 1", got)
	}
	cs := eng.CacheStats()
	if cs.ReplaysSaved != m.ReplaysSaved.Value() {
		t.Errorf("CacheStats/metrics disagree on ReplaysSaved: %d vs %d",
			cs.ReplaysSaved, m.ReplaysSaved.Value())
	}
}

// TestSharedReplaySoloSelectionUnaffected: selecting a single consumer
// of a shared key leaves no group (nothing to share within the run) and
// the dedicated path's counters are exactly the historical ones.
func TestSharedReplaySoloSelectionUnaffected(t *testing.T) {
	req := WindowReq{Site: testSite(67), NV: 1000, Windows: 1}
	var mu sync.Mutex
	got := make(map[string][]string)
	reg := NewRegistry()
	reg.MustRegister(collectScenario("one", req, &mu, got))
	reg.MustRegister(collectScenario("two", req, &mu, got))
	eng, err := NewEngine(reg, Config{Workers: 2, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run("one"); err != nil {
		t.Fatal(err)
	}
	cs := eng.CacheStats()
	if cs.Misses != 1 || cs.Hits != 0 || cs.ReplaysSaved != 0 || cs.MaxFanOut != 0 {
		t.Errorf("solo selection stats = %+v, want plain 1-miss accounting", cs)
	}
	if len(got["one"]) != 1 || len(got["two"]) != 0 {
		t.Errorf("windows = %d/%d, want 1/0", len(got["one"]), len(got["two"]))
	}
}

// TestSharedReplayUnionKeepFlags: one consumer wants partials, the
// other does not — the union run must hand partials to the one that
// asked and the plain consumer must be unaffected.
func TestSharedReplayUnionKeepFlags(t *testing.T) {
	req := WindowReq{Site: testSite(71), NV: 1500, Windows: 2}
	var partials, plain int
	reg := NewRegistry()
	reg.MustRegister(Scenario{
		Name: "wants-partials", Title: "wp", Windows: []WindowReq{req},
		Run: func(ctx *Context) (Result, error) {
			_, err := ctx.Stream(req, stream.PipelineConfig{KeepPartials: true},
				stream.FuncSink(func(res *stream.WindowResult) error {
					if res.Partial != nil {
						partials++
					}
					return nil
				}))
			return textResult("wp"), err
		},
	})
	reg.MustRegister(Scenario{
		Name: "plain", Title: "p", Windows: []WindowReq{req},
		Run: func(ctx *Context) (Result, error) {
			_, err := ctx.Stream(req, stream.PipelineConfig{},
				stream.FuncSink(func(*stream.WindowResult) error {
					plain++
					return nil
				}))
			return textResult("p"), err
		},
	})
	eng, err := NewEngine(reg, Config{Workers: 2, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if partials != req.Windows {
		t.Errorf("partial-keeping consumer got %d partials, want %d", partials, req.Windows)
	}
	if plain != req.Windows {
		t.Errorf("plain consumer got %d windows, want %d", plain, req.Windows)
	}
	if cs := eng.CacheStats(); cs.ReplaysSaved != 1 {
		t.Errorf("config union prevented sharing: %+v", cs)
	}
}

// TestTimingsSuiteRowUnchanged guards the pinned timings.csv shape
// against the new CacheStats fields.
func TestTimingsSuiteRowUnchanged(t *testing.T) {
	out := Timings(nil, 0, CacheStats{Hits: 3, Misses: 1, ReplaysSaved: 2, MaxFanOut: 3})
	if !strings.Contains(out, "suite,,0.000,3,1\n") {
		t.Errorf("suite row changed: %q", out)
	}
}
