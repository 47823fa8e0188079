package scenario

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybridplaw/internal/netgen"
	"hybridplaw/internal/obs"
	"hybridplaw/internal/plotio"
	"hybridplaw/internal/stream"
)

// Config configures an Engine.
type Config struct {
	// Workers bounds how many scenarios run concurrently; <= 0 selects
	// GOMAXPROCS, 1 runs the suite serially.
	Workers int
	// OutDir is where Context.WriteArtifact renders artifact files;
	// created on demand. Empty forbids artifact writes.
	OutDir string
	// CacheDir enables the PTRC window cache rooted there. Empty disables
	// caching: every Context.Stream generates traffic directly.
	CacheDir string
	// PipelineWorkers bounds the worker pool of each scenario's inner
	// streaming pipeline; <= 0 divides GOMAXPROCS by the scenario worker
	// count so a parallel suite does not oversubscribe the machine.
	PipelineWorkers int
	// NoSharedReplay disables the shared-replay coordinator: every
	// scenario streams its declared windows through a dedicated pipeline
	// run, as if no other scenario wanted them. The zero value keeps
	// sharing ON — one physical decode + reduce per unique window key
	// per run, fanned out to every consumer. Results are byte-identical
	// either way; the switch exists for A/B measurement and for tests
	// that pin per-consumer cache counters.
	NoSharedReplay bool
	// RecordWorkers sets the pipelined-writer worker count
	// (tracestore.WriterOptions.Workers) used when a window-cache miss
	// records a fresh archive; <= 1 keeps the serial writer. Archives
	// are byte-identical at any value — a throughput knob only.
	RecordWorkers int
	// Metrics, when non-nil, instruments the whole suite against that
	// registry: scheduler spans and occupancy, window-cache counters,
	// and the stream/PTRC bundles injected into every inner pipeline
	// and archive codec (see NewMetrics). Nil strips instrumentation.
	Metrics *obs.Registry
}

// Report is the outcome of one scheduled scenario.
type Report struct {
	// Scenario echoes the descriptor.
	Scenario Scenario
	// Result is the typed result; nil when Err is set.
	Result Result
	// Err is the scenario failure, a dependency-failure propagation, or
	// nil.
	Err error
	// Duration is the wall-clock run time (zero for skipped scenarios).
	Duration time.Duration
	// Artifacts lists the artifact files actually written.
	Artifacts []string
}

// Engine schedules a registry: independent scenarios run concurrently on
// a bounded worker pool; scenarios connected by declared artifacts or by
// a shared cached window run in topological order.
type Engine struct {
	reg   *Registry
	cfg   Config
	cache *WindowCache
	m     *Metrics

	// Shared-replay accounting, merged into CacheStats: replays the
	// coordinator avoided, the widest fan-out it achieved, and the
	// windows it delivered beyond what the cache counters already count.
	replaysSaved    atomic.Int64
	sharedMaxFanOut atomic.Int64
	sharedDelivered atomic.Int64
}

// NewEngine validates the configuration and opens the window cache.
func NewEngine(reg *Registry, cfg Config) (*Engine, error) {
	if reg == nil {
		return nil, errors.New("scenario: nil registry")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{reg: reg, cfg: cfg}
	if cfg.Metrics != nil {
		e.m = NewMetrics(cfg.Metrics)
	}
	if cfg.CacheDir != "" {
		cache, err := NewWindowCache(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		cache.m = e.m
		cache.recordWorkers = cfg.RecordWorkers
		e.cache = cache
	}
	return e, nil
}

// Metrics returns the engine's instrument bundle (nil when Config.
// Metrics was nil).
func (e *Engine) Metrics() *Metrics { return e.m }

// CacheStats snapshots the window-cache counters plus the shared-replay
// accounting. With caching disabled the cache counters are zero but the
// sharing counters still report what the coordinator saved over direct
// generation.
func (e *Engine) CacheStats() CacheStats {
	var cs CacheStats
	if e.cache != nil {
		cs = e.cache.Stats()
	}
	cs.ReplaysSaved = e.replaysSaved.Load()
	cs.MaxFanOut = e.sharedMaxFanOut.Load()
	cs.DeliveredWindows += e.sharedDelivered.Load()
	return cs
}

// noteSharedReplay folds one executed shared replay into the engine's
// accounting: saved dedicated runs, the group's fan-out, and the windows
// delivered to consumers. With a cache, the physical run's own windows
// were already counted by WindowCache.Stream (it saw the multicast as
// one consumer), so only the fan-out surplus is added here.
func (e *Engine) noteSharedReplay(saved, fanOut, delivered, physical int64) {
	e.replaysSaved.Add(saved)
	for {
		cur := e.sharedMaxFanOut.Load()
		if fanOut <= cur || e.sharedMaxFanOut.CompareAndSwap(cur, fanOut) {
			break
		}
	}
	extra := delivered
	if e.cache != nil {
		extra -= physical
	}
	if extra > 0 {
		e.sharedDelivered.Add(extra)
	}
}

// pipelineBudget is the per-scenario inner worker budget for a plan of
// n scenarios: the machine divided by the scenarios that can actually
// run at once — min(Workers, n), not the configured pool size, so a
// small -only selection under a wide pool still gets full-width
// pipelines.
func (e *Engine) pipelineBudget(n int) int {
	if e.cfg.PipelineWorkers > 0 {
		return e.cfg.PipelineWorkers
	}
	concurrent := e.cfg.Workers
	if n < concurrent {
		concurrent = n
	}
	if concurrent < 1 {
		concurrent = 1
	}
	w := runtime.GOMAXPROCS(0) / concurrent
	if w < 1 {
		w = 1
	}
	return w
}

// edge is one outgoing dependency: hard edges carry real data flow
// (declared artifacts) and propagate failures; soft edges are
// ordering-only hints (shared cached windows — the cache's single-flight
// keeps correctness without them, they just schedule the recorder first).
type edge struct {
	to   int
	hard bool
}

// node is one scheduled scenario with its dependency wiring.
type node struct {
	s          Scenario
	indegree   int
	dependents []edge
	skip       error // set when a hard dependency failed; the node is not run
}

// Run executes the named scenarios (all, when names is empty) plus the
// transitive producers of their declared inputs, and returns one report
// per scenario in registration order. The first scenario error is
// returned (with every other report still populated); scheduling errors
// (unknown names, unknown inputs, dependency cycles) fail the whole run.
func (e *Engine) Run(names ...string) ([]Report, error) {
	nodes, groups, err := e.plan(names)
	if err != nil {
		return nil, err
	}
	n := len(nodes)
	budget := e.pipelineBudget(n)
	var coord *coordinator
	var slotc chan int
	var resumec chan chan struct{}
	if len(groups) > 0 {
		coord = newCoordinator(e, groups)
		slotc, resumec = coord.slotc, coord.resumec
	}
	var ready []int
	for i := range nodes {
		if nodes[i].indegree == 0 {
			ready = append(ready, i)
		}
	}
	type completion struct {
		i   int
		rep Report
	}
	done := make(chan completion)
	reports := make([]Report, n)
	// running counts scenarios holding a worker slot; parked counts
	// scenarios alive but waiting inside the shared-replay coordinator
	// with their slot released; resumeQ holds woken consumers waiting to
	// get a slot back. A nil coord leaves slotc/resumec nil, so those
	// select branches never fire and the loop degenerates to the plain
	// worker pool.
	running, completed, parked := 0, 0, 0
	var resumeQ []chan struct{}
	for completed < n {
		// Woken coordinator consumers re-acquire their slot ahead of
		// fresh launches: they hold partial results and finishing them
		// frees memory the launches would stack on top of.
		for len(resumeQ) > 0 && running < e.cfg.Workers {
			close(resumeQ[0])
			resumeQ = resumeQ[1:]
			running++
			parked--
		}
		for running < e.cfg.Workers && len(ready) > 0 {
			i := ready[0]
			ready = ready[1:]
			running++
			go func(i int, nd node) {
				if nd.skip != nil {
					done <- completion{i, Report{Scenario: nd.s, Err: nd.skip}}
					return
				}
				done <- completion{i, e.runOne(nd.s, budget, coord)}
			}(i, nodes[i])
		}
		if running == 0 && len(resumeQ) == 0 {
			// Nothing holds a slot and nothing is launchable. With no
			// parked consumers that is a genuine dependency cycle. With
			// parked consumers, either a rendezvous is waiting on members
			// that can no longer arrive (break it: force the first
			// formable group to run with the consumers it has) or the
			// parked consumers' groups already completed and their
			// resume requests are in flight — breakStalemate finds
			// nothing to force then, and the select below is about to
			// receive the resumes; either way progress is guaranteed.
			if parked == 0 {
				var stuck []string
				for i := range nodes {
					if reports[i].Scenario.Name == "" {
						stuck = append(stuck, nodes[i].s.Name)
					}
				}
				return nil, fmt.Errorf("scenario: dependency cycle among %s", strings.Join(stuck, ", "))
			}
			coord.breakStalemate()
		}
		select {
		case c := <-done:
			running--
			completed++
			reports[c.i] = c.rep
			if coord != nil {
				// The scenario is gone; release any group still expecting
				// it to stream (it finished — or was skipped — without
				// touching some declared window).
				coord.renounce(c.rep.Scenario.Name)
			}
			for _, d := range nodes[c.i].dependents {
				nodes[d.to].indegree--
				if c.rep.Err != nil && d.hard && nodes[d.to].skip == nil {
					nodes[d.to].skip = fmt.Errorf("scenario: dependency %q failed: %w",
						nodes[c.i].s.Name, c.rep.Err)
				}
				if nodes[d.to].indegree == 0 {
					ready = append(ready, d.to)
				}
			}
			sort.Ints(ready)
		case <-slotc:
			// A consumer parked in the coordinator and released its slot.
			running--
			parked++
		case grant := <-resumec:
			resumeQ = append(resumeQ, grant)
		}
	}
	var firstErr error
	for i := range reports {
		if reports[i].Err != nil {
			firstErr = fmt.Errorf("scenario %q: %w", reports[i].Scenario.Name, reports[i].Err)
			break
		}
	}
	return reports, firstErr
}

// plan resolves the selection to its input closure and builds the
// dependency graph — artifact producer → consumer edges always, plus
// record → replay edges between scenarios sharing a cached window key
// when the cache is enabled — and computes the shared-replay groups:
// for each window sequence (cache key + NV×Windows geometry) declared
// by two or more scenarios that no hard edge orders against each other,
// one physical replay can serve all of them. Hard-ordered sharers are
// left out of the group (they cannot rendezvous — one must complete
// before the other starts) and keep today's per-scenario path.
func (e *Engine) plan(names []string) ([]node, map[shareKey]*replayGroup, error) {
	if len(names) == 0 {
		names = e.reg.Names()
	}
	selected := make(map[string]bool)
	var queue []string
	for _, name := range names {
		if _, ok := e.reg.Get(name); !ok {
			return nil, nil, fmt.Errorf("scenario: unknown scenario %q", name)
		}
		if !selected[name] {
			selected[name] = true
			queue = append(queue, name)
		}
	}
	// Close over declared inputs: selecting a consumer pulls in its
	// producers.
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		s, _ := e.reg.Get(name)
		for _, in := range s.Inputs {
			producer, ok := e.reg.Producer(in)
			if !ok {
				return nil, nil, fmt.Errorf("scenario %q: input %q has no registered producer", name, in)
			}
			if !selected[producer] {
				selected[producer] = true
				queue = append(queue, producer)
			}
		}
	}

	var nodes []node
	index := make(map[string]int)
	for _, name := range e.reg.Names() {
		if selected[name] {
			s, _ := e.reg.Get(name)
			index[name] = len(nodes)
			nodes = append(nodes, node{s: s})
		}
	}
	type edgeKey [2]int
	hardness := make(map[edgeKey]bool)
	adj := make([][]int, len(nodes))
	addEdge := func(from, to int, hard bool) {
		if from == to {
			return
		}
		k := edgeKey{from, to}
		if prev, seen := hardness[k]; seen {
			hardness[k] = prev || hard
			return
		}
		hardness[k] = hard
		adj[from] = append(adj[from], to)
	}
	// reaches reports whether `to` is reachable from `from` over the
	// edges added so far.
	reaches := func(from, to int) bool {
		seen := make([]bool, len(nodes))
		stack := []int{from}
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if i == to {
				return true
			}
			if seen[i] {
				continue
			}
			seen[i] = true
			stack = append(stack, adj[i]...)
		}
		return false
	}
	for i := range nodes {
		for _, in := range nodes[i].s.Inputs {
			producer, _ := e.reg.Producer(in)
			addEdge(index[producer], i, true)
		}
	}
	// Shared-replay groups, computed against the hard edges alone: a
	// window sequence declared by >= 2 scenarios is shareable among the
	// subset no hard edge orders (greedy in registration order — an
	// ordered candidate is dropped, keeps its dedicated path, and the
	// rest still share). Soft edges between members are suppressed below:
	// a completes-before-starts hint would deadlock a rendezvous whose
	// members must all be in flight at once.
	groups := make(map[shareKey]*replayGroup)
	sameGroup := make(map[edgeKey]bool)
	if !e.cfg.NoSharedReplay {
		declared := make(map[shareKey][]int)
		reqOf := make(map[shareKey]WindowReq)
		for i := range nodes {
			for _, w := range nodes[i].s.Windows {
				sk := reqShareKey(w)
				if ns := declared[sk]; len(ns) == 0 || ns[len(ns)-1] != i {
					declared[sk] = append(declared[sk], i)
					reqOf[sk] = w
				}
			}
		}
		for sk, members := range declared {
			var kept []int
			for _, j := range members {
				free := true
				for _, i := range kept {
					if reaches(i, j) || reaches(j, i) {
						free = false
						break
					}
				}
				if free {
					kept = append(kept, j)
				}
			}
			if len(kept) < 2 {
				continue
			}
			g := &replayGroup{req: reqOf[sk], expected: make(map[string]bool, len(kept))}
			for _, i := range kept {
				g.expected[nodes[i].s.Name] = true
				for _, j := range kept {
					sameGroup[edgeKey{i, j}] = true
				}
			}
			groups[sk] = g
		}
	}
	if e.cache != nil {
		recorder := make(map[string]int) // window key -> first scenario needing it
		for i := range nodes {
			for _, w := range nodes[i].s.Windows {
				key := w.Key()
				first, ok := recorder[key]
				if !ok {
					recorder[key] = i
					continue
				}
				// Ordering-only hint: schedule the first sharer (the
				// recorder) before its replayers. Skipped when it would
				// close a cycle against the artifact edges — the cache
				// single-flights per key, so any execution order is
				// correct; this edge only keeps worker slots from
				// blocking on the recording lock. Also skipped between
				// members of one shared-replay group, which rendezvous
				// instead of taking turns.
				if !sameGroup[edgeKey{first, i}] && !reaches(i, first) {
					addEdge(first, i, false)
				}
			}
		}
	}
	// Materialize deterministically (sorted edges, not map order).
	keys := make([]edgeKey, 0, len(hardness))
	for k := range hardness {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	for _, k := range keys {
		nodes[k[0]].dependents = append(nodes[k[0]].dependents, edge{to: k[1], hard: hardness[k]})
		nodes[k[1]].indegree++
	}
	return nodes, groups, nil
}

// runOne executes a single scenario with panic isolation. pipeWorkers
// is the scenario's inner worker budget; coord (may be nil) is the
// run's shared-replay coordinator, routed into the Context.
func (e *Engine) runOne(s Scenario, pipeWorkers int, coord *coordinator) (rep Report) {
	rep.Scenario = s
	ctx := &Context{eng: e, scen: s, pipeWorkers: pipeWorkers, coord: coord}
	start := time.Now()
	sp := e.m.runStart()
	defer func() {
		rep.Duration = time.Since(start)
		rep.Artifacts = ctx.writtenNames()
		if p := recover(); p != nil {
			rep.Result = nil
			rep.Err = fmt.Errorf("scenario %q panicked: %v", s.Name, p)
		}
		e.m.runEnd(sp, rep.Err != nil)
	}()
	rep.Result, rep.Err = s.Run(ctx)
	return rep
}

// Summarize renders reports into the deterministic suite summary
// (summary.txt): registration-ordered sections, no timings, failures
// recorded in place.
func Summarize(reports []Report) string {
	var b strings.Builder
	for _, r := range reports {
		fmt.Fprintf(&b, "== %s ==\n", r.Scenario.Title)
		if r.Err != nil {
			fmt.Fprintf(&b, "FAILED: %v\n", r.Err)
		} else if r.Result != nil {
			b.WriteString(r.Result.Summary())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Context is a scenario's handle onto the engine during Run: it enforces
// the scenario's declarations while providing streaming and artifact
// output.
type Context struct {
	eng         *Engine
	scen        Scenario
	pipeWorkers int          // inner worker budget; 0 = full width (standalone)
	coord       *coordinator // shared-replay coordinator of this run; nil = no sharing

	mu      sync.Mutex
	written []string
}

// Standalone returns a context detached from any engine: Stream
// generates traffic directly (no cache, no declaration checks, inner
// pipeline at full width) and WriteArtifact is unavailable. It backs the
// thin compatibility wrappers around the legacy Run* experiment
// functions.
func Standalone() *Context { return &Context{} }

func (c *Context) writtenNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]string(nil), c.written...)
	sort.Strings(out)
	return out
}

// declared reports whether req matches a declared window of the running
// scenario (by cache key).
func (c *Context) declared(req WindowReq) bool {
	key := req.Key()
	for _, w := range c.scen.Windows {
		if w.Key() == key {
			return true
		}
	}
	return false
}

// Stream runs the scenario's declared traffic window set through the
// streaming pipeline: cfg's window geometry (NV, MaxWindows) is taken
// from req, and the packets come from the window cache when the engine
// has one (recorded once, replayed thereafter) or from direct synthetic
// generation otherwise. Both paths deliver float-identical windows; a
// short replay (stale or truncated archive) is an error, never a
// silently truncated result.
func (c *Context) Stream(req WindowReq, cfg stream.PipelineConfig, sinks ...stream.Sink) (stream.PipelineStats, error) {
	if err := req.Validate(); err != nil {
		return stream.PipelineStats{}, err
	}
	cfg.NV, cfg.MaxWindows = req.NV, req.Windows
	if c.eng != nil {
		if !c.declared(req) {
			return stream.PipelineStats{}, fmt.Errorf(
				"scenario %q: window (site %q, %d×%d) not declared in Windows",
				c.scen.Name, req.Site.Name, req.Windows, req.NV)
		}
		if cfg.Workers <= 0 {
			cfg.Workers = c.pipeWorkers
		}
		if cfg.Metrics == nil {
			cfg.Metrics = c.eng.m.streamMetrics()
		}
		// Shared replay first: when other runnable scenarios declared the
		// same window sequence, the coordinator runs one physical replay
		// for the whole group and fans the windows out to every
		// consumer's sinks. Unhandled requests (single-consumer keys,
		// hard-ordered sharers, groups that already ran) fall through to
		// the dedicated cache or direct path, byte-identically.
		if c.coord != nil {
			if stats, err, handled := c.coord.stream(c.scen.Name, req, cfg, sinks); handled {
				return stats, err
			}
		}
		if c.eng.cache != nil {
			return c.eng.cache.Stream(req, cfg, sinks...)
		}
	}
	site, err := netgen.NewSite(req.Site)
	if err != nil {
		return stream.PipelineStats{}, err
	}
	stats, err := stream.Run(site.PacketSource(), cfg, sinks...)
	if err != nil {
		return stats, err
	}
	if stats.Windows != req.Windows {
		return stats, fmt.Errorf("scenario: source delivered %d windows, need %d", stats.Windows, req.Windows)
	}
	return stats, nil
}

// WriteArtifact renders one declared output artifact into the engine's
// output directory. Writing an undeclared artifact is an error: the
// declarations are the scheduler's dependency ground truth, so they must
// be honest.
func (c *Context) WriteArtifact(name string, render func(io.Writer) error) error {
	if c.eng == nil {
		return errors.New("scenario: standalone context cannot write artifacts")
	}
	if c.eng.cfg.OutDir == "" {
		return fmt.Errorf("scenario %q: engine has no output directory", c.scen.Name)
	}
	declared := false
	for _, out := range c.scen.Outputs {
		if out == name {
			declared = true
			break
		}
	}
	if !declared {
		return fmt.Errorf("scenario %q: artifact %q not declared in Outputs", c.scen.Name, name)
	}
	if err := os.MkdirAll(c.eng.cfg.OutDir, 0o755); err != nil {
		return err
	}
	if err := plotio.WriteArtifact(c.eng.cfg.OutDir, name, render); err != nil {
		return err
	}
	c.mu.Lock()
	c.written = append(c.written, name)
	c.mu.Unlock()
	return nil
}
