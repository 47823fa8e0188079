// Command palubench is the repository's end-to-end benchmark. It runs one
// workload per invocation, checks its outputs, and prints every metric
// by name with its unit; the last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
//	bash palubench/run.sh --workload suite-warm --seed 1 --seconds 10 --trace 0
//	bash palubench/run.sh --workload all --seed 1 --seconds 10 --trace 1
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//	suite-warm      the full paper suite (experiments.MustRegistry) through
//	                scenario.Engine over a window cache recorded in set-up
//	suite-cold      the same suite into a fresh cache directory every run,
//	                so generation and PTRC recording are part of the run
//	traffic-stream  the palu-trace path: generate a netgen.Site trace,
//	                record it with tracestore, and replay it once per
//	                Fig. 1 quantity through stream.Run
//
// With --trace 0 the result carries the end-to-end metrics of untraced
// runs. With --trace 1 the same untraced runs are made, followed by one
// traced run whose spans (taken around the benchmark's own calls into
// the public API of each layer) give the per-layer metrics; the
// difference between the traced and the untraced run is reported as
// trace.overhead_s.
//
// With --workload all the three workloads run in turn in one process,
// each printing its own result line; peak_rss_mb is then the process's
// peak so far, so compare it only between single-workload runs.
//
// The benchmark runs from the root of a checkout: it reads the committed
// artifacts in out/ as the seed-1 reference and keeps all scratch files
// under .bench_build/, which it removes before exiting.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run produces: its end-to-end metrics, and
// with tracing its per-layer metrics, plus the correctness tally.
type outcome struct {
	endToEnd  map[string]metric
	perLayer  map[string]metric
	attempted int
	failed    int
}

// bench carries the run parameters shared by every workload.
type bench struct {
	seed    uint64
	seconds float64
	trace   bool
	nproc   int
	root    string // checkout root
	work    string // scratch directory of this run, removed at exit
	out     *outcome
}

func main() {
	var (
		workload = flag.String("workload", "", "suite-warm | suite-cold | traffic-stream | all (each in turn)")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "how long to measure, in seconds (at least one run is always made)")
		trace    = flag.Int("trace", 0, "1 = add a traced run and report per-layer metrics")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "palubench:", err)
		os.Exit(1)
	}
}

// runners maps each workload to its run, in the order "all" runs them.
var runners = []struct {
	name string
	run  func(*bench) error
}{
	{"suite-warm", func(b *bench) error { return b.suite(false) }},
	{"suite-cold", func(b *bench) error { return b.suite(true) }},
	{"traffic-stream", (*bench).traffic},
}

func run(workload string, seed uint64, seconds, trace int) error {
	if seconds < 1 || (trace != 0 && trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	// The reference artifacts and the module sources must be present:
	// outside a checkout there is nothing to measure.
	for _, p := range []string{"go.mod", "out/summary.txt"} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return fmt.Errorf("not run from a checkout root: %w", err)
		}
	}
	found := false
	for _, r := range runners {
		if workload == r.name || workload == "all" {
			found = true
			if err := runWorkload(root, r.name, r.run, seed, seconds, trace); err != nil {
				return fmt.Errorf("%s: %w", r.name, err)
			}
		}
	}
	if !found {
		return fmt.Errorf("unknown workload %q", workload)
	}
	return nil
}

// runWorkload runs one workload in its own scratch directory and prints
// its environment, metrics and result line.
func runWorkload(root, workload string, runner func(*bench) error, seed uint64, seconds, trace int) error {
	work := filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	env := map[string]any{
		"workload":   workload,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"nproc":      nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit(root),
	}
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)

	b := &bench{
		seed: seed, seconds: float64(seconds), trace: trace == 1, nproc: nproc,
		root: root, work: work,
		out: &outcome{endToEnd: map[string]metric{}, perLayer: map[string]metric{}},
	}
	if err := runner(b); err != nil {
		return err
	}
	o := b.out
	if o.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	fmt.Printf("%-10s %-36s %16.6g ratio (%d failed of %d attempted)\n", "end-to-end", "error_rate",
		float64(o.failed)/float64(o.attempted), o.failed, o.attempted)
	if b.trace {
		printMetrics("per-layer", o.perLayer)
	}
	printMetrics("end-to-end", o.endToEnd)
	if err := declared(root, o, b.trace); err != nil {
		return err
	}

	result := map[string]any{
		"correct":   o.failed == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
	}
	if b.trace {
		result["metrics"] = o.perLayer
	} else {
		result["metrics"] = o.endToEnd
	}
	// Every result is stored with the environment it was measured in, so
	// only results from one machine and CPU count are compared.
	record, _ := json.Marshal(map[string]any{"env": env, "result": result,
		"end_to_end": o.endToEnd, "per_layer": o.perLayer, "at": time.Now().UTC().Format(time.RFC3339)})
	if f, err := os.OpenFile(filepath.Join(root, ".bench_build", "results.jsonl"),
		os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644); err == nil {
		fmt.Fprintf(f, "%s\n", record)
		f.Close()
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// declared checks the reported metrics against BENCHMARK.json: the
// result must carry exactly the metrics declared for its mode.
func declared(root string, o *outcome, trace bool) error {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want, got := spec.EndToEnd, o.endToEnd
	if trace {
		want, got = spec.PerLayer, o.perLayer
	}
	if len(want) != len(got) {
		return fmt.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, m := range want {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			return fmt.Errorf("metric %s (%s) declared in BENCHMARK.json is not reported as declared", m.Name, m.Unit)
		}
	}
	return nil
}

// printMetrics prints one line per metric, sorted by name.
func printMetrics(kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-10s %-36s %16.6g %s\n", kind, n, ms[n].Value, ms[n].Unit)
	}
}

// commit identifies the measured code. A checkout handed to the
// benchmark need not be a git repository, so besides any VCS revision
// stamped into the binary it reports a digest of the module's source
// files (every .go file plus go.mod, by relative path).
func commit(root string) string {
	rev := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
		return nil
	})
	return fmt.Sprintf("%s source-sha256:%s", rev, hex.EncodeToString(h.Sum(nil))[:16])
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set size so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sample is one timed operation: wall and CPU seconds.
type sample struct{ wall, cpu float64 }

// timed runs f and measures it.
func timed(f func() error) (sample, error) {
	c0, t0 := cpuSeconds(), time.Now()
	err := f()
	return sample{time.Since(t0).Seconds(), cpuSeconds() - c0}, err
}

// loop runs iter until the measuring time has passed, at least once,
// and returns one sample per call. after runs untimed after each call,
// for its checks and clean-up.
func (b *bench) loop(iter func(i int) error, after func(i int, s sample) error) ([]sample, error) {
	var out []sample
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < b.seconds; i++ {
		s, err := timed(func() error { return iter(i) })
		if err != nil {
			return nil, err
		}
		if err := after(i, s); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// setups runs the workload set-up reps times, records setup_s as their
// median, so that work moved into set-up shows, and returns the
// individual times.
func (b *bench) setups(reps int, setup func(i int) error) ([]float64, error) {
	var secs []float64
	for i := 0; i < reps; i++ {
		s, err := timed(func() error { return setup(i) })
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, s.wall)
	}
	b.timing("setup_s", secs)
	return secs, nil
}

// timing records an end-to-end timing as its median and prints its
// distribution.
func (b *bench) timing(name string, xs []float64) {
	d := summarize(xs)
	fmt.Printf("timing     %-36s %s s %.4g\n", name, d, xs)
	b.out.endToEnd[name] = metric{d.median, "s"}
}

// rate records an end-to-end rate as the median of its samples.
func (b *bench) rate(name, unit string, xs []float64) {
	d := summarize(xs)
	fmt.Printf("rate       %-36s %s %s\n", name, d, unit)
	b.out.endToEnd[name] = metric{d.median, unit}
}

// iterations records wall_s, cpu_s and peak_rss_mb from untraced runs.
func (b *bench) iterations(ss []sample) {
	walls, cpus := make([]float64, len(ss)), make([]float64, len(ss))
	for i, s := range ss {
		walls[i], cpus[i] = s.wall, s.cpu
	}
	b.timing("wall_s", walls)
	b.timing("cpu_s", cpus)
	b.out.endToEnd["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
}

// check counts one checked operation, and a failure when ok is false.
func (b *bench) check(ok bool, format string, args ...any) {
	b.out.attempted++
	if !ok {
		b.out.failed++
		fmt.Printf("MISMATCH   "+format+"\n", args...)
	}
}

// layer sets a per-layer metric.
func (b *bench) layer(name, unit string, v float64) {
	b.out.perLayer[name] = metric{v, unit}
}

// layerSamples prints the distribution of one span name's self times.
func layerSamples(lt layerTimes) {
	names := make([]string, 0, len(lt.samples))
	for n := range lt.samples {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("span       %-36s %s s per span\n", n, summarize(lt.samples[n]))
	}
}

// shares prints each layer's share of the traced run's busy time (the
// sum of all self times).
func shares(lt layerTimes) {
	var total float64
	for _, v := range lt.self {
		total += v
	}
	if total <= 0 {
		return
	}
	names := make([]string, 0, len(lt.self))
	for n := range lt.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return lt.self[names[i]] > lt.self[names[j]] })
	for _, n := range names {
		fmt.Printf("share      %-36s %6.1f%% of %.3f s traced busy time\n", n, 100*lt.self[n]/total, total)
	}
}
