package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"hybridplaw/internal/experiments"
	"hybridplaw/internal/model"
	"hybridplaw/internal/obs"
	"hybridplaw/internal/plotio"
	"hybridplaw/internal/scenario"
	"hybridplaw/internal/stream"
)

// warmSetups and coldSetups are how many times a suite run repeats its
// set-up; setup_s is their median. The cold set-up only loads the
// reference artifacts, a millisecond, so it is repeated more often for a
// steady median.
const (
	warmSetups = 3
	coldSetups = 15
)

// suite runs the full paper suite through the scenario engine with
// Workers = nproc. Warm: over a window cache recorded during set-up.
// Cold: into a fresh cache directory every run, so traffic generation
// and PTRC recording happen inside the measured run.
func (b *bench) suite(cold bool) error {
	var (
		ref       artifacts // committed out/: all of it at seed 1, else the seed-free part
		warmDir   string
		warmPkts  int64 // packets archived by the last warm set-up
		validPkts int64 // valid packets of the suite's distinct windows
		windows   int64 // distinct windows of the suite
	)
	reps := warmSetups
	if cold {
		reps = coldSetups
	}
	setupSecs, err := b.setups(reps, func(i int) error {
		var err error
		if ref, err = readArtifacts(filepath.Join(b.root, "out")); err != nil {
			return err
		}
		reg := experiments.MustRegistry(b.seed)
		if b.seed != 1 {
			ref = seedFree(reg, ref)
		}
		reqs := distinctWindows(reg)
		validPkts, windows = 0, int64(len(reqs))
		for _, req := range reqs {
			validPkts += req.ValidPackets()
		}
		if cold {
			return nil
		}
		warmDir = filepath.Join(b.work, fmt.Sprintf("warm-cache-%d", i))
		warmPkts, err = recordCache(reg, warmDir, b.nproc)
		return err
	})
	if err != nil {
		return err
	}
	for i := 0; i < warmSetups-1 && !cold; i++ {
		os.RemoveAll(filepath.Join(b.work, fmt.Sprintf("warm-cache-%d", i)))
	}

	var (
		first     artifacts // artifacts of the first run, the repeat reference
		firstCS   scenario.CacheStats
		recRates  []float64
		repRates  []float64
		bytesPkt  []float64
		cacheDirs = func(i int) string {
			if cold {
				return filepath.Join(b.work, fmt.Sprintf("cold-cache-%d", i))
			}
			return warmDir
		}
		outDir = func(i int) string { return filepath.Join(b.work, fmt.Sprintf("out-%d", i)) }
		last   struct {
			reports []scenario.Report
			cs      scenario.CacheStats
		}
	)
	runs, err := b.loop(func(i int) error {
		var err error
		last.reports, last.cs, err = runSuite(b.seed, b.nproc, cacheDirs(i), outDir(i))
		return err
	}, func(i int, s sample) error {
		for _, r := range last.reports {
			b.check(r.Err == nil, "scenario %s failed: %v", r.Scenario.Name, r.Err)
		}
		arts, err := readArtifacts(outDir(i))
		if err != nil {
			return err
		}
		if i == 0 {
			first, firstCS = arts, last.cs
			fmt.Printf("digest     artifacts (%d files, timings.csv excluded) %s\n", len(arts), arts.digest())
		}
		b.check(arts.digest() == first.digest(), "run %d artifact digest %s != first run %s", i, arts.digest(), first.digest())
		got := arts
		if b.seed != 1 {
			got = artifacts{}
			for n := range ref {
				got[n] = arts[n]
			}
		}
		b.compare(fmt.Sprintf("run %d against committed out/", i), ref, got)
		b.check(last.cs == firstCS, "run %d cache counters %+v != first run %+v", i, last.cs, firstCS)
		// Every distinct window is replayed exactly once, from the archive
		// recorded in set-up (warm) or in this run (cold).
		archived := warmPkts
		if cold {
			archived = last.cs.RecordedPackets
		}
		b.check(last.cs.Hits+last.cs.Misses == windows && last.cs.ReplayedPackets == archived,
			"run %d cache counters %+v: want %d replays of the %d archived packets", i, last.cs, windows, archived)
		repRates = append(repRates, float64(last.cs.ReplayedPackets)/s.wall/1e6)
		if cold {
			recRates = append(recRates, float64(validPkts)/s.wall/1e6)
			n, err := dirBytes(cacheDirs(i))
			if err != nil {
				return err
			}
			bytesPkt = append(bytesPkt, float64(n)/float64(last.cs.RecordedPackets))
			os.RemoveAll(cacheDirs(i))
		}
		return os.RemoveAll(outDir(i))
	})
	if err != nil {
		return err
	}
	b.iterations(runs)
	if !cold {
		for _, s := range setupSecs {
			recRates = append(recRates, float64(validPkts)/s/1e6)
		}
		n, err := dirBytes(warmDir)
		if err != nil {
			return err
		}
		bytesPkt = append(bytesPkt, float64(n)/float64(warmPkts))
	}
	b.rate("record_mpkt_s", "Mpkt/s", recRates)
	b.rate("replay_mpkt_s", "Mpkt/s", repRates)
	b.rate("archive_bytes_per_pkt", "B/pkt", bytesPkt)
	fmt.Printf("count      cache hits=%d misses=%d recorded=%d replayed=%d delivered=%d replays_saved=%d\n",
		firstCS.Hits, firstCS.Misses, firstCS.RecordedPackets, firstCS.ReplayedPackets,
		firstCS.DeliveredWindows, firstCS.ReplaysSaved)
	if !b.trace {
		return nil
	}
	cacheDir := warmDir
	if cold {
		cacheDir = filepath.Join(b.work, "traced-cache")
	}
	return b.tracedSuite(cacheDir, cold, first, firstCS, b.out.endToEnd["wall_s"].Value)
}

// seedFree keeps the committed artifacts that a run at reg's seed must
// reproduce too: those of scenarios that stream only traffic the seed
// does not reach (every declared window has the same cache key as at
// seed 1). Those scenarios carry their own site seeds.
func seedFree(reg *scenario.Registry, committed artifacts) artifacts {
	atOne := map[string]bool{}
	for _, req := range distinctWindows(experiments.MustRegistry(1)) {
		atOne[req.Key()] = true
	}
	keep := artifacts{}
	for _, s := range reg.Scenarios() {
		free := len(s.Windows) > 0
		for _, w := range s.Windows {
			free = free && atOne[w.Key()]
		}
		for _, out := range s.Outputs {
			if data, ok := committed[out]; ok && free {
				keep[out] = data
			}
		}
	}
	return keep
}

// distinctWindows lists the registry's declared traffic windows, one per
// cache key, in registration order.
func distinctWindows(reg *scenario.Registry) []scenario.WindowReq {
	seen := map[string]bool{}
	var out []scenario.WindowReq
	for _, s := range reg.Scenarios() {
		for _, w := range s.Windows {
			if !seen[w.Key()] {
				seen[w.Key()] = true
				out = append(out, w)
			}
		}
	}
	return out
}

// recordCache fills a fresh window cache with every window the suite
// declares, recording up to workers windows at a time, and returns the
// number of packets archived. Archives do not depend on the order or
// concurrency of recording.
func recordCache(reg *scenario.Registry, dir string, workers int) (int64, error) {
	cache, err := scenario.NewWindowCache(dir)
	if err != nil {
		return 0, err
	}
	reqs := distinctWindows(reg)
	errs := make([]error, len(reqs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			cfg := stream.PipelineConfig{NV: req.NV, MaxWindows: req.Windows, Workers: 1}
			_, errs[i] = cache.Stream(req, cfg)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	return cache.Stats().RecordedPackets, nil
}

// runSuite is one untraced suite run, as palu-figures makes it: every
// scenario through the engine, then summary.txt.
func runSuite(seed uint64, workers int, cacheDir, outDir string) ([]scenario.Report, scenario.CacheStats, error) {
	eng, err := scenario.NewEngine(experiments.MustRegistry(seed), scenario.Config{
		Workers: workers, OutDir: outDir, CacheDir: cacheDir,
	})
	if err != nil {
		return nil, scenario.CacheStats{}, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, scenario.CacheStats{}, err
	}
	reports, err := eng.Run()
	if reports == nil {
		return nil, scenario.CacheStats{}, err // a scheduling error, not a scenario failure
	}
	summary := scenario.Summarize(reports)
	err = plotio.WriteArtifact(outDir, "summary.txt", func(w io.Writer) error {
		_, err := io.WriteString(w, summary)
		return err
	})
	return reports, eng.CacheStats(), err
}

// tracedSuite makes the traced suite run and sets the per-layer metrics.
// first and firstCS are the artifacts and cache counters of the first
// untraced run; untracedWall is the untraced median wall time.
func (b *bench) tracedSuite(cacheDir string, cold bool, first artifacts, firstCS scenario.CacheStats, untracedWall float64) error {
	tr := newTracer()
	reg := obs.NewRegistry()
	outDir := filepath.Join(b.work, "traced-out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	root := tr.start("other", 0)
	suite, book, err := tracedRegistry(b.seed, tr, root)
	if err != nil {
		return err
	}
	// Shared replay stays off in the traced run: a consumer parked in the
	// shared-replay coordinator would count its wait as stream time.
	eng, err := scenario.NewEngine(suite, scenario.Config{
		Workers: b.nproc, OutDir: outDir, CacheDir: cacheDir, Metrics: reg, NoSharedReplay: true,
	})
	if err != nil {
		return err
	}
	var reports []scenario.Report
	s, err := timed(func() error {
		var err error
		reports, err = eng.Run()
		if reports == nil {
			return err
		}
		return nil
	})
	tr.stop(root)
	if err != nil {
		return err
	}
	for _, r := range reports {
		b.check(r.Err == nil, "traced scenario %s failed: %v", r.Scenario.Name, r.Err)
	}
	arts, err := readArtifacts(outDir)
	if err != nil {
		return err
	}
	// The traced run writes no modelsel CSVs (their renderer is internal
	// to experiments); their ranking is compared below instead.
	want := artifacts{}
	for n, data := range first {
		if _, ok := arts[n]; ok || !strings.HasPrefix(n, "modelsel_") && n != "summary.txt" {
			want[n] = data
		}
	}
	b.compare("traced run against the untraced run", want, arts)
	for id, order := range book.orders {
		want := csvFitterOrder(first["modelsel_"+id+".csv"])
		b.check(strings.Join(order, ",") == strings.Join(want, ","),
			"traced model selection on %s ranks %v, untraced run ranks %v", id, order, want)
	}

	lt := tr.layers()
	layerSamples(lt)
	shares(lt)
	fits := 0
	for _, n := range model.Default().Names() {
		b.layer("model.fit."+n+"_s", "s", lt.self["model.fit."+n])
		fits += len(lt.samples["model.fit."+n])
	}
	b.layer("model.fits", "count", float64(fits))
	b.layer("model.fit_failures", "count", float64(book.failures))
	for _, n := range []string{"model.select", "palu.curve", "zipfmand.fit", "zipfmand.pooled",
		"plotio.write", "scenario.stream", "scenario.run", "stream.sink", "other"} {
		b.layer(n+"_s", "s", lt.self[n])
	}
	b.layer("palu.curve_calls", "count", float64(len(lt.samples["palu.curve"])))
	// On the suites stream.Run is reached only through Context.Stream, so
	// its time is that of the Stream calls the trace wraps, sinks included.
	b.layer("stream.run_s", "s", lt.self["scenario.stream"]+lt.self["stream.sink"])
	b.obsLayers(reg)
	// Generation and recording happen inside the cache on a cold run and
	// are not separable from outside; traffic-stream measures them.
	b.layer("netgen.generate_s", "s", 0)
	b.layer("netgen.mpkt_s", "Mpkt/s", 0)
	b.layer("tracestore.record_s", "s", 0)
	b.layer("tracestore.record_mpkt_s", "Mpkt/s", 0)
	var archived int64
	if cold {
		if archived, err = dirBytes(cacheDir); err != nil {
			return err
		}
	}
	b.layer("tracestore.archive_bytes", "bytes", float64(archived))
	b.layer("scenario.cache.hits", "count", float64(firstCS.Hits))
	b.layer("scenario.cache.misses", "count", float64(firstCS.Misses))
	b.layer("scenario.cache.recorded_packets", "count", float64(firstCS.RecordedPackets))
	b.layer("scenario.cache.replayed_packets", "count", float64(firstCS.ReplayedPackets))
	b.layer("scenario.cache.replays_saved", "count", float64(firstCS.ReplaysSaved))
	b.layer("scenario.cache.delivered_per_replay", "ratio",
		float64(firstCS.DeliveredWindows)/float64(max(firstCS.Hits+firstCS.Misses, 1)))
	b.layer("trace.overhead_s", "s", s.wall-untracedWall)
	fmt.Printf("trace      traced run %.3f s wall, untraced median %.3f s, %d spans\n", s.wall, untracedWall, lt.spans)
	return nil
}

// obsLayers sets the per-layer metrics read from the program's own obs
// instruments (palu_stream_* and palu_ptrc_*), which the engine or the
// traffic workload attached to reg.
func (b *bench) obsLayers(reg *obs.Registry) {
	vals := map[string]float64{}
	for _, m := range reg.Snapshot().Metrics {
		if m.Type == "histogram" {
			vals[m.Name] = float64(m.Sum) / 1e9 // the timers observe nanoseconds
		} else {
			vals[m.Name] = float64(m.Value)
		}
	}
	b.layer("stream.ingest_s", "s", vals["palu_stream_ingest_ns"])
	b.layer("stream.reduce_s", "s", vals["palu_stream_reduce_ns"]+vals["palu_stream_window_close_ns"])
	b.layer("stream.windows", "count", vals["palu_stream_windows_total"])
	b.layer("stream.packets", "count", vals["palu_stream_packets_valid_total"]+vals["palu_stream_packets_invalid_total"])
	b.layer("tracestore.decode_s", "s", vals["palu_ptrc_inflate_ns"]+vals["palu_ptrc_unpack_ns"])
	b.layer("tracestore.encode_s", "s", vals["palu_ptrc_deflate_ns"]+vals["palu_ptrc_pack_ns"])
	b.layer("tracestore.blocks_read", "count", vals["palu_ptrc_blocks_read_total"])
	b.layer("tracestore.blocks_written", "count", vals["palu_ptrc_blocks_written_total"])
	b.layer("tracestore.crc_failures", "count", vals["palu_ptrc_crc_failures_total"])
}

// csvFitterOrder reads the fitter column of a modelsel CSV: ranked
// candidates first, failed fitters last.
func csvFitterOrder(csv []byte) []string {
	var order []string
	for i, line := range strings.Split(strings.TrimSpace(string(csv)), "\n") {
		fields := strings.Split(line, ",")
		if i == 0 || len(fields) < 2 {
			continue
		}
		order = append(order, fields[1])
	}
	return order
}
