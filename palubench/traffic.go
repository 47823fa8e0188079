package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/model"
	"hybridplaw/internal/netgen"
	"hybridplaw/internal/obs"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/tracestore"
)

// The traffic-stream workload is the palu-trace user path without the
// scenario engine or any model fitting: record a multi-window synthetic
// site trace to PTRC, then replay it once per Fig. 1 quantity.
const (
	trafficNV      = 100000
	trafficWindows = 40 // 4M valid packets, about 4.08M packets in all
	trafficNodes   = 50000
	trafficSetups  = 3
	blockPackets   = 4096 // packets per block handed to the writer
)

// trafficSite is palu-trace's default synthetic observatory at the
// workload seed.
func trafficSite(seed uint64) (netgen.SiteConfig, error) {
	params, err := palu.FromWeights(2, 2, 1.5, 2.5, 2.0)
	if err != nil {
		return netgen.SiteConfig{}, err
	}
	return netgen.SiteConfig{
		Name: "palu-trace", Params: params, Nodes: trafficNodes, P: 0.5,
		WeightAlpha: 2.1, WeightDelta: 0, MaxWeight: 4096,
		InvalidFraction: 0.02, HubOrientation: 0.7, Seed: seed,
	}, nil
}

// sliceBlocks serves generated packets to the writer a block at a time
// (stream.BlockSource), so the writer takes its bulk ingest path.
type sliceBlocks struct {
	pkts []stream.Packet
	i    int
}

func (s *sliceBlocks) Next() (stream.Packet, bool) {
	if s.i >= len(s.pkts) {
		return stream.Packet{}, false
	}
	s.i++
	return s.pkts[s.i-1], true
}

func (s *sliceBlocks) NextBlock() ([]stream.Packet, bool) {
	if s.i >= len(s.pkts) {
		return nil, false
	}
	end := min(s.i+blockPackets, len(s.pkts))
	blk := s.pkts[s.i:end]
	s.i = end
	return blk, true
}

func (s *sliceBlocks) Err() error { return nil }

// trafficRun is one write phase plus one read phase.
type trafficRun struct {
	tr       *tracer
	root     int
	sm       *stream.Metrics     // nil = untraced
	tm       *tracestore.Metrics // nil = untraced
	workers  int
	path     string
	packets  int64 // packets archived
	archive  int64 // archive bytes
	writeS   float64
	replayS  []float64
	measured []int64 // valid packets measured per replay
	ens      []*stream.EnsembleSink
}

// write generates the site's trace prefix for the workload's windows and
// records it with the default writer options.
func (r *trafficRun) write(cfg netgen.SiteConfig) error {
	s, err := timed(func() error {
		id := r.tr.start("netgen.generate", r.root)
		site, err := netgen.NewSite(cfg)
		if err != nil {
			return err
		}
		src := stream.TakeValid(site.PacketSource(), trafficNV*trafficWindows)
		pkts := make([]stream.Packet, 0, trafficNV*trafficWindows*21/20)
		for {
			p, ok := src.Next()
			if !ok {
				break
			}
			pkts = append(pkts, p)
		}
		r.tr.stop(id)
		if err := src.Err(); err != nil {
			return err
		}

		id = r.tr.start("tracestore.record", r.root)
		defer r.tr.stop(id)
		f, err := os.Create(r.path)
		if err != nil {
			return err
		}
		defer f.Close()
		r.packets, err = tracestore.Record(f, &sliceBlocks{pkts: pkts}, tracestore.WriterOptions{Metrics: r.tm})
		if err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		return err
	}
	r.writeS = s.wall
	info, err := os.Stat(r.path)
	if err != nil {
		return err
	}
	r.archive = info.Size()
	return nil
}

// replay streams the archive through the measurement pipeline once per
// Fig. 1 quantity, with parallel block decode, as palu-trace replay does.
func (r *trafficRun) replay() error {
	for _, q := range stream.Quantities {
		var stats stream.PipelineStats
		sink := stream.NewEnsembleSink(q)
		s, err := timed(func() error {
			id := r.tr.start("stream.run", r.root)
			defer r.tr.stop(id)
			f, err := os.Open(r.path)
			if err != nil {
				return err
			}
			defer f.Close()
			info, err := f.Stat()
			if err != nil {
				return err
			}
			src, err := tracestore.NewParallelReader(f, info.Size(),
				tracestore.ParallelOptions{Workers: r.workers, Metrics: r.tm})
			if err != nil {
				return err
			}
			defer src.Close()
			stats, err = stream.Run(src, stream.PipelineConfig{NV: trafficNV, Workers: r.workers, Metrics: r.sm},
				tracedSink(r.tr, id, sink))
			return err
		})
		if err != nil {
			return fmt.Errorf("replaying %v: %w", q, err)
		}
		r.replayS = append(r.replayS, s.wall)
		r.measured = append(r.measured, stats.ValidPackets-stats.DiscardedTail)
		r.ens = append(r.ens, sink)
	}
	return nil
}

// reference measures every quantity by direct generation, without an
// archive: the ensembles a replay must reproduce.
func reference(cfg netgen.SiteConfig, workers int) (*stream.EnsembleSink, error) {
	site, err := netgen.NewSite(cfg)
	if err != nil {
		return nil, err
	}
	sink := stream.NewEnsembleSink()
	stats, err := stream.Run(site.PacketSource(),
		stream.PipelineConfig{NV: trafficNV, MaxWindows: trafficWindows, Workers: workers}, sink)
	if err != nil {
		return nil, err
	}
	if stats.Windows != trafficWindows {
		return nil, fmt.Errorf("direct generation delivered %d windows, want %d", stats.Windows, trafficWindows)
	}
	return sink, nil
}

// sameEnsemble reports whether two sinks hold bit-identical results for
// q: the per-window pooled mean and spread, and the merged histogram.
func sameEnsemble(a, b *stream.EnsembleSink, q stream.Quantity) bool {
	ea, eb := a.Ensemble(q), b.Ensemble(q)
	if ea.Windows() != eb.Windows() || !sameFloats(ea.Mean(), eb.Mean()) || !sameFloats(ea.Sigma(), eb.Sigma()) {
		return false
	}
	return sameHist(a.Merged(q), b.Merged(q))
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameHist(a, b *hist.Histogram) bool {
	if a.Total() != b.Total() || a.MaxDegree() != b.MaxDegree() {
		return false
	}
	sa, sb := a.Support(), b.Support()
	if len(sa) != len(sb) {
		return false
	}
	for i, d := range sa {
		if sb[i] != d || a.Count(d) != b.Count(d) {
			return false
		}
	}
	return true
}

func (b *bench) traffic() error {
	cfg, err := trafficSite(b.seed)
	if err != nil {
		return err
	}
	var refs []*stream.EnsembleSink
	_, err = b.setups(trafficSetups, func(int) error {
		ref, err := reference(cfg, b.nproc)
		refs = append(refs, ref)
		return err
	})
	if err != nil {
		return err
	}
	ref := refs[0]
	for i, r := range refs[1:] {
		for _, q := range stream.Quantities {
			b.check(sameEnsemble(ref, r, q), "set-up %d: direct-generation %v ensemble differs from set-up 0", i+1, q)
		}
	}

	path := filepath.Join(b.work, "traffic.ptrc")
	var (
		first                        *trafficRun
		recRates, repRates, bytesPkt []float64
		last                         *trafficRun
	)
	// checkRun verifies one run's counts and ensembles.
	checkRun := func(label string, r *trafficRun) {
		b.check(r.packets == first.packets && r.archive == first.archive,
			"%s archived %d packets in %d bytes, first run %d in %d", label, r.packets, r.archive, first.packets, first.archive)
		for i, q := range stream.Quantities {
			b.check(r.measured[i] == trafficNV*trafficWindows, "%s measured %d valid packets of %v, want %d",
				label, r.measured[i], q, trafficNV*trafficWindows)
			b.check(sameEnsemble(ref, r.ens[i], q), "%s replayed %v ensemble differs from direct generation", label, q)
		}
	}
	runs, err := b.loop(func(i int) error {
		last = &trafficRun{workers: b.nproc, path: path}
		if err := last.write(cfg); err != nil {
			return err
		}
		return last.replay()
	}, func(i int, s sample) error {
		if i == 0 {
			first = last
			fmt.Printf("count      archive %d packets, %d bytes\n", first.packets, first.archive)
		}
		checkRun(fmt.Sprintf("run %d", i), last)
		recRates = append(recRates, trafficNV*trafficWindows/last.writeS/1e6)
		for j, secs := range last.replayS {
			repRates = append(repRates, float64(last.measured[j])/secs/1e6)
		}
		bytesPkt = append(bytesPkt, float64(last.archive)/float64(last.packets))
		last.ens = nil
		return nil
	})
	if err != nil {
		return err
	}
	b.iterations(runs)
	b.rate("record_mpkt_s", "Mpkt/s", recRates)
	b.rate("replay_mpkt_s", "Mpkt/s", repRates)
	b.rate("archive_bytes_per_pkt", "B/pkt", bytesPkt)
	if !b.trace {
		return nil
	}

	reg := obs.NewRegistry()
	tr := newTracer()
	r := &trafficRun{tr: tr, workers: b.nproc, path: path,
		sm: stream.NewMetrics(reg), tm: tracestore.NewMetrics(reg)}
	r.root = tr.start("other", 0)
	s, err := timed(func() error {
		if err := r.write(cfg); err != nil {
			return err
		}
		return r.replay()
	})
	tr.stop(r.root)
	if err != nil {
		return err
	}
	checkRun("traced run", r)

	lt := tr.layers()
	layerSamples(lt)
	shares(lt)
	gen, rec := lt.self["netgen.generate"], lt.self["tracestore.record"]
	valid := float64(trafficNV * trafficWindows)
	b.layer("netgen.generate_s", "s", gen)
	b.layer("netgen.mpkt_s", "Mpkt/s", valid/gen/1e6)
	b.layer("tracestore.record_s", "s", rec)
	b.layer("tracestore.record_mpkt_s", "Mpkt/s", valid/rec/1e6)
	b.layer("tracestore.archive_bytes", "bytes", float64(r.archive))
	b.layer("stream.run_s", "s", lt.self["stream.run"])
	b.layer("stream.sink_s", "s", lt.self["stream.sink"])
	b.layer("other_s", "s", lt.self["other"])
	b.obsLayers(reg)
	// This workload bypasses the scenario engine and the fit layers.
	for _, n := range []string{"model.select_s", "palu.curve_s", "zipfmand.fit_s", "zipfmand.pooled_s",
		"plotio.write_s", "scenario.stream_s", "scenario.run_s"} {
		b.layer(n, "s", 0)
	}
	for _, n := range model.Default().Names() {
		b.layer("model.fit."+n+"_s", "s", 0)
	}
	for _, n := range []string{"model.fits", "model.fit_failures", "palu.curve_calls", "scenario.cache.hits",
		"scenario.cache.misses", "scenario.cache.recorded_packets", "scenario.cache.replayed_packets",
		"scenario.cache.replays_saved"} {
		b.layer(n, "count", 0)
	}
	b.layer("scenario.cache.delivered_per_replay", "ratio", 0)
	b.layer("trace.overhead_s", "s", s.wall-b.out.endToEnd["wall_s"].Value)
	fmt.Printf("trace      traced run %.3f s wall, untraced median %.3f s, %d spans\n",
		s.wall, b.out.endToEnd["wall_s"].Value, lt.spans)
	return nil
}
