package tracestore

import (
	"bytes"
	"testing"

	"hybridplaw/internal/stream"
	"hybridplaw/internal/xrand"
)

// synthPackets builds a deterministic heavy-tailed-ish packet sequence
// with invalid packets sprinkled in, exercising repeats, self-loops and
// large ID jumps.
func synthPackets(seed uint64, n, nodes int, invalidEvery int) []stream.Packet {
	rng := xrand.New(seed)
	ps := make([]stream.Packet, 0, n)
	for len(ps) < n {
		src := uint32(rng.Intn(nodes))
		dst := uint32(rng.Intn(nodes))
		// Repeat popular pairs: heavy-tailed multiplicities compress and
		// decode differently from unique pairs.
		reps := 1
		if rng.Bernoulli(0.3) {
			reps = 1 + rng.Intn(8)
		}
		for k := 0; k < reps && len(ps) < n; k++ {
			p := stream.Packet{Src: src, Dst: dst, Valid: true}
			if invalidEvery > 0 && len(ps)%invalidEvery == invalidEvery-1 {
				p.Valid = false
			}
			ps = append(ps, p)
		}
	}
	return ps
}

// writeArchive archives packets with the given options, failing the test
// on error.
func writeArchive(t *testing.T, ps []stream.Packet, opts WriterOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := Record(&buf, stream.NewSliceSource(ps), opts)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	if n != int64(len(ps)) {
		t.Fatalf("Record wrote %d packets, want %d", n, len(ps))
	}
	return buf.Bytes()
}

// drain reads a source to exhaustion.
func drain(t *testing.T, src stream.PacketSource) []stream.Packet {
	t.Helper()
	var out []stream.Packet
	for {
		p, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, p)
	}
	if err := src.Err(); err != nil {
		t.Fatalf("source error after %d packets: %v", len(out), err)
	}
	return out
}

func assertSameTrace(t *testing.T, got, want []stream.Packet) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trace length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("packet %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestRoundTripSequential(t *testing.T) {
	// Sizes chosen around block boundaries: empty blocks, exactly one
	// block, one packet over, several blocks plus a partial tail.
	const block = 64
	for codec := Codec(0); codec < numCodecs; codec++ {
		for _, n := range []int{1, 2, block - 1, block, block + 1, 3*block + 17} {
			ps := synthPackets(uint64(n), n, 1000, 7)
			data := writeArchive(t, ps, WriterOptions{BlockSize: block, Codec: codec})
			r, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%v n=%d: %v", codec, n, err)
			}
			assertSameTrace(t, drain(t, r), ps)
			if r.PacketsRead() != int64(n) {
				t.Errorf("%v n=%d: PacketsRead = %d", codec, n, r.PacketsRead())
			}
		}
	}
}

func TestRoundTripParallel(t *testing.T) {
	const block = 256
	ps := synthPackets(3, 10*block+99, 5000, 11)
	for codec := Codec(0); codec < numCodecs; codec++ {
		data := writeArchive(t, ps, WriterOptions{BlockSize: block, Codec: codec})
		for _, workers := range []int{1, 2, 4, 7} {
			r, err := NewParallelReader(bytes.NewReader(data), int64(len(data)),
				ParallelOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", codec, workers, err)
			}
			assertSameTrace(t, drain(t, r), ps)
			if r.PacketsRead() != int64(len(ps)) {
				t.Errorf("%v workers=%d: PacketsRead = %d", codec, workers, r.PacketsRead())
			}
			r.Close()
		}
	}
}

// TestRoundTripProperty is the randomized property test: for random
// lengths, block sizes, node ranges and invalid densities, PTRC
// write→read preserves the exact packet sequence — including invalid
// packets — through both readers, the trials cycling through the
// codecs.
func TestRoundTripProperty(t *testing.T) {
	rng := xrand.New(20260729)
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(4000)
		block := 1 + rng.Intn(300)
		nodes := 1 + rng.Intn(1<<(1+rng.Intn(20)))
		invalidEvery := rng.Intn(10) // 0 = no invalid packets
		ps := synthPackets(rng.Uint64(), n, nodes, invalidEvery)
		// Occasionally include extreme IDs to cover the full uint32 range.
		if rng.Bernoulli(0.3) {
			for k := 0; k < 5 && k < len(ps); k++ {
				ps[rng.Intn(len(ps))].Src = ^uint32(0) - uint32(rng.Intn(3))
				ps[rng.Intn(len(ps))].Dst = ^uint32(0) - uint32(rng.Intn(3))
			}
		}
		codec := Codec(trial % int(numCodecs))
		data := writeArchive(t, ps, WriterOptions{BlockSize: block, Codec: codec})

		seq, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("trial %d (%v n=%d block=%d): %v", trial, codec, n, block, err)
		}
		assertSameTrace(t, drain(t, seq), ps)

		par, err := NewParallelReader(bytes.NewReader(data), int64(len(data)),
			ParallelOptions{Workers: 1 + rng.Intn(4)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertSameTrace(t, drain(t, par), ps)
		par.Close()
	}
}

// TestCSVToPTRCToCSV checks the conversion helpers compose to the
// identity on the CSV representation.
func TestCSVToPTRCToCSV(t *testing.T) {
	ps := synthPackets(9, 2500, 3000, 5)
	var csv1 bytes.Buffer
	if err := stream.WriteTraceCSV(&csv1, ps); err != nil {
		t.Fatal(err)
	}
	var ptrc bytes.Buffer
	n, err := CSVToPTRC(bytes.NewReader(csv1.Bytes()), &ptrc, WriterOptions{BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(ps)) {
		t.Fatalf("CSVToPTRC converted %d packets, want %d", n, len(ps))
	}
	var csv2 bytes.Buffer
	if n, err = PTRCToCSV(bytes.NewReader(ptrc.Bytes()), &csv2); err != nil {
		t.Fatal(err)
	}
	if n != int64(len(ps)) {
		t.Fatalf("PTRCToCSV converted %d packets, want %d", n, len(ps))
	}
	if !bytes.Equal(csv1.Bytes(), csv2.Bytes()) {
		t.Error("CSV → PTRC → CSV is not the identity")
	}
}

func TestInfo(t *testing.T) {
	ps := synthPackets(4, 5000, 2000, 6)
	valid := int64(0)
	for _, p := range ps {
		if p.Valid {
			valid++
		}
	}
	data := writeArchive(t, ps, WriterOptions{BlockSize: 1024})
	info, err := Info(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Packets != int64(len(ps)) || info.ValidPackets != valid {
		t.Errorf("Info counts %d/%d, want %d/%d", info.Packets, info.ValidPackets, len(ps), valid)
	}
	if info.Blocks != (len(ps)+1023)/1024 {
		t.Errorf("Info.Blocks = %d", info.Blocks)
	}
	if info.FileSize != int64(len(data)) {
		t.Errorf("Info.FileSize = %d, want %d", info.FileSize, len(data))
	}
	if info.CompressedBytes <= 0 || info.RawBytes < info.CompressedBytes {
		t.Errorf("implausible byte totals: raw %d, compressed %d", info.RawBytes, info.CompressedBytes)
	}
}

func TestEmptyArchive(t *testing.T) {
	data := writeArchive(t, nil, WriterOptions{})
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, r); len(got) != 0 {
		t.Errorf("empty archive yielded %d packets", len(got))
	}
	pr, err := NewParallelReader(bytes.NewReader(data), int64(len(data)), ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, pr); len(got) != 0 {
		t.Errorf("empty archive yielded %d packets (parallel)", len(got))
	}
	pr.Close()
	info, err := Info(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Blocks != 0 || info.Packets != 0 {
		t.Errorf("empty archive info: %+v", info)
	}
}

// TestPipelineReplayEquivalence runs the same trace through the pipeline
// from the original slice, the sequential reader and the parallel reader,
// and requires float-identical ensembles.
func TestPipelineReplayEquivalence(t *testing.T) {
	ps := synthPackets(12, 30000, 4000, 9)
	data := writeArchive(t, ps, WriterOptions{BlockSize: 4096})
	cfg := stream.PipelineConfig{NV: 5000}

	run := func(src stream.PacketSource) (*stream.EnsembleSink, stream.PipelineStats) {
		sink := stream.NewEnsembleSink()
		stats, err := stream.Run(src, cfg, sink)
		if err != nil {
			t.Fatal(err)
		}
		return sink, stats
	}
	refSink, refStats := run(stream.NewSliceSource(ps))

	seq, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	seqSink, seqStats := run(seq)

	par, err := NewParallelReader(bytes.NewReader(data), int64(len(data)),
		ParallelOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	parSink, parStats := run(par)

	if seqStats != refStats || parStats != refStats {
		t.Fatalf("stats diverge: ref %+v, seq %+v, par %+v", refStats, seqStats, parStats)
	}
	if refStats.SourcePacketsRead != int64(len(ps)) {
		t.Errorf("SourcePacketsRead = %d, want %d", refStats.SourcePacketsRead, len(ps))
	}
	for _, q := range stream.Quantities {
		refMean, refSigma := refSink.Ensemble(q).Mean(), refSink.Ensemble(q).Sigma()
		for _, other := range []*stream.EnsembleSink{seqSink, parSink} {
			mean, sigma := other.Ensemble(q).Mean(), other.Ensemble(q).Sigma()
			if len(mean) != len(refMean) {
				t.Fatalf("%v: bin counts differ", q)
			}
			for i := range refMean {
				if mean[i] != refMean[i] || sigma[i] != refSigma[i] {
					t.Fatalf("%v bin %d: replay ensemble not float-identical", q, i)
				}
			}
		}
	}
}

// TestWriterConcatenatesSources checks RecordFrom can append multiple
// sources into one archive.
func TestWriterConcatenatesSources(t *testing.T) {
	a := synthPackets(1, 700, 100, 4)
	b := synthPackets(2, 900, 100, 0)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RecordFrom(stream.NewSliceSource(a)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RecordFrom(stream.NewSliceSource(b)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Packets() != int64(len(a)+len(b)) {
		t.Errorf("Packets() = %d", w.Packets())
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertSameTrace(t, drain(t, r), append(append([]stream.Packet{}, a...), b...))
}

func TestWriterOptionValidation(t *testing.T) {
	if _, err := NewWriter(&bytes.Buffer{}, WriterOptions{Level: 42}); err == nil {
		t.Error("expected error for invalid compression level")
	}
	if _, err := NewWriter(&bytes.Buffer{}, WriterOptions{BlockSize: maxBlockPackets + 1}); err == nil {
		t.Error("expected error for oversized block")
	}
}
