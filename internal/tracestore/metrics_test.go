package tracestore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"hybridplaw/internal/obs"
	"hybridplaw/internal/stream"
)

// TestMetricsRoundTrip pins the exact block/byte accounting of an
// archive written and replayed with instrumentation: write counters
// match the archive's index totals, and the sequential read counters
// mirror the write counters exactly. A DEFLATE archive, which only
// earlier writers produced, is read with the same exact accounting.
func TestMetricsRoundTrip(t *testing.T) {
	ps := synthPackets(11, 3000, 200, 7)
	reg := obs.NewRegistry()
	m := NewMetrics(reg)

	var buf bytes.Buffer
	if _, err := Record(&buf, stream.NewSliceSource(ps), WriterOptions{BlockSize: 512, Metrics: m}); err != nil {
		t.Fatal(err)
	}
	info, err := Info(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.BlocksWritten.Value(); got != int64(info.Blocks) {
		t.Errorf("blocks written counter = %d, index says %d", got, info.Blocks)
	}
	if got := m.WriteRawBytes.Value(); got != info.RawBytes {
		t.Errorf("write raw bytes = %d, index says %d", got, info.RawBytes)
	}
	if got := m.WriteCompressedBytes.Value(); got != info.CompressedBytes {
		t.Errorf("write compressed bytes = %d, index says %d", got, info.CompressedBytes)
	}
	if got := m.DictEncodeTime.Spans(); got != int64(info.Blocks) {
		t.Errorf("encode spans = %d, want %d", got, info.Blocks)
	}
	replayCounted(t, buf.Bytes(), len(ps), m)

	deflate := writeCodecArchive(t, ps, 512, CodecDeflate)
	m = NewMetrics(obs.NewRegistry())
	replayCounted(t, deflate, len(ps), m)
	if got := m.InflateTime.Spans(); got != m.BlocksRead.Value() {
		t.Errorf("inflate spans = %d, want one per block read (%d)", got, m.BlocksRead.Value())
	}
}

// replayCounted replays archive through an instrumented sequential
// reader and checks the read counters against the archive's index.
func replayCounted(t *testing.T, archive []byte, packets int, m *Metrics) {
	t.Helper()
	info, err := Info(bytes.NewReader(archive), int64(len(archive)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	r.SetMetrics(m)
	n := 0
	for {
		if _, ok := r.Next(); !ok {
			break
		}
		n++
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if n != packets {
		t.Fatalf("replayed %d packets, want %d", n, packets)
	}
	if got := m.BlocksRead.Value(); got != int64(info.Blocks) {
		t.Errorf("blocks read counter = %d, want %d", got, info.Blocks)
	}
	if got := m.ReadCompressedBytes.Value(); got != info.CompressedBytes {
		t.Errorf("read compressed bytes = %d, want %d", got, info.CompressedBytes)
	}
	if got := m.ReadRawBytes.Value(); got != info.RawBytes {
		t.Errorf("read raw bytes = %d, want %d", got, info.RawBytes)
	}
	if got := m.CRCFailures.Value(); got != 0 {
		t.Errorf("CRC failures = %d on a clean archive", got)
	}
	// The sequential reader reuses one raw buffer: first block (or a
	// growth) allocates, the rest reuse.
	if alloc, reuse := m.RawBufAlloc.Value(), m.RawBufReuse.Value(); alloc+reuse != int64(info.Blocks) || alloc < 1 {
		t.Errorf("rawbuf alloc=%d reuse=%d, want alloc+reuse=%d with alloc>=1", alloc, reuse, info.Blocks)
	}
}

// TestMetricsParallelReader pins that the parallel reader's per-worker
// decoders aggregate into one bundle and the block counters still sum
// exactly when the archive is fully drained.
func TestMetricsParallelReader(t *testing.T) {
	ps := synthPackets(13, 4000, 150, 0)
	data := writeArchive(t, ps, WriterOptions{BlockSize: 256})
	info, err := Info(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics(obs.NewRegistry())
	p, err := NewParallelReader(bytes.NewReader(data), int64(len(data)), ParallelOptions{
		Workers: 3, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	n := 0
	for {
		if _, ok := p.Next(); !ok {
			break
		}
		n++
	}
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	if n != len(ps) {
		t.Fatalf("replayed %d packets, want %d", n, len(ps))
	}
	if got := m.BlocksRead.Value(); got != int64(info.Blocks) {
		t.Errorf("blocks read counter = %d, want %d", got, info.Blocks)
	}
	if got := m.ReadRawBytes.Value(); got != info.RawBytes {
		t.Errorf("read raw bytes = %d, want %d", got, info.RawBytes)
	}
}

// TestMetricsParallelWriter pins that the pipelined writer's accounting
// is exact at any worker count: block/byte counters, per-codec block
// counts and encode-timer span counts match the serial writer's one for
// one (the pipeline moves where encoding happens, not how much of it
// happens), and the queue-depth and worker-occupancy gauges settle back
// to zero once Close drains the pipeline.
func TestMetricsParallelWriter(t *testing.T) {
	// Unique pairs, then repeated ones, then unique again: packed and
	// dict blocks, with codec changes inside blocks.
	ps := append(append(uniquePairs(257*4+63), repeatedPairs(257*5)...), uniquePairs(400)...)
	type counts struct {
		blocks, raw, comp, packed, dict, spans int64
	}
	measure := func(workers int) counts {
		t.Helper()
		m := NewMetrics(obs.NewRegistry())
		w, err := NewWriter(&bytes.Buffer{}, WriterOptions{BlockSize: 257, Workers: workers, Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			if err := w.Write(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if d := m.CompressQueueDepth.Value(); d != 0 {
			t.Errorf("workers=%d: compress queue depth = %d after Close, want 0", workers, d)
		}
		if b := m.CompressWorkersBusy.Value(); b != 0 {
			t.Errorf("workers=%d: busy workers = %d after Close, want 0", workers, b)
		}
		return counts{
			blocks: m.BlocksWritten.Value(),
			raw:    m.WriteRawBytes.Value(),
			comp:   m.WriteCompressedBytes.Value(),
			packed: m.PackedBlocksWritten.Value(),
			dict:   m.DictBlocksWritten.Value(),
			spans:  m.DictEncodeTime.Spans(),
		}
	}
	serial := measure(1)
	if serial.packed == 0 || serial.dict == 0 {
		t.Fatalf("serial baseline did not write both codecs: %+v", serial)
	}
	if serial.packed+serial.dict != serial.blocks || serial.spans != serial.blocks {
		t.Fatalf("serial packed %d + dict %d blocks, %d encode spans; want %d each",
			serial.packed, serial.dict, serial.spans, serial.blocks)
	}
	for _, workers := range []int{2, 4} {
		if got := measure(workers); got != serial {
			t.Errorf("workers=%d counters %+v != serial %+v", workers, got, serial)
		}
	}
}

// TestMetricsCRCFailure pins that a corrupted block payload lands in the
// CRC failure counter and leaves the block-read counter untouched for
// that block.
func TestMetricsCRCFailure(t *testing.T) {
	ps := synthPackets(17, 600, 50, 0)
	data := writeArchive(t, ps, WriterOptions{BlockSize: 1024})
	// Flip one byte inside the first block's compressed payload.
	data[len(fileMagic)+1+blockHeaderLen+3] ^= 0xff
	m := NewMetrics(obs.NewRegistry())
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	r.SetMetrics(m)
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("expected corruption error, got %v", r.Err())
	}
	if got := m.CRCFailures.Value(); got != 1 {
		t.Errorf("CRC failures = %d, want 1", got)
	}
	if got := m.BlocksRead.Value(); got != 0 {
		t.Errorf("blocks read = %d after CRC reject, want 0", got)
	}
}

// TestInfoFileBlocks pins the per-block table against the aggregate
// info: the block stats must tile the archive totals exactly.
func TestInfoFileBlocks(t *testing.T) {
	ps := synthPackets(19, 2500, 100, 5)
	data := writeArchive(t, ps, WriterOptions{BlockSize: 512})
	path := filepath.Join(t.TempDir(), "x.ptrc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	info, blocks, err := InfoFileBlocks(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := InfoFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if info != want {
		t.Fatalf("InfoFileBlocks info %+v != InfoFile %+v", info, want)
	}
	if len(blocks) != info.Blocks {
		t.Fatalf("block table has %d entries, info says %d", len(blocks), info.Blocks)
	}
	var packets, valid, raw, comp int64
	for i, b := range blocks {
		if b.Packets <= 0 || b.Valid < 0 || b.Valid > int64(b.Packets) {
			t.Fatalf("block %d has inconsistent counts: %+v", i, b)
		}
		packets += int64(b.Packets)
		valid += b.Valid
		raw += int64(b.RawBytes)
		comp += int64(b.CompressedBytes)
	}
	if packets != info.Packets || valid != info.ValidPackets ||
		raw != info.RawBytes || comp != info.CompressedBytes {
		t.Fatalf("block table sums (p=%d v=%d r=%d c=%d) disagree with info %+v",
			packets, valid, raw, comp, info)
	}
}
