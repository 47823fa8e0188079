package tracestore

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"hybridplaw/internal/stream"
)

// TestParallelEarlyClose abandons the reader mid-stream (the pipeline
// does this when MaxWindows is reached) and checks the decode pool shuts
// down instead of leaking goroutines.
func TestParallelEarlyClose(t *testing.T) {
	ps := synthPackets(21, 20000, 2000, 0)
	data := writeArchive(t, ps, WriterOptions{BlockSize: 256})
	before := runtime.NumGoroutine()
	for trial := 0; trial < 5; trial++ {
		r, err := NewParallelReader(bytes.NewReader(data), int64(len(data)),
			ParallelOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if _, ok := r.Next(); !ok {
				t.Fatal("stream ended early")
			}
		}
		r.Close()
		if _, ok := r.Next(); ok {
			t.Error("Next returned a packet after Close")
		}
	}
	expectGoroutinesSettle(t, before)
}

// expectGoroutinesSettle fails t unless the goroutine count comes back
// to before promptly. Goroutines park asynchronously after the call
// that waited for them returns, so the count is polled.
func expectGoroutinesSettle(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestParallelCorruptMiddleBlock replays an archive whose middle block
// fails its CRC: every earlier packet arrives in order, the error wraps
// ErrCorrupt, and the blocks already dispatched behind the bad one are
// reaped without leaking a goroutine.
func TestParallelCorruptMiddleBlock(t *testing.T) {
	const blockSize, blocks = 256, 40
	ps := synthPackets(23, blockSize*blocks, 2000, 0)
	data := writeArchive(t, ps, WriterOptions{BlockSize: blockSize})
	idx, err := readIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	const bad = blocks / 2
	data[idx.offsets[bad]+1+blockHeaderLen+3] ^= 0xFF // payload byte: CRC mismatch

	before := runtime.NumGoroutine()
	r, err := NewParallelReader(bytes.NewReader(data), int64(len(data)),
		ParallelOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		p, ok := r.Next()
		if !ok {
			if i != bad*blockSize {
				t.Errorf("stream stopped after %d packets, want %d", i, bad*blockSize)
			}
			break
		}
		if p != ps[i] {
			t.Fatalf("packet %d = %+v, want %+v", i, p, ps[i])
		}
	}
	expectCorrupt(t, "corrupt middle block", r.Err())
	if r.sent <= bad+1 {
		t.Errorf("only %d blocks dispatched: none in flight behind block %d", r.sent, bad)
	}
	r.Close()
	expectGoroutinesSettle(t, before)
}

// TestParallelThroughPipelineMaxWindows checks the pipeline can abandon
// a parallel source when MaxWindows is reached and the source still
// closes cleanly with accurate accounting.
func TestParallelThroughPipelineMaxWindows(t *testing.T) {
	ps := synthPackets(22, 50000, 3000, 10)
	data := writeArchive(t, ps, WriterOptions{BlockSize: 1024})
	r, err := NewParallelReader(bytes.NewReader(data), int64(len(data)),
		ParallelOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stats, err := stream.Run(r, stream.PipelineConfig{NV: 4000, MaxWindows: 3},
		stream.NewEnsembleSink(stream.SourceFanOut))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Windows != 3 {
		t.Fatalf("windows = %d", stats.Windows)
	}
	// Block sources are consumed at block granularity: the bounded run
	// reads at least the packets it counted, at most one block more.
	counted := stats.ValidPackets + stats.InvalidPackets
	if stats.SourcePacketsRead < counted || stats.SourcePacketsRead > counted+1024 {
		t.Errorf("SourcePacketsRead %d outside [%d, %d]",
			stats.SourcePacketsRead, counted, counted+1024)
	}
	if stats.SourcePacketsRead >= int64(len(ps)) {
		t.Errorf("bounded run consumed the whole archive (%d packets)", stats.SourcePacketsRead)
	}
}

// TestParallelManyBlocksOrder stresses order preservation with far more
// blocks than workers.
func TestParallelManyBlocksOrder(t *testing.T) {
	// Packets whose src encodes their global position make any
	// reordering detectable without storing the reference slice.
	const n = 64 * 300
	ps := make([]stream.Packet, n)
	for i := range ps {
		ps[i] = stream.Packet{Src: uint32(i), Dst: uint32(i / 3), Valid: i%5 != 4}
	}
	data := writeArchive(t, ps, WriterOptions{BlockSize: 64})
	r, err := NewParallelReader(bytes.NewReader(data), int64(len(data)),
		ParallelOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < n; i++ {
		p, ok := r.Next()
		if !ok {
			t.Fatalf("stream ended at packet %d: %v", i, r.Err())
		}
		if p.Src != uint32(i) {
			t.Fatalf("packet %d out of order: src %d", i, p.Src)
		}
	}
	if _, ok := r.Next(); ok {
		t.Error("packets past the archived count")
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}
