package tracestore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"

	"hybridplaw/internal/obs"
	"hybridplaw/internal/stream"
)

// writeWith drives a Writer packet by packet over ps and returns the
// archive bytes.
func writeWith(t *testing.T, ps []stream.Packet, opts WriterOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, opts)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i, p := range ps {
		if err := w.Write(p); err != nil {
			t.Fatalf("Write packet %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// replayAll decodes an archive back into its packet sequence.
func replayAll(t *testing.T, archive []byte) []stream.Packet {
	t.Helper()
	r, err := NewReader(bytes.NewReader(archive))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	return drain(t, r)
}

// TestParallelWriterEquivalence pins the tentpole property: the
// pipelined writer produces archives byte-identical to the serial
// writer at any worker count, whether its blocks are dict blocks,
// packed fallbacks or a mix of both switching mid-stream, with and
// without a partial final block.
func TestParallelWriterEquivalence(t *testing.T) {
	const block = 257
	ps := synthPackets(21, block*9+41, 700, 6) // 9 full blocks + partial tail
	cases := []struct {
		name string
		ps   []stream.Packet
	}{
		{"dict", ps},
		{"packed", uniquePairs(block*9 + 41)},
		// The codec changes with the traffic, mid-block, several times.
		{"mixed", append(append(append(uniquePairs(300), repeatedPairs(1100)...), uniquePairs(600)...), repeatedPairs(350)...)},
		{"exact-blocks", ps[:block*4]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := writeWith(t, tc.ps, WriterOptions{BlockSize: block})
			for _, workers := range []int{2, 4} {
				par := writeWith(t, tc.ps, WriterOptions{BlockSize: block, Workers: workers})
				if !bytes.Equal(serial, par) {
					t.Fatalf("workers=%d archive differs from serial: %d vs %d bytes",
						workers, len(par), len(serial))
				}
			}
			assertSameTrace(t, replayAll(t, serial), tc.ps)
		})
	}
}

// TestRecordBlocksFromMatchesPerPacket pins the bulk ingest path: a
// BlockSource drained via RecordBlocksFrom yields the identical archive
// to writing the same packets one at a time, even when source block
// boundaries disagree with the writer's.
func TestRecordBlocksFromMatchesPerPacket(t *testing.T) {
	ps := synthPackets(5, 4000, 300, 9)
	src := writeArchive(t, ps, WriterOptions{BlockSize: 333})
	for _, workers := range []int{1, 3} {
		opts := WriterOptions{BlockSize: 512, Workers: workers}
		want := writeWith(t, ps, opts)

		r, err := NewReader(bytes.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, opts)
		if err != nil {
			t.Fatal(err)
		}
		n, err := w.RecordBlocksFrom(r)
		if err != nil {
			t.Fatalf("RecordBlocksFrom: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if n != int64(len(ps)) {
			t.Fatalf("workers=%d: bulk path wrote %d packets, want %d", workers, n, len(ps))
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Fatalf("workers=%d: bulk archive differs from per-packet archive", workers)
		}
	}
}

// packetOnly hides a Reader's BlockSource interface, forcing the
// per-packet RecordFrom drain.
type packetOnly struct{ r *Reader }

func (s packetOnly) Next() (stream.Packet, bool) { return s.r.Next() }
func (s packetOnly) Err() error                  { return s.r.Err() }

// TestRecordFromPrefersBlockDrain pins that RecordFrom routes
// BlockSources through the bulk path and that both drains produce the
// same archive.
func TestRecordFromPrefersBlockDrain(t *testing.T) {
	ps := synthPackets(17, 3000, 250, 8)
	src := writeArchive(t, ps, WriterOptions{BlockSize: 400})
	record := func(wrap bool) []byte {
		r, err := NewReader(bytes.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		var s stream.PacketSource = r
		if wrap {
			s = packetOnly{r}
		}
		var buf bytes.Buffer
		if _, err := Record(&buf, s, WriterOptions{BlockSize: 512}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(record(false), record(true)) {
		t.Fatal("block drain and per-packet drain disagree")
	}
}

// TestTranscodeArchivePassthrough pins the encoded-block passthrough
// rule: TranscodeArchive re-frames a stored block without decoding it
// only when it is a dict block of the target block size, and its output
// is byte-identical to decoding and re-recording the source — at any
// writer worker count. Packed blocks of the writer's own archives and
// the DEFLATE blocks of earlier writers are re-encoded.
func TestTranscodeArchivePassthrough(t *testing.T) {
	const block = 257
	const n = block*6 + 100
	for _, tc := range []struct {
		name        string
		src         []byte
		passthrough int64
	}{
		{"dict", writeArchive(t, repeatedPairs(n), WriterOptions{BlockSize: block}), 6},
		{"packed", writeArchive(t, uniquePairs(n), WriterOptions{BlockSize: block}), 0},
		{"deflate", writeCodecArchive(t, repeatedPairs(n), block, CodecDeflate), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := recordArchive(t, tc.src, WriterOptions{BlockSize: block})
			for _, workers := range []int{1, 3} {
				o := WriterOptions{BlockSize: block, Workers: workers, Metrics: NewMetrics(obs.NewRegistry())}
				var seeked bytes.Buffer
				got, err := TranscodeArchive(bytes.NewReader(tc.src), int64(len(tc.src)), &seeked, o)
				if err != nil {
					t.Fatalf("TranscodeArchive workers=%d: %v", workers, err)
				}
				if got != n {
					t.Fatalf("transcoded %d packets, want %d", got, n)
				}
				if !bytes.Equal(want, seeked.Bytes()) {
					t.Fatalf("workers=%d: transcode differs from Record over a Reader", workers)
				}
				if got := o.Metrics.PassthroughBlocks.Value(); got != tc.passthrough {
					t.Fatalf("workers=%d: %d passthrough blocks, want %d", workers, got, tc.passthrough)
				}
				if got := o.Metrics.BlocksWritten.Value(); got != 7 {
					t.Fatalf("workers=%d: %d blocks written, want 7", workers, got)
				}
			}
		})
	}
}

// TestTranscodeArchiveFallback pins the decode path: a codec or block
// geometry change disables the passthrough and still matches decoding
// and re-recording byte for byte. The codec change re-archives a
// packed-v1 archive, written regardless of size, into dict blocks.
func TestTranscodeArchiveFallback(t *testing.T) {
	ps := synthPackets(43, 2000, 400, 7)
	cases := []struct {
		name string
		src  []byte
		opts WriterOptions
		mix  string // codec mix of the output, if pinned
	}{
		{"codec-change", writeCodecArchive(t, repeatedPairs(2000), 250, CodecPacked), WriterOptions{BlockSize: 250}, "dict"},
		{"block-change", writeArchive(t, ps, WriterOptions{BlockSize: 250}), WriterOptions{BlockSize: 333}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := recordArchive(t, tc.src, tc.opts)
			o := tc.opts
			o.Metrics = NewMetrics(obs.NewRegistry())
			var seeked bytes.Buffer
			if _, err := TranscodeArchive(bytes.NewReader(tc.src), int64(len(tc.src)), &seeked, o); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, seeked.Bytes()) {
				t.Fatal("fallback transcode differs from Record over a Reader")
			}
			if got := o.Metrics.PassthroughBlocks.Value(); got != 0 {
				t.Fatalf("%d passthrough blocks, want 0", got)
			}
			info, err := Info(bytes.NewReader(want), int64(len(want)))
			if err != nil {
				t.Fatal(err)
			}
			if tc.mix != "" && info.CodecMix() != tc.mix {
				t.Errorf("output codec mix %s, want %s", info.CodecMix(), tc.mix)
			}
		})
	}
}

// TestWriteEncodedBlockEligibility pins the passthrough gate: a block
// is re-framed only when no partial batch is buffered and its codec and
// packet count match the writer's configuration.
func TestWriteEncodedBlockEligibility(t *testing.T) {
	const block = 100
	ps := synthPackets(7, 3*block, 150, 6)
	src := writeArchive(t, ps, WriterOptions{BlockSize: block})
	idx, err := readIndex(bytes.NewReader(src), int64(len(src)))
	if err != nil {
		t.Fatal(err)
	}
	blockOf := func(i int) EncodedBlock {
		bl := idx.blocks[i]
		off := idx.offsets[i] + 1 + blockHeaderLen
		return EncodedBlock{
			Codec:   bl.codec,
			Packets: bl.packets,
			Valid:   bl.valid,
			RawLen:  bl.rawLen,
			Payload: src[off : off+int64(bl.compLen)],
		}
	}

	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{BlockSize: block})
	if err != nil {
		t.Fatal(err)
	}
	if wrote, err := w.WriteEncodedBlock(blockOf(0)); err != nil || !wrote {
		t.Fatalf("aligned block: wrote=%v err=%v, want true", wrote, err)
	}
	mismatch := blockOf(1)
	mismatch.Codec = CodecPacked
	if wrote, err := w.WriteEncodedBlock(mismatch); err != nil || wrote {
		t.Fatalf("codec mismatch: wrote=%v err=%v, want false", wrote, err)
	}
	short := blockOf(1)
	short.Packets = block - 1
	short.Payload = nil
	if wrote, err := w.WriteEncodedBlock(short); err != nil || wrote {
		t.Fatalf("size mismatch: wrote=%v err=%v, want false", wrote, err)
	}
	if err := w.Write(ps[block]); err != nil { // buffer one packet
		t.Fatal(err)
	}
	if wrote, err := w.WriteEncodedBlock(blockOf(2)); err != nil || wrote {
		t.Fatalf("buffered partial: wrote=%v err=%v, want false", wrote, err)
	}
	for _, p := range ps[block+1 : 2*block] { // finish block 1 by hand
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if wrote, err := w.WriteEncodedBlock(blockOf(2)); err != nil || !wrote {
		t.Fatalf("realigned block: wrote=%v err=%v, want true", wrote, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, buf.Bytes())
	if len(got) != 3*block {
		t.Fatalf("replayed %d packets, want %d", len(got), 3*block)
	}
	for i := range got {
		if got[i] != ps[i] {
			t.Fatalf("packet %d: %+v != %+v", i, got[i], ps[i])
		}
	}
}

// failAfterWriter errors once its byte budget is spent — a stand-in for
// a full disk under the committer.
type failAfterWriter struct {
	budget int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.budget -= len(p); w.budget < 0 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// TestParallelWriterCommitError pins the failure path: a sink error
// surfaces from Write or Close, Close is safe to call (and required, to
// reap the pipeline, leaving no goroutine behind), and repeated Closes
// return the same error.
func TestParallelWriterCommitError(t *testing.T) {
	ps := synthPackets(3, 20000, 300, 6)
	before := runtime.NumGoroutine()
	w, err := NewWriter(&failAfterWriter{budget: 4096}, WriterOptions{BlockSize: 256, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var werr error
	for _, p := range ps {
		if werr = w.Write(p); werr != nil {
			break
		}
	}
	cerr := w.Close()
	if werr == nil && cerr == nil {
		t.Fatal("sink error never surfaced")
	}
	if cerr == nil {
		t.Fatal("Close after a pipeline failure must return the error")
	}
	if again := w.Close(); !errors.Is(again, cerr) && again.Error() != cerr.Error() {
		t.Fatalf("second Close: %v, want %v", again, cerr)
	}
	if werr = w.Write(ps[0]); werr == nil {
		t.Fatal("Write after failed Close must error")
	}
	expectGoroutinesSettle(t, before)
}

// buildTranscodeFixture archives n synthetic packets once per benchmark
// run configuration.
func buildTranscodeFixture(b *testing.B, n int, opts WriterOptions) []byte {
	b.Helper()
	ps := synthPacketsBench(9, n, 600, 7)
	var buf bytes.Buffer
	if _, err := Record(&buf, stream.NewSliceSource(ps), opts); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func synthPacketsBench(seed uint64, n, nodes, invalidEvery int) []stream.Packet {
	// mirror synthPackets without *testing.T plumbing
	return synthPackets(seed, n, nodes, invalidEvery)
}

// The transcode benchmark pair documents the RecordFrom fix: the bulk
// block drain vs the same source with its BlockSource interface hidden.
// The per-packet variant pays one interface call per packet and
// re-buffers each one; the bulk variant appends whole blocks.
func benchmarkTranscode(b *testing.B, perPacket bool) {
	opts := WriterOptions{BlockSize: 1 << 13}
	src := buildTranscodeFixture(b, 1<<16, opts)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewReader(bytes.NewReader(src))
		if err != nil {
			b.Fatal(err)
		}
		var s stream.PacketSource = r
		if perPacket {
			s = packetOnly{r}
		}
		if _, err := Record(io.Discard, s, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTranscodeBulk(b *testing.B)      { benchmarkTranscode(b, false) }
func BenchmarkTranscodePerPacket(b *testing.B) { benchmarkTranscode(b, true) }

// BenchmarkTranscodeArchivePassthrough measures the verbatim re-frame
// path: dict blocks at the same block size, no decode, no re-encode.
func BenchmarkTranscodeArchivePassthrough(b *testing.B) {
	opts := WriterOptions{BlockSize: 1 << 13}
	ps := repeatedPairs(1 << 16)
	var buf bytes.Buffer
	if _, err := Record(&buf, stream.NewSliceSource(ps), opts); err != nil {
		b.Fatal(err)
	}
	src := buf.Bytes()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TranscodeArchive(bytes.NewReader(src), int64(len(src)), io.Discard, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecordWorkers is the record-path worker matrix in miniature
// (palu-bench carries the full version): serial vs pipelined writes of
// one synthetic trace.
func BenchmarkRecordWorkers(b *testing.B) {
	ps := synthPacketsBench(11, 1<<16, 600, 7)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			opts := WriterOptions{BlockSize: 1 << 13, Workers: workers}
			b.SetBytes(int64(len(ps)) * 9) // ~bytes of raw encoding
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Record(io.Discard, stream.NewSliceSource(ps), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
