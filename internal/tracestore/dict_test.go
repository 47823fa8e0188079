package tracestore

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hybridplaw/internal/netgen"
	"hybridplaw/internal/obs"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/xrand"
)

// dictPayload is the dict-only payload of packets, without the packed
// fallback: what a tag-0x04 block stores whenever dict is the smaller.
func dictPayload(packets []stream.Packet) []byte {
	var e dictEncoder
	return e.appendColumns(appendValidity(nil, packets), packets)
}

// rawDictPayload assembles a dict payload of n packets, all valid, from
// explicit columns — including ones the encoder never writes, for the
// corruption checks.
func rawDictPayload(n int, k uint64, srcDeltas, dsts, ranks []uint32) []byte {
	b := []byte{validityRaw}
	for i := 0; i < (n+7)/8; i++ {
		b = append(b, 0)
	}
	for i := 0; i < n; i++ {
		b[1+i/8] |= 1 << uint(i%8)
	}
	b = binary.AppendUvarint(b, k)
	for _, col := range [][]uint32{srcDeltas, dsts, ranks} {
		for at := 0; at < len(col); at += packedGroup {
			b = packMiniblock(b, col[at:min(at+packedGroup, len(col))])
		}
	}
	return b
}

// decodeDictBoth decodes a dict payload through the unfused decoder
// and the fused walker, failing the test if they disagree on whether it
// is corrupt; it returns the unfused result.
func decodeDictBoth(t *testing.T, raw []byte, n int) ([]stream.Packet, error) {
	t.Helper()
	got, _, err := decodeBlockDict(raw, n, nil, nil)
	var w dictWalker
	werr := w.init(raw, n)
	if werr == nil {
		_, _, werr = w.decodeInto(stream.NewPairWindow(int64(n) + 1))
	}
	if (err == nil) != (werr == nil) {
		t.Fatalf("unfused err=%v, fused err=%v", err, werr)
	}
	return got, err
}

// TestDictPayloadChecks pins each corruption check of the dict decoder
// on hand-built payloads, next to the one valid payload they perturb.
func TestDictPayloadChecks(t *testing.T) {
	got, err := decodeDictBoth(t, rawDictPayload(3, 2, []uint32{1, 0}, []uint32{5, 6}, []uint32{0, 1, 1}), 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []stream.Packet{{Src: 1, Dst: 5, Valid: true}, {Src: 1, Dst: 6, Valid: true}, {Src: 1, Dst: 6, Valid: true}}
	assertSameTrace(t, got, want)

	valid := rawDictPayload(3, 2, []uint32{1, 0}, []uint32{5, 6}, []uint32{0, 1, 1})
	for _, c := range []struct {
		name string
		raw  []byte
	}{
		{"empty dictionary", rawDictPayload(3, 0, nil, nil, []uint32{0, 0, 0})},
		{"K > n", rawDictPayload(3, 4, []uint32{1, 0, 0, 0}, []uint32{1, 2, 3, 4}, []uint32{0, 1, 2})},
		{"descending keys", rawDictPayload(3, 2, []uint32{1, 0}, []uint32{6, 5}, []uint32{0, 1, 1})},
		{"repeated key", rawDictPayload(3, 2, []uint32{1, 0}, []uint32{5, 5}, []uint32{0, 1, 1})},
		{"src overflow", rawDictPayload(3, 2, []uint32{^uint32(0), 1}, []uint32{0, 0}, []uint32{0, 1, 1})},
		{"rank >= K", rawDictPayload(3, 2, []uint32{1, 0}, []uint32{5, 6}, []uint32{0, 2, 1})},
		{"trailing byte", append(append([]byte(nil), valid...), 0)},
		{"truncated ranks", valid[:len(valid)-1]},
		{"truncated K", valid[:2]},
	} {
		_, err := decodeDictBoth(t, c.raw, 3)
		expectCorrupt(t, c.name, err)
	}
	// An empty block has an empty dictionary.
	if _, err := decodeDictBoth(t, rawDictPayload(0, 0, nil, nil, nil), 0); err != nil {
		t.Errorf("empty block: %v", err)
	}
}

// TestDictFallback pins the packed fallback rule: a block of distinct
// pairs is written as packed (its packed columns are strictly smaller),
// a block of repeated pairs as dict, each block's stored payload is the
// smaller of the two, and archives that mix both are byte-identical at
// any writer worker count.
func TestDictFallback(t *testing.T) {
	const block = 1000
	ps := make([]stream.Packet, 0, 4*block+10)
	for i := 0; i < 2*block; i++ { // unique pairs: K = n
		ps = append(ps, stream.Packet{Src: uint32(i), Dst: uint32(i*7919) % 100003, Valid: true})
	}
	for i := 0; i < 2*block+10; i++ { // 20 pairs of wide ids: K << n
		j := uint32(i*i) % 20
		ps = append(ps, stream.Packet{Src: 1e6 + 977*j, Dst: 3e6 + 131*j, Valid: i%6 != 5})
	}
	serial := writeArchive(t, ps, WriterOptions{BlockSize: block})
	for _, workers := range []int{2, 3} {
		if !bytes.Equal(serial, writeArchive(t, ps, WriterOptions{BlockSize: block, Workers: workers})) {
			t.Fatalf("workers=%d archive differs from serial", workers)
		}
	}
	idx, err := readIndex(bytes.NewReader(serial), int64(len(serial)))
	if err != nil {
		t.Fatal(err)
	}
	wantCodecs := []Codec{CodecPacked, CodecPacked, CodecDict, CodecDict, CodecDict}
	for i, bl := range idx.blocks {
		if bl.codec != wantCodecs[i] {
			t.Errorf("block %d codec %v, want %v", i, bl.codec, wantCodecs[i])
		}
		pkts := ps[i*block : min((i+1)*block, len(ps))]
		packed, _ := encodeBlockPacked(nil, pkts)
		want := min(len(dictPayload(pkts)), len(packed))
		if bl.compLen != want {
			t.Errorf("block %d stores %d bytes, want min(dict, packed) = %d", i, bl.compLen, want)
		}
	}
	assertSameTrace(t, replayAll(t, serial), ps)
}

// TestDictEdgeValues round-trips the dictionary's extremes: one key
// repeated (K = 1, width-0 ranks), keys at the top of the uint32 range
// (the largest src deltas), and a block of one packet.
func TestDictEdgeValues(t *testing.T) {
	top := ^uint32(0)
	for _, ps := range [][]stream.Packet{
		{{Src: 7, Dst: 9, Valid: true}},
		slices.Repeat([]stream.Packet{{Src: top, Dst: top, Valid: true}}, 700),
		append(slices.Repeat([]stream.Packet{{Src: 0, Dst: 0}}, 300),
			stream.Packet{Src: top, Dst: 0, Valid: true}, stream.Packet{Src: 0, Dst: top, Valid: true}),
	} {
		raw := dictPayload(ps)
		got, err := decodeDictBoth(t, raw, len(ps))
		if err != nil {
			t.Fatal(err)
		}
		assertSameTrace(t, got, ps)
	}
}

// TestDictEncoderNoAllocs pins that the block encoder reuses its
// buffers: once warm, encoding a block allocates nothing.
func TestDictEncoderNoAllocs(t *testing.T) {
	ps := synthPackets(5, 4096, 500, 9)
	var e blockEncoder
	rec, _, err := e.encodeRecord(nil, ps, CodecDict)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		rec, _, err = e.encodeRecord(rec, ps, CodecDict)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("warm dict block encode allocates %.1f times per block", allocs)
	}
}

// TestMetricsDict pins the dict codec's metrics split: a dict archive
// lands every block in the dict counters and timers, none in the
// DEFLATE or packed ones, and the canonical-raw accounting invariant
// (ReadRawBytes == info.RawBytes) holds for the dict codec too.
func TestMetricsDict(t *testing.T) {
	ps := synthPackets(25, 3000, 200, 7)
	m := NewMetrics(obs.NewRegistry())

	var buf bytes.Buffer
	if _, err := Record(&buf, stream.NewSliceSource(ps), WriterOptions{BlockSize: 512, Metrics: m}); err != nil {
		t.Fatal(err)
	}
	info, err := Info(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if info.DictBlocks != info.Blocks {
		t.Fatalf("archive mix %s, want all dict", info.CodecMix())
	}
	for name, got := range map[string]int64{
		"dict blocks written": m.DictBlocksWritten.Value(),
		"dict encode spans":   m.DictEncodeTime.Spans(),
	} {
		if got != int64(info.Blocks) {
			t.Errorf("%s = %d, want %d", name, got, info.Blocks)
		}
	}
	for name, got := range map[string]int64{
		"deflate spans":         m.DeflateTime.Spans(),
		"pack spans":            m.PackTime.Spans(),
		"packed blocks written": m.PackedBlocksWritten.Value(),
	} {
		if got != 0 {
			t.Errorf("%s = %d on a dict archive", name, got)
		}
	}
	if got := m.WriteRawBytes.Value(); got != info.RawBytes {
		t.Errorf("write raw bytes = %d, index says %d", got, info.RawBytes)
	}
	if got := m.DictWrittenBytes.Value(); got != info.CompressedBytes {
		t.Errorf("dict written bytes = %d, index says %d", got, info.CompressedBytes)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r.SetMetrics(m)
	w := stream.NewPairWindow(1 << 20)
	for {
		if _, _, _, ok := r.DecodeInto(w); !ok {
			break
		}
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	for name, got := range map[string]int64{
		"dict blocks read":  m.DictBlocksRead.Value(),
		"dict decode spans": m.DictDecodeTime.Spans(),
	} {
		if got != int64(info.Blocks) {
			t.Errorf("%s = %d, want %d", name, got, info.Blocks)
		}
	}
	if got := m.InflateTime.Spans() + m.UnpackTime.Spans(); got != 0 {
		t.Errorf("inflate + unpack spans = %d on a dict archive", got)
	}
	if got := m.ReadRawBytes.Value(); got != info.RawBytes {
		t.Errorf("read raw bytes = %d, want %d", got, info.RawBytes)
	}
	if got := m.DictReadBytes.Value(); got != info.CompressedBytes {
		t.Errorf("dict read bytes = %d, want %d", got, info.CompressedBytes)
	}
}

// legacyPackets are the packets of the committed pre-dict archives in
// testdata (legacy-deflate-v1.ptrc, legacy-packed-v1.ptrc: 512-packet
// blocks, written with explicit CodecDeflate and CodecPacked before the
// dict codec existed).
func legacyPackets() []stream.Packet { return synthPackets(2026, 3000, 400, 9) }

// TestLegacyArchivesReplay pins that archives written before the dict
// codec still replay: both committed archives decode to the packets
// they were written from through the sequential reader (unfused and
// fused) and the parallel reader at 1, 2 and 4 workers, and every path
// yields the same windows.
func TestLegacyArchivesReplay(t *testing.T) {
	ps := legacyPackets()
	for _, name := range []string{"legacy-deflate-v1.ptrc", "legacy-packed-v1.ptrc"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		seq, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSameTrace(t, drain(t, seq), ps)

		run := func(src stream.PacketSource) []byte {
			t.Helper()
			var col stream.ResultCollector
			if _, err := stream.Run(src, stream.PipelineConfig{NV: 700}, &col); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return renderResults(col.Results)
		}
		var ref stream.ResultCollector
		if _, err := stream.Run(stream.NewSliceSource(ps), stream.PipelineConfig{NV: 700}, &ref); err != nil {
			t.Fatal(err)
		}
		want := renderResults(ref.Results)
		seqFused, _ := NewReader(bytes.NewReader(data))
		seqUnfused, _ := NewReader(bytes.NewReader(data))
		for path, src := range map[string]stream.PacketSource{
			"seq-fused":   seqFused,
			"seq-unfused": unfusedSource{src: seqUnfused},
		} {
			if got := run(src); !bytes.Equal(got, want) {
				t.Errorf("%s %s: windows differ from the packets' own", name, path)
			}
		}
		for _, workers := range []int{1, 2, 4} {
			par, err := NewParallelReader(bytes.NewReader(data), int64(len(data)), ParallelOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			assertSameTrace(t, drain(t, par), ps)
			par.Close()
			par, _ = NewParallelReader(bytes.NewReader(data), int64(len(data)), ParallelOptions{Workers: workers})
			if got := run(par); !bytes.Equal(got, want) {
				t.Errorf("%s parallel workers=%d: windows differ from the packets' own", name, workers)
			}
			par.Close()
		}
	}
}

// TestLegacyCodecBytesPinned pins the bytes of explicit CodecDeflate
// and CodecPacked archives, serial and pipelined, to SHA-256 digests
// captured before the dict codec was added: adding a codec and changing
// the default must not move a byte the existing codecs write. The
// committed legacy archives are pinned the same way, as written today.
func TestLegacyCodecBytesPinned(t *testing.T) {
	ps := synthPackets(27, 40000, 8192, 9)
	for _, c := range []struct {
		codec Codec
		sum   string
	}{
		{CodecDeflate, "432512b073fb5ee5395675e0c694d8a4586a54dac1e0e9f0d458e72f9f6fee9c"},
		{CodecPacked, "8730c4fc4b4142a4f6dceb5b615cedd08965a28ce19e8ffaf0f35e77de592bb8"},
	} {
		for _, workers := range []int{1, 3} {
			data := writeArchive(t, ps, WriterOptions{BlockSize: 4096, Codec: c.codec, Workers: workers})
			if got := sha256.Sum256(data); hex.EncodeToString(got[:]) != c.sum {
				t.Errorf("%v workers=%d: archive sha256 %x, pinned %s", c.codec, workers, got, c.sum)
			}
		}
	}
	for _, c := range []struct {
		name  string
		codec Codec
	}{{"legacy-deflate-v1.ptrc", CodecDeflate}, {"legacy-packed-v1.ptrc", CodecPacked}} {
		want, err := os.ReadFile(filepath.Join("testdata", c.name))
		if err != nil {
			t.Fatal(err)
		}
		if got := writeArchive(t, legacyPackets(), WriterOptions{BlockSize: 512, Codec: c.codec}); !bytes.Equal(got, want) {
			t.Errorf("%v archive of the legacy packets no longer matches %s", c.codec, c.name)
		}
	}
}

// refDictColumns is the reference dict encoder, the oracle for
// dictEncoder.appendColumns: an open-addressing hash table assigns
// first-seen ids, slices.Sort orders the distinct keys, and probing the
// table maps each id to its key's rank.
func refDictColumns(dst []byte, packets []stream.Packet) []byte {
	type slot struct {
		key uint64
		id  uint32 // first-seen id + 1; 0 = empty
	}
	n := len(packets)
	size := 2
	for size < 2*n {
		size <<= 1
	}
	slots := make([]slot, size)
	hash := func(key uint64) int { return int((key * 0x9E3779B97F4A7C15) >> 32 & uint64(size-1)) }
	var keys []uint64
	ids := make([]uint32, n)
	for i, p := range packets {
		key := uint64(p.Src)<<32 | uint64(p.Dst)
		h := hash(key)
		for slots[h].id != 0 && slots[h].key != key {
			h = (h + 1) & (size - 1)
		}
		if slots[h].id == 0 {
			keys = append(keys, key)
			slots[h] = slot{key, uint32(len(keys))}
		}
		ids[i] = slots[h].id - 1
	}
	dict := slices.Clone(keys)
	slices.Sort(dict)
	rankOf := make([]uint32, len(keys))
	for r, key := range dict {
		h := hash(key)
		for slots[h].key != key {
			h = (h + 1) & (size - 1)
		}
		rankOf[slots[h].id-1] = uint32(r)
	}
	srcDeltas := make([]uint32, len(dict))
	dsts := make([]uint32, len(dict))
	prev := uint32(0)
	for i, key := range dict {
		srcDeltas[i], prev = uint32(key>>32)-prev, uint32(key>>32)
		dsts[i] = uint32(key)
	}
	ranks := make([]uint32, n)
	for i, id := range ids {
		ranks[i] = rankOf[id]
	}
	dst = binary.AppendUvarint(dst, uint64(len(dict)))
	for _, col := range [][]uint32{srcDeltas, dsts, ranks} {
		for at := 0; at < len(col); at += packedGroup {
			dst = packMiniblock(dst, col[at:min(at+packedGroup, len(col))])
		}
	}
	return dst
}

// TestDictEncoderMatchesReference diffs the radix-sort dict encoder
// against refDictColumns byte for byte, on blocks from fully distinct
// to one repeated pair, with extreme ids and reused encoder buffers.
func TestDictEncoderMatchesReference(t *testing.T) {
	rng := xrand.New(77)
	var e dictEncoder
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(3000)
		nodes := 1 + rng.Intn(1<<(1+rng.Intn(24)))
		ps := synthPackets(rng.Uint64(), n, nodes, rng.Intn(5))
		if n > 0 && rng.Bernoulli(0.3) {
			for k := 0; k < 6; k++ {
				ps[rng.Intn(n)].Src = ^uint32(0) - uint32(rng.Intn(3))
				ps[rng.Intn(n)].Dst = ^uint32(0) - uint32(rng.Intn(3))
			}
		}
		got := e.appendColumns(nil, ps)
		if want := refDictColumns(nil, ps); !bytes.Equal(got, want) {
			t.Fatalf("trial %d (n=%d nodes=%d): encoder and reference disagree (%d vs %d bytes)",
				trial, n, nodes, len(got), len(want))
		}
	}
}

// trafficBlock is one default-size block of the palu-trace default
// synthetic site: heavy-tailed links, the dict codec's home ground.
func trafficBlock(tb testing.TB) []stream.Packet {
	params, err := palu.FromWeights(2, 2, 1.5, 2.5, 2.0)
	if err != nil {
		tb.Fatal(err)
	}
	site, err := netgen.NewSite(netgen.SiteConfig{
		Name: "palu-trace", Params: params, Nodes: 50000, P: 0.5,
		WeightAlpha: 2.1, WeightDelta: 0, MaxWeight: 4096,
		InvalidFraction: 0.02, HubOrientation: 0.7, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	src := site.PacketSource()
	ps := make([]stream.Packet, DefaultBlockSize)
	for i := range ps {
		ps[i], _ = src.Next()
	}
	return ps
}

// uniformBlock is one default-size block of palu-bench's synthTrace
// shape: uniform 13-bit ids with a hot destination subset, nearly every
// pair distinct, so the dict codec falls back to packed columns.
func uniformBlock() []stream.Packet {
	rng := xrand.New(3)
	ps := make([]stream.Packet, DefaultBlockSize)
	for i := range ps {
		ps[i] = stream.Packet{Src: uint32(rng.Intn(8192)), Dst: uint32(rng.Intn(8192)), Valid: true}
		if rng.Intn(4) == 0 {
			ps[i].Dst = uint32(rng.Intn(16))
		}
	}
	return ps
}

// BenchmarkBlockEncode times one default-size block record per codec on
// heavy-tailed and on uniform traffic, next to the reference dict
// encoder; B/pkt is the stored payload size.
func BenchmarkBlockEncode(b *testing.B) {
	for _, data := range []struct {
		name string
		ps   []stream.Packet
	}{{"traffic", trafficBlock(b)}, {"uniform", uniformBlock()}} {
		for _, c := range []Codec{CodecDict, CodecDeflate, CodecPacked} {
			b.Run(data.name+"/"+c.String(), func(b *testing.B) {
				e := blockEncoder{level: flate.DefaultCompression}
				var rec []byte
				for i := 0; i < b.N; i++ {
					rec, _, _ = e.encodeRecord(rec, data.ps, c)
				}
				b.ReportMetric(float64(len(rec)-1-blockHeaderLen)/float64(len(data.ps)), "B/pkt")
			})
		}
		b.Run(data.name+"/dict-reference", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				refDictColumns(appendValidity(nil, data.ps), data.ps)
			}
		})
	}
}

// TestParseCodec pins the codec names the CLIs accept: every codec
// round-trips through its name, and the error for an unknown name lists
// all three.
func TestParseCodec(t *testing.T) {
	for c := Codec(0); c < numCodecs; c++ {
		if got, err := ParseCodec(c.String()); err != nil || got != c {
			t.Errorf("ParseCodec(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseCodec("zstd"); err == nil || !strings.Contains(err.Error(), "dict, deflate or packed") {
		t.Errorf("ParseCodec(zstd) error %v, want one naming every codec", err)
	}
}
