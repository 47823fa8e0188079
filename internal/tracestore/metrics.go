package tracestore

// PTRC observability (DESIGN.md §11). A Metrics bundle instruments the
// archive codecs at block granularity: the single choke point on the
// read side is blockDecoder.decompress (every sequential and parallel
// block passes through it), and on the write side
// blockEncoder.encodeRecord (shared by the serial writer and every
// pipeline worker). A nil *Metrics strips everything to inert branches.

import "hybridplaw/internal/obs"

// Metrics holds the PTRC instruments, all registered against one
// registry. A nil *Metrics disables instrumentation.
type Metrics struct {
	reg *obs.Registry

	// BlocksRead counts blocks CRC-checked and decoded, of every codec;
	// BlocksWritten counts blocks encoded (or passed through) and
	// written.
	BlocksRead    *obs.Counter
	BlocksWritten *obs.Counter

	// Read/Write byte totals measure the block payloads crossing the
	// codecs (headers excluded): the stored payload bytes, and the
	// length of the canonical raw encoding of the same packets that
	// every block header records, whatever its codec.
	ReadCompressedBytes  *obs.Counter
	ReadRawBytes         *obs.Counter
	WriteRawBytes        *obs.Counter
	WriteCompressedBytes *obs.Counter

	// CRCFailures counts blocks rejected by the Castagnoli check.
	CRCFailures *obs.Counter

	// RawBufReuse / RawBufAlloc split decompress target buffers into
	// warm reuses and fresh (or grown) allocations.
	RawBufReuse *obs.Counter
	RawBufAlloc *obs.Counter

	// InflateTime spans one DEFLATE block decompression (CRC check
	// included). DEFLATE blocks are read, never written.
	InflateTime *obs.Timer

	// PackedBlocksRead / PackedBlocksWritten count the packed-column
	// subset of BlocksRead / BlocksWritten; the DEFLATE counts are the
	// difference. PackedReadBytes / PackedWrittenBytes total the stored
	// packed payload bytes, the packed subset of the compressed totals.
	PackedBlocksRead    *obs.Counter
	PackedBlocksWritten *obs.Counter
	PackedReadBytes     *obs.Counter
	PackedWrittenBytes  *obs.Counter

	// UnpackTime spans one packed block's CRC check and staging (the
	// bit-unpack itself is fused into the consumer's decode walk).
	UnpackTime *obs.Timer

	// DictBlocksRead / DictBlocksWritten, DictReadBytes /
	// DictWrittenBytes are the dict-codec counterparts of the packed
	// counters. DictDecodeTime spans one dict block's CRC check and
	// staging; DictEncodeTime spans every block encode, including the
	// size comparison that may write it as a packed block (counted under
	// PackedBlocksWritten).
	DictBlocksRead    *obs.Counter
	DictBlocksWritten *obs.Counter
	DictReadBytes     *obs.Counter
	DictWrittenBytes  *obs.Counter
	DictDecodeTime    *obs.Timer
	DictEncodeTime    *obs.Timer

	// CompressQueueDepth gauges blocks sealed by the pipelined writer's
	// ingest side and not yet committed; CompressWorkersBusy gauges
	// workers currently inside an encode. Both settle to zero when the
	// writer closes cleanly.
	CompressQueueDepth  *obs.Gauge
	CompressWorkersBusy *obs.Gauge

	// CommitStallTime spans the ingest side's waits for the oldest
	// in-flight record to finish encoding before it can be committed.
	CommitStallTime *obs.Timer

	// PassthroughBlocks counts blocks re-framed verbatim by the
	// transcode passthrough (WriteEncodedBlock), which skip the encode
	// stage entirely; they still count under BlocksWritten.
	PassthroughBlocks *obs.Counter
}

// NewMetrics registers the PTRC instrument set against reg (the process
// default registry if nil) and returns the bundle. Calling it twice
// with one registry returns bundles sharing the same instruments.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.Default()
	}
	return &Metrics{
		reg: reg,
		BlocksRead: reg.Counter("palu_ptrc_blocks_read_total",
			"archive blocks CRC-checked and decoded"),
		BlocksWritten: reg.Counter("palu_ptrc_blocks_written_total",
			"archive blocks written, encoded or passed through"),
		ReadCompressedBytes: reg.Counter("palu_ptrc_read_compressed_bytes_total",
			"compressed block payload bytes read"),
		ReadRawBytes: reg.Counter("palu_ptrc_read_raw_bytes_total",
			"canonical raw-encoding bytes of the blocks read"),
		WriteRawBytes: reg.Counter("palu_ptrc_write_raw_bytes_total",
			"canonical raw-encoding bytes of the blocks written"),
		WriteCompressedBytes: reg.Counter("palu_ptrc_write_compressed_bytes_total",
			"compressed block payload bytes written"),
		CRCFailures: reg.Counter("palu_ptrc_crc_failures_total",
			"blocks rejected by the CRC check"),
		RawBufReuse: reg.Counter("palu_ptrc_rawbuf_reuse_total",
			"decompress target buffers reused warm"),
		RawBufAlloc: reg.Counter("palu_ptrc_rawbuf_alloc_total",
			"decompress target buffers allocated or grown"),
		InflateTime: reg.Timer("palu_ptrc_inflate_ns",
			"DEFLATE block CRC check + decompression time", 0),
		PackedBlocksRead: reg.Counter("palu_ptrc_packed_blocks_read_total",
			"packed-column blocks CRC-checked and staged"),
		PackedBlocksWritten: reg.Counter("palu_ptrc_packed_blocks_written_total",
			"packed-column blocks encoded and flushed"),
		PackedReadBytes: reg.Counter("palu_ptrc_packed_read_bytes_total",
			"stored packed-column payload bytes read"),
		PackedWrittenBytes: reg.Counter("palu_ptrc_packed_written_bytes_total",
			"stored packed-column payload bytes written"),
		UnpackTime: reg.Timer("palu_ptrc_unpack_ns",
			"packed block CRC check + staging time", 0),
		DictBlocksRead: reg.Counter("palu_ptrc_dict_blocks_read_total",
			"dict blocks CRC-checked and staged"),
		DictBlocksWritten: reg.Counter("palu_ptrc_dict_blocks_written_total",
			"dict blocks encoded and flushed"),
		DictReadBytes: reg.Counter("palu_ptrc_dict_read_bytes_total",
			"stored dict payload bytes read"),
		DictWrittenBytes: reg.Counter("palu_ptrc_dict_written_bytes_total",
			"stored dict payload bytes written"),
		DictDecodeTime: reg.Timer("palu_ptrc_dict_decode_ns",
			"dict block CRC check + staging time", 0),
		DictEncodeTime: reg.Timer("palu_ptrc_dict_encode_ns",
			"block encode time (dict, or its packed fallback)", 0),
		CompressQueueDepth: reg.Gauge("palu_ptrc_compress_queue_depth",
			"blocks sealed for the write pipeline and not yet committed"),
		CompressWorkersBusy: reg.Gauge("palu_ptrc_compress_workers_busy",
			"write-pipeline workers currently encoding a block"),
		CommitStallTime: reg.Timer("palu_ptrc_commit_stall_ns",
			"ordered-commit waits for the next in-order block", 0),
		PassthroughBlocks: reg.Counter("palu_ptrc_passthrough_blocks_total",
			"blocks re-framed verbatim by the transcode passthrough"),
	}
}

// Registry returns the registry the instruments live in (nil for a nil
// bundle).
func (m *Metrics) Registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// The nil-safe hooks below are what the codecs call; each is an inert
// branch on a nil bundle.

func (m *Metrics) crcFailure() {
	if m != nil {
		m.CRCFailures.Inc()
	}
}

// decodeStart opens the per-codec decode span: InflateTime for DEFLATE
// blocks, UnpackTime for packed blocks, DictDecodeTime for dict blocks.
func (m *Metrics) decodeStart(codec Codec) obs.Span {
	switch {
	case m == nil:
		return obs.Span{}
	case codec == CodecPacked:
		return m.UnpackTime.Start()
	case codec == CodecDict:
		return m.DictDecodeTime.Start()
	default:
		return m.InflateTime.Start()
	}
}

// encodeStart opens the span of one block encode, DictEncodeTime.
func (m *Metrics) encodeStart() obs.Span {
	if m == nil {
		return obs.Span{}
	}
	return m.DictEncodeTime.Start()
}

func (m *Metrics) blockRead(codec Codec, compLen, rawLen int, reused bool) {
	if m == nil {
		return
	}
	m.BlocksRead.Inc()
	m.ReadCompressedBytes.Add(int64(compLen))
	m.ReadRawBytes.Add(int64(rawLen))
	switch codec {
	case CodecPacked:
		m.PackedBlocksRead.Inc()
		m.PackedReadBytes.Add(int64(compLen))
	case CodecDict:
		m.DictBlocksRead.Inc()
		m.DictReadBytes.Add(int64(compLen))
	}
	if reused {
		m.RawBufReuse.Inc()
	} else {
		m.RawBufAlloc.Inc()
	}
}

// queueDepth moves the write-pipeline depth gauge: +1 per sealed batch
// at ingest, -1 per ordered commit.
func (m *Metrics) queueDepth(d int64) {
	if m != nil {
		m.CompressQueueDepth.Add(d)
	}
}

// workerBusy moves the worker-occupancy gauge around one encode.
func (m *Metrics) workerBusy(d int64) {
	if m != nil {
		m.CompressWorkersBusy.Add(d)
	}
}

// commitStallStart opens a span over one ordered-commit wait.
func (m *Metrics) commitStallStart() obs.Span {
	if m == nil {
		return obs.Span{}
	}
	return m.CommitStallTime.Start()
}

// passthroughBlock counts one verbatim re-framed block.
func (m *Metrics) passthroughBlock() {
	if m != nil {
		m.PassthroughBlocks.Inc()
	}
}

func (m *Metrics) blockWritten(codec Codec, rawLen, compLen int) {
	if m == nil {
		return
	}
	m.BlocksWritten.Inc()
	m.WriteRawBytes.Add(int64(rawLen))
	m.WriteCompressedBytes.Add(int64(compLen))
	switch codec {
	case CodecPacked:
		m.PackedBlocksWritten.Inc()
		m.PackedWrittenBytes.Add(int64(compLen))
	case CodecDict:
		m.DictBlocksWritten.Inc()
		m.DictWrittenBytes.Add(int64(compLen))
	}
}
