package tracestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"hybridplaw/internal/stream"
)

// WriterOptions configures a PTRC writer. The zero value selects the
// defaults. The codec is not an option: every block is written as a
// dict block or, when that is strictly smaller, a packed block.
type WriterOptions struct {
	// BlockSize is the number of packets per block; <= 0 selects
	// DefaultBlockSize.
	BlockSize int
	// Workers selects the number of parallel compress workers for the
	// record path. <= 1 (the default) keeps the serial inline encode on
	// the caller's goroutine; higher values pipeline sealed batches
	// through a worker pool with an ordered-commit stage (see
	// parwriter.go). The archive bytes are identical at any worker
	// count.
	Workers int
	// Metrics, when non-nil, instruments the writer (blocks written per
	// codec, encode time, raw/compressed byte totals, and — in parallel
	// mode — queue depth, worker occupancy and commit stalls).
	Metrics *Metrics
}

func (o WriterOptions) normalize() (WriterOptions, error) {
	if o.BlockSize <= 0 {
		o.BlockSize = DefaultBlockSize
	}
	if o.BlockSize > maxBlockPackets {
		return o, fmt.Errorf("tracestore: block size %d exceeds %d", o.BlockSize, maxBlockPackets)
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o, nil
}

// blockEncoder turns one sealed batch of packets into a complete block
// record (tag | header | payload). It is the single encode path shared
// by the serial writer and every pipeline worker, which is what makes
// serial and parallel archives byte-identical: the dict and packed
// payloads are canonical, the choice between them depends on the
// packets only, and the header is a pure function of the payload.
type blockEncoder struct {
	dict dictEncoder
	m    *Metrics
}

// encodeRecord assembles the complete record for packets into rec
// (contents overwritten, capacity reused) and returns it with the
// block's index entry, whose codec is the one the block was written in:
// CodecDict, or CodecPacked when that payload is strictly smaller. The
// packets slice is not retained.
func (e *blockEncoder) encodeRecord(rec []byte, packets []stream.Packet) ([]byte, blockInfo) {
	rec = append(rec[:0], 0) // tag, set below
	var hdr [blockHeaderLen]byte
	rec = append(rec, hdr[:]...)
	sp := e.m.encodeStart()
	rec, rawLen, codec := e.dict.appendBlock(rec, packets)
	sp.Stop()
	rec[0] = tagForCodec(codec)

	comp := rec[1+blockHeaderLen:]
	var valid int64
	for _, p := range packets {
		if p.Valid {
			valid++
		}
	}
	info := blockInfo{
		packets: len(packets),
		valid:   valid,
		rawLen:  rawLen,
		compLen: len(comp),
		codec:   codec,
	}
	putBlockHeader(rec[1:], blockHeader{
		packets: info.packets,
		rawLen:  info.rawLen,
		compLen: info.compLen,
		crc:     crc32.Checksum(comp, crcTable),
	})
	return rec, info
}

// EncodedBlock is one stored block record's payload plus its index
// entry, as carried from an existing archive without decoding — the
// currency of the transcode passthrough (WriteEncodedBlock,
// TranscodeArchive).
type EncodedBlock struct {
	Codec   Codec
	Packets int
	Valid   int64
	RawLen  int    // canonical raw encoding length (header field)
	Payload []byte // stored payload; not retained past the call
}

// encodedRecord frames an already-encoded payload as a block record in
// rec (contents overwritten, capacity reused). The CRC is recomputed
// from the payload rather than copied from the source archive, so a
// passthrough can never launder corrupt bytes into a fresh archive
// under a stale checksum — callers verify the source CRC first.
func encodedRecord(rec []byte, b EncodedBlock) []byte {
	rec = append(rec[:0], tagForCodec(b.Codec))
	var hdr [blockHeaderLen]byte
	rec = append(rec, hdr[:]...)
	rec = append(rec, b.Payload...)
	putBlockHeader(rec[1:], blockHeader{
		packets: b.Packets,
		rawLen:  b.RawLen,
		compLen: len(b.Payload),
		crc:     crc32.Checksum(b.Payload, crcTable),
	})
	return rec
}

// Writer streams packets into a PTRC archive. Packets accumulate into a
// block buffer of BlockSize packets; each full block is encoded and
// written as one record, so memory stays O(block) in serial mode and
// O(workers × block) in pipelined mode, regardless of trace length. Close flushes the final
// partial block and writes the index and footer; an archive without
// them is detectably truncated.
type Writer struct {
	w      io.Writer
	opts   WriterOptions
	buf    []stream.Packet
	enc    blockEncoder // serial encode path
	recBuf []byte       // record assembly buffer (blocks, then index and footer)
	pipe   *writePipeline
	blocks []blockInfo
	total  int64
	valid  int64
	closed bool
	err    error
}

// NewWriter writes the file magic and returns a writer archiving into w.
// The caller owns w and must call Close before relying on the archive;
// in pipelined mode (Workers > 1) Close also reaps the worker pool, so
// skipping it leaks goroutines as well as truncating the archive.
func NewWriter(w io.Writer, opts WriterOptions) (*Writer, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	tw := &Writer{
		w:    w,
		opts: opts,
		enc:  blockEncoder{m: opts.Metrics},
		buf:  make([]stream.Packet, 0, opts.BlockSize),
	}
	if _, err := io.WriteString(w, fileMagic); err != nil {
		tw.err = err
		return nil, err
	}
	if opts.Workers > 1 {
		tw.pipe = newWritePipeline(w, opts)
	}
	return tw, nil
}

// Write archives one packet.
func (w *Writer) Write(p stream.Packet) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("tracestore: write after Close")
	}
	w.buf = append(w.buf, p)
	w.total++
	if p.Valid {
		w.valid++
	}
	if len(w.buf) == w.opts.BlockSize {
		return w.flushBlock()
	}
	return nil
}

// writePackets bulk-appends a run of packets, sealing full blocks as
// they fill — the per-block ingest step behind RecordBlocksFrom.
func (w *Writer) writePackets(pkts []stream.Packet) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("tracestore: write after Close")
	}
	for len(pkts) > 0 {
		take := pkts
		if free := w.opts.BlockSize - len(w.buf); len(take) > free {
			take = take[:free]
		}
		w.buf = append(w.buf, take...)
		w.total += int64(len(take))
		for _, p := range take {
			if p.Valid {
				w.valid++
			}
		}
		pkts = pkts[len(take):]
		if len(w.buf) == w.opts.BlockSize {
			if err := w.flushBlock(); err != nil {
				return err
			}
		}
	}
	return nil
}

// RecordFrom drains src into the archive and returns the number of
// packets written. Sources that expose whole blocks
// (stream.BlockSource) are drained block-at-a-time rather than
// packet-at-a-time. It does not Close the writer, so several sources
// can be concatenated into one archive.
func (w *Writer) RecordFrom(src stream.PacketSource) (int64, error) {
	if bs, ok := src.(stream.BlockSource); ok {
		return w.RecordBlocksFrom(bs)
	}
	var n int64
	for {
		p, ok := src.Next()
		if !ok {
			break
		}
		if err := w.Write(p); err != nil {
			return n, err
		}
		n++
	}
	return n, src.Err()
}

// RecordBlocksFrom drains src block-at-a-time into the archive — the
// bulk ingest path: one buffer append per source block instead of one
// Write call per packet. The archive is identical to recording the
// same packets one at a time; block boundaries follow the writer's
// BlockSize, never the source's. It returns the number of packets
// written and does not Close the writer.
func (w *Writer) RecordBlocksFrom(src stream.BlockSource) (int64, error) {
	var n int64
	for {
		blk, ok := src.NextBlock()
		if !ok {
			break
		}
		if err := w.writePackets(blk); err != nil {
			return n, err
		}
		n += int64(len(blk))
	}
	return n, src.Err()
}

// WriteEncodedBlock re-frames an already-encoded block into the archive
// verbatim — the transcode passthrough. A block is eligible only when
// no partial batch is buffered, it is a dict block, and its packet
// count equals the writer's BlockSize: encoding the packets of such a
// block (from an archive this package wrote) yields the same record,
// so the passthrough changes no byte of the output. It returns (false, nil) for an ineligible block — the
// caller decodes it and replays the packets through Write instead —
// and never retains b.Payload. The payload must already be verified
// against its source CRC: the stored checksum is recomputed here, so
// corrupt input would otherwise be re-signed as valid.
func (w *Writer) WriteEncodedBlock(b EncodedBlock) (bool, error) {
	if w.err != nil {
		return false, w.err
	}
	if w.closed {
		return false, errors.New("tracestore: write after Close")
	}
	if len(w.buf) > 0 || b.Codec != CodecDict || b.Packets != w.opts.BlockSize {
		return false, nil
	}
	info := blockInfo{
		packets: b.Packets,
		valid:   b.Valid,
		rawLen:  b.RawLen,
		compLen: len(b.Payload),
		codec:   b.Codec,
	}
	w.total += int64(b.Packets)
	w.valid += b.Valid
	w.opts.Metrics.passthroughBlock()
	if w.pipe != nil {
		return true, w.pipe.submitPre(w, b, info)
	}
	w.recBuf = encodedRecord(w.recBuf, b)
	if _, err := w.w.Write(w.recBuf); err != nil {
		w.err = err
		return true, err
	}
	w.opts.Metrics.blockWritten(b.Codec, info.rawLen, info.compLen)
	w.blocks = append(w.blocks, info)
	return true, nil
}

// flushBlock seals the buffered packets as one block: encoded and
// written inline in serial mode, handed to the compress pipeline
// otherwise.
func (w *Writer) flushBlock() error {
	if w.pipe != nil {
		return w.pipe.submitBatch(w)
	}
	rec, info := w.enc.encodeRecord(w.recBuf, w.buf)
	w.recBuf = rec
	if _, err := w.w.Write(rec); err != nil {
		w.err = err
		return err
	}
	w.opts.Metrics.blockWritten(info.codec, info.rawLen, info.compLen)
	w.blocks = append(w.blocks, info)
	w.buf = w.buf[:0]
	return nil
}

// Close flushes the final partial block, reaps the compress pipeline if
// one is running, and writes the trailing index and footer. It does not
// close the underlying writer.
func (w *Writer) Close() error {
	if w.pipe != nil {
		// The pipeline is torn down exactly once, error or not:
		// returning early on the error path would leak its goroutines.
		if w.err == nil && !w.closed && len(w.buf) > 0 {
			w.flushBlock()
		}
		blocks, err := w.pipe.shutdown()
		w.pipe = nil
		w.blocks = blocks
		if w.err == nil {
			w.err = err
		}
	}
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	if len(w.buf) > 0 {
		if err := w.flushBlock(); err != nil {
			return err
		}
	}
	w.recBuf = appendTrailer(w.recBuf[:0], w.blocks, encodeIndexPayload(w.blocks, w.total, w.valid))
	if _, err := w.w.Write(w.recBuf); err != nil {
		w.err = err
		return err
	}
	return nil
}

// appendTrailer appends to dst the index record holding payload and
// the footer of an archive whose blocks are listed in blocks.
func appendTrailer(dst []byte, blocks []blockInfo, payload []byte) []byte {
	crc := crc32.Checksum(payload, crcTable)
	indexOffset := int64(len(fileMagic))
	for _, bl := range blocks {
		indexOffset += 1 + blockHeaderLen + int64(bl.compLen)
	}
	dst = append(dst, tagIndex)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	dst = append(dst, payload...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(indexOffset))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	return append(dst, footerMagic...)
}

// Packets reports the number of packets archived so far.
func (w *Writer) Packets() int64 { return w.total }

// ValidPackets reports the number of valid packets archived so far.
func (w *Writer) ValidPackets() int64 { return w.valid }

// Record archives an entire packet source into w as one PTRC archive
// (NewWriter + RecordFrom + Close) and returns the packet count.
func Record(w io.Writer, src stream.PacketSource, opts WriterOptions) (int64, error) {
	tw, err := NewWriter(w, opts)
	if err != nil {
		return 0, err
	}
	n, err := tw.RecordFrom(src)
	if err != nil {
		tw.Close() // reap the pipeline; the archive is already invalid
		return n, err
	}
	return n, tw.Close()
}
