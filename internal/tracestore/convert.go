package tracestore

import (
	"hash/crc32"
	"io"

	"hybridplaw/internal/stream"
)

// Trace format conversion. These helpers live here rather than in
// internal/stream because stream is the lower layer: tracestore depends
// on stream's Packet and PacketSource, never the reverse. Both
// directions are streaming — packets flow source → writer one at a time,
// so converting a trace never materializes it.

// CSVToPTRC converts a trace CSV (src,dst,valid per line, header
// optional) into a PTRC archive and returns the packet count.
func CSVToPTRC(csv io.Reader, ptrc io.Writer, opts WriterOptions) (int64, error) {
	return Record(ptrc, stream.NewCSVSource(csv), opts)
}

// PTRCToCSV converts a PTRC archive back into the trace CSV format and
// returns the packet count.
func PTRCToCSV(ptrc io.Reader, csv io.Writer) (int64, error) {
	r, err := NewReader(ptrc)
	if err != nil {
		return 0, err
	}
	return stream.WriteTraceCSVFrom(csv, r)
}

// TranscodePTRC re-archives a PTRC stream under opts — the migration
// path between codecs (palu-trace convert -codec). The packet sequence
// is preserved exactly (replay is float-identical by construction: the
// codec changes the bytes on disk, never the decoded packets); only the
// block encoding and block-size boundaries follow opts. It returns the
// packet count. The reader is a stream.BlockSource, so the writer's
// bulk ingest path applies; for a seekable source, TranscodeArchive
// additionally skips decode+re-encode for blocks the target writer
// would store unchanged.
func TranscodePTRC(in io.Reader, out io.Writer, opts WriterOptions) (int64, error) {
	r, err := NewReader(in)
	if err != nil {
		return 0, err
	}
	return Record(out, r, opts)
}

// TranscodeArchive re-archives a seekable PTRC archive under opts,
// walking the source index block by block. Blocks the target writer
// would store byte-identically — same codec, a packet count equal to
// the target block size, and no partial batch buffered — are re-framed
// verbatim through the encoded-block passthrough (CRC-verified first,
// never inflated); everything else decodes and replays through the
// normal bulk write path. For archives produced by this package the
// output is byte-identical to TranscodePTRC over the same input. It
// returns the packet count.
func TranscodeArchive(r io.ReaderAt, size int64, out io.Writer, opts WriterOptions) (int64, error) {
	norm, err := opts.normalize()
	if err != nil {
		return 0, err
	}
	idx, err := readIndex(r, size)
	if err != nil {
		return 0, err
	}
	w, err := NewWriter(out, opts)
	if err != nil {
		return 0, err
	}
	dec := blockDecoder{m: norm.Metrics}
	var rec []byte
	var pkts []stream.Packet
	var n int64
	for i, bl := range idx.blocks {
		h, payload, buf, err := idx.readBlock(r, i, rec)
		rec = buf
		if err != nil {
			w.Close()
			return n, err
		}
		if bl.codec == norm.Codec && bl.packets == norm.BlockSize {
			// Passthrough candidate: the CRC must be verified against the
			// *source* header here, because the writer re-signs the
			// payload with a freshly computed checksum.
			if crc := crc32.Checksum(payload, crcTable); crc != h.crc {
				norm.Metrics.crcFailure()
				w.Close()
				return n, corruptf("block %d CRC mismatch: stored %08x, computed %08x", i, h.crc, crc)
			}
			wrote, err := w.WriteEncodedBlock(EncodedBlock{
				Codec:   bl.codec,
				Packets: bl.packets,
				Valid:   bl.valid,
				RawLen:  bl.rawLen,
				Payload: payload,
			})
			if err != nil {
				w.Close()
				return n, err
			}
			if wrote {
				n += int64(bl.packets)
				continue
			}
		}
		raw, err := dec.decompress(bl.codec, h, payload, dec.raw)
		if err != nil {
			w.Close()
			return n, err
		}
		dec.raw = raw
		if pkts, err = dec.decodePackets(bl.codec, raw, h.packets, pkts[:0]); err != nil {
			w.Close()
			return n, err
		}
		if err := w.writePackets(pkts); err != nil {
			w.Close()
			return n, err
		}
		n += int64(len(pkts))
	}
	return n, w.Close()
}
