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

// TranscodeArchive re-archives a seekable PTRC archive under opts,
// walking the source index block by block — the migration path for
// archives of any codec (palu-trace convert). The packet sequence is
// preserved exactly; only the block encoding and block boundaries
// follow the writer. Dict blocks of exactly the target block size are
// re-framed verbatim through the encoded-block passthrough
// (CRC-verified first, never decoded): re-encoding their packets would
// yield the same bytes. Every other block decodes and replays through
// the normal bulk write path. For any archive this package wrote, the
// output is byte-identical to Record over a Reader of the same input.
// It returns the packet count.
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
		if bl.codec == CodecDict && bl.packets == norm.BlockSize {
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
