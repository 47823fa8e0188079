package tracestore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"slices"
	"testing"

	"hybridplaw/internal/stream"
)

// Reference writer for the archives the writer no longer produces:
// DEFLATE blocks, packed-v1 blocks chosen regardless of size, and
// archives that mix them with dict blocks block by block. Readers still
// accept all of them, so the reader tests run on these archives.
// TestLegacyCodecBytesPinned pins its output byte for byte to what the
// retired DEFLATE and packed writers wrote.

// encodeBlockRaw appends the uncompressed encoding of packets to dst:
// validity bitmap (LSB-first), then interleaved (src, dst) uvarint
// pairs. Interleaved direct varints deliberately beat the textbook
// delta encoding here: observatory traffic is shuffled, so consecutive
// packets share no locality for deltas to shrink, while heavy-tailed ID
// popularity means hub IDs are small (early PALU core nodes) and
// popular (src, dst) pairs recur verbatim — byte patterns DEFLATE's
// LZ77/Huffman stages exploit directly. Measured on a 200k-packet
// 50k-node synthetic site trace: zigzag deltas 4.60 B/packet after
// DEFLATE vs 3.26 B/packet for interleaved pairs.
func encodeBlockRaw(dst []byte, packets []stream.Packet) []byte {
	n := len(packets)
	base := len(dst)
	nb := (n + 7) / 8
	for i := 0; i < nb; i++ {
		dst = append(dst, 0)
	}
	for i, p := range packets {
		if p.Valid {
			dst[base+i/8] |= 1 << uint(i%8)
		}
	}
	var tmp [binary.MaxVarintLen64]byte
	for _, p := range packets {
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(p.Src))]...)
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(p.Dst))]...)
	}
	return dst
}

// encodeBlockPacked appends the packed-column encoding of packets to
// dst and returns the canonical raw-encoding length of the same
// packets.
func encodeBlockPacked(dst []byte, packets []stream.Packet) ([]byte, int) {
	dst = appendValidity(dst, packets)
	return appendPackedColumns(dst, packets), canonicalRawLen(packets)
}

// encodeBlockAs encodes packets as one block payload under codec, the
// way the retired writers did: DEFLATE over encodeBlockRaw at the
// default level, or packed columns whatever their size; CodecDict is
// the writer's own dict-or-packed choice. It returns the payload, the
// canonical raw length and the codec the block was written in.
func encodeBlockAs(tb testing.TB, packets []stream.Packet, codec Codec) ([]byte, int, Codec) {
	tb.Helper()
	switch codec {
	case CodecDeflate:
		raw := encodeBlockRaw(nil, packets)
		var buf bytes.Buffer
		fw, err := flate.NewWriter(&buf, flate.DefaultCompression)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := fw.Write(raw); err != nil {
			tb.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes(), len(raw), CodecDeflate
	case CodecPacked:
		payload, rawLen := encodeBlockPacked(nil, packets)
		return payload, rawLen, CodecPacked
	default:
		var e dictEncoder
		return e.appendBlock(nil, packets)
	}
}

// writeCodecArchive archives packets in blocks of blockSize packets,
// block i encoded under codecs[i%len(codecs)] by encodeBlockAs, framed
// and indexed as the writer frames and indexes its own blocks — except
// that an all-DEFLATE archive's index has no codec section, as in the
// pre-codec format the DEFLATE writer kept writing.
func writeCodecArchive(tb testing.TB, ps []stream.Packet, blockSize int, codecs ...Codec) []byte {
	tb.Helper()
	out := []byte(fileMagic)
	var blocks []blockInfo
	var total, valid int64
	for i, at := 0, 0; at < len(ps); i, at = i+1, at+blockSize {
		pkts := ps[at:min(at+blockSize, len(ps))]
		payload, rawLen, codec := encodeBlockAs(tb, pkts, codecs[i%len(codecs)])
		b := EncodedBlock{Codec: codec, Packets: len(pkts), RawLen: rawLen, Payload: payload}
		for _, p := range pkts {
			if p.Valid {
				b.Valid++
			}
		}
		out = append(out, encodedRecord(nil, b)...)
		blocks = append(blocks, blockInfo{
			packets: b.Packets, valid: b.Valid, rawLen: rawLen, compLen: len(payload), codec: codec,
		})
		total += int64(b.Packets)
		valid += b.Valid
	}
	payload := encodeIndexPayload(blocks, total, valid)
	notDeflate := func(bl blockInfo) bool { return bl.codec != CodecDeflate }
	if len(blocks) > 0 && !slices.ContainsFunc(blocks, notDeflate) {
		section := binary.AppendUvarint(binary.AppendUvarint(nil, uint64(len(blocks))), codecIDs[CodecDeflate])
		payload = payload[:len(payload)-len(section)]
	}
	return appendTrailer(out, blocks, payload)
}

// archiveOf archives packets in blocks of blockSize packets under one
// codec: through the writer for CodecDict, through writeCodecArchive for
// the codecs the writer no longer chooses on its own.
func archiveOf(t *testing.T, ps []stream.Packet, blockSize int, codec Codec) []byte {
	t.Helper()
	if codec == CodecDict {
		return writeArchive(t, ps, WriterOptions{BlockSize: blockSize})
	}
	return writeCodecArchive(t, ps, blockSize, codec)
}

// mixedCodecs is the per-block codec cycle of the mixed-codec archives:
// every codec in one stream, exercising the index codec section and
// every fused walker.
var mixedCodecs = [...]Codec{CodecDeflate, CodecPacked, CodecDict}

// writeMixedArchive archives packets cycling the codec per block
// (DEFLATE, packed, dict, DEFLATE, ...).
func writeMixedArchive(t *testing.T, ps []stream.Packet, blockSize int) []byte {
	t.Helper()
	return writeCodecArchive(t, ps, blockSize, mixedCodecs[:]...)
}

// uniquePairs is n packets with no repeated (src, dst) pair, so every
// block the writer encodes falls back to packed columns; every sixth
// packet is invalid.
func uniquePairs(n int) []stream.Packet {
	ps := make([]stream.Packet, n)
	for i := range ps {
		ps[i] = stream.Packet{Src: uint32(i), Dst: uint32(i*7919) % 100003, Valid: i%6 != 5}
	}
	return ps
}

// repeatedPairs is n packets drawn from 20 pairs of wide ids, so every
// block the writer encodes is a dict block; every sixth packet is
// invalid.
func repeatedPairs(n int) []stream.Packet {
	ps := make([]stream.Packet, n)
	for i := range ps {
		j := uint32(i*i) % 20
		ps[i] = stream.Packet{Src: 1e6 + 977*j, Dst: 3e6 + 131*j, Valid: i%6 != 5}
	}
	return ps
}
