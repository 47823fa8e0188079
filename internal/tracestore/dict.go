package tracestore

// Dictionary-coded block codec (DESIGN.md §12). The paper's traffic is
// heavy-tailed in links: one (src, dst) pair recurs hundreds of times
// inside a block. DEFLATE finds that redundancy only by running LZ77
// over the interleaved varint stream, and the packed columns do not
// see it at all. The dict codec stores each distinct pair of the block
// once, in a sorted dictionary, and each packet as the rank of its
// pair. Every column — dictionary and ranks — is bit-packed with the
// packed codec's 256-value FOR/PFOR miniblocks, so decode is CRC plus
// bit-unpacking and one dictionary lookup per packet, with no entropy
// coder.
//
// # Block payload layout (tag 0x04, same 16-byte header as DEFLATE)
//
//	validity:   the packed codec's validity section (raw bitmap or RLE)
//	K:          uvarint, the number of distinct src<<32|dst keys
//	src column: K miniblock-coded values: the first key's src, then
//	            each key's src minus the previous key's src
//	dst column: K miniblock-coded dst values
//	ranks:      n miniblock-coded values, one per packet: the index of
//	            the packet's key in the dictionary (< K)
//
// Each column is cut into miniblocks of 256 values (the last one
// short), laid out exactly as in packed.go. The dictionary is sorted
// strictly ascending by key, so src deltas are never negative and a
// zero src delta requires a larger dst; the decoder rejects anything
// else as corrupt, along with K = 0 for a non-empty block, K > n, a src
// sum beyond uint32, a rank >= K and trailing bytes. Sorting fixes one
// canonical dictionary order and makes the src column non-decreasing,
// so it delta-codes.
//
// A block whose packed-column payload is strictly smaller — K close to
// n, so the dictionary repeats nearly every packet — is written as a
// packed (tag 0x03) block instead. The rule depends on the packets
// only, so archives stay byte-identical across writers and worker
// counts.
//
// As for the packed codec, the header's rawLen is the length of the
// canonical raw encoding of the same packets.

import (
	"encoding/binary"
	"slices"

	"hybridplaw/internal/stream"
)

// maxDictRatio bounds the raw/stored expansion of a dict block for the
// header plausibility check. The sparsest legal payload spends 3 bytes
// per 256 packets (a width-0 rank miniblock) against at most 32 bitmap
// bytes plus 256×(5+5) varint bytes of canonical raw encoding: a ratio
// of 864.
const maxDictRatio = 1024

// dictEncoder is the reusable state of the dict block encoder, one per
// blockEncoder: after the first blocks have sized its buffers it
// allocates nothing per block. It radix-sorts every packet's key
// together with the packet's index; one walk over the sorted keys then
// yields the dictionary and each packet's rank. (The reference encoder
// in the tests reaches the same bytes through a hash table of
// first-seen ids, a comparison sort of the distinct keys and a remap
// of ids to ranks; BenchmarkBlockEncode times both.)
type dictEncoder struct {
	keys, keyTmp []uint64 // packet keys and sort scratch
	idx, idxTmp  []uint32 // packet indexes and sort scratch
	col          [packedGroup]uint32
}

// radixSort sorts keys ascending by least-significant-digit radix sort
// over bytes, permuting idx alongside, with keyTmp and idxTmp as
// scratch of the same lengths; it returns the sorted pair, which lives
// in either buffer pair. varies has the bits in which some key differs
// from another set: byte positions where every key agrees are skipped,
// and as ids rarely fill their 32 bits a block typically takes four
// passes.
func radixSort(keys []uint64, idx []uint32, keyTmp []uint64, idxTmp []uint32, varies uint64) ([]uint64, []uint32) {
	for shift := uint(0); shift < 64; shift += 8 {
		if (varies>>shift)&0xFF == 0 {
			continue
		}
		var count [256]int
		for _, k := range keys {
			count[byte(k>>shift)]++
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for i, k := range keys {
			d := byte(k >> shift)
			keyTmp[count[d]] = k
			idxTmp[count[d]] = idx[i]
			count[d]++
		}
		keys, keyTmp = keyTmp, keys
		idx, idxTmp = idxTmp, idx
	}
	return keys, idx
}

// appendBlock appends the payload of packets to dst and returns it
// with the canonical raw-encoding length and the codec of the payload:
// CodecDict, or CodecPacked when the packed columns are strictly
// smaller. Both payloads share the validity section, so only the
// sections after it are compared.
func (e *dictEncoder) appendBlock(dst []byte, packets []stream.Packet) ([]byte, int, Codec) {
	dst = appendValidity(dst, packets)
	start := len(dst)
	dst = e.appendColumns(dst, packets)
	rawLen := canonicalRawLen(packets)
	if packedColumnsSize(packets) < len(dst)-start {
		return appendPackedColumns(dst[:start], packets), rawLen, CodecPacked
	}
	return dst, rawLen, CodecDict
}

// appendColumns appends the dict payload after the validity section —
// K, the dictionary and the ranks — to dst.
func (e *dictEncoder) appendColumns(dst []byte, packets []stream.Packet) []byte {
	n := len(packets)
	e.keys, e.keyTmp = slices.Grow(e.keys[:0], n)[:n], slices.Grow(e.keyTmp[:0], n)[:n]
	e.idx, e.idxTmp = slices.Grow(e.idx[:0], n)[:n], slices.Grow(e.idxTmp[:0], n)[:n]
	var first, varies uint64
	if n > 0 {
		first = uint64(packets[0].Src)<<32 | uint64(packets[0].Dst)
	}
	for i, p := range packets {
		key := uint64(p.Src)<<32 | uint64(p.Dst)
		e.keys[i] = key
		e.idx[i] = uint32(i)
		varies |= key ^ first
	}
	keys, idx := radixSort(e.keys, e.idx, e.keyTmp, e.idxTmp, varies)

	// Equal keys are now adjacent: each run is one dictionary entry. The
	// dictionary overwrites the sorted keys in place (entry k lands at or
	// before the key being read), and the ranks, in packet order, go to
	// whichever index buffer the sort left spare.
	ranks := e.idx
	if n > 0 && &idx[0] == &ranks[0] {
		ranks = e.idxTmp
	}
	k := 0
	for j, key := range keys {
		if j == 0 || key != keys[k-1] {
			keys[k] = key
			k++
		}
		ranks[idx[j]] = uint32(k - 1)
	}
	dict := keys[:k]

	dst = binary.AppendUvarint(dst, uint64(k))
	prev := uint32(0)
	for at := 0; at < k; at += packedGroup {
		m := min(packedGroup, k-at)
		for i, key := range dict[at : at+m] {
			src := uint32(key >> 32)
			e.col[i] = src - prev
			prev = src
		}
		dst = packMiniblock(dst, e.col[:m])
	}
	for at := 0; at < k; at += packedGroup {
		m := min(packedGroup, k-at)
		for i, key := range dict[at : at+m] {
			e.col[i] = uint32(key)
		}
		dst = packMiniblock(dst, e.col[:m])
	}
	for at := 0; at < n; at += packedGroup {
		m := min(packedGroup, n-at)
		dst = packMiniblock(dst, ranks[at:at+m])
	}
	return dst
}

// decodeDict parses a dict payload's K and dictionary at raw[pos:]
// (pos is just past the validity section) into keys, reusing its
// capacity, and returns the dictionary and the offset of the ranks.
func decodeDict(raw []byte, pos, n int, keys []uint64) ([]uint64, int, error) {
	kv, next := uvarintFast(raw, pos)
	if next <= pos {
		return keys, pos, corruptf("truncated dictionary size")
	}
	pos = next
	if kv > uint64(n) {
		return keys, pos, corruptf("dictionary of %d keys for %d packets", kv, n)
	}
	k := int(kv)
	if k == 0 && n > 0 {
		return keys, pos, corruptf("empty dictionary for %d packets", n)
	}
	keys = slices.Grow(keys[:0], k)[:k]
	var col [packedGroup]uint32
	var err error
	src := uint64(0)
	for at := 0; at < k; at += packedGroup {
		m := min(packedGroup, k-at)
		if pos, err = decodeMiniblock(raw, pos, m, col[:m]); err != nil {
			return keys, pos, err
		}
		for i, d := range col[:m] {
			src += uint64(d)
			if src > uint64(^uint32(0)) {
				return keys, pos, corruptf("dictionary src overflows uint32 at key %d", at+i)
			}
			keys[at+i] = src << 32
		}
	}
	for at := 0; at < k; at += packedGroup {
		m := min(packedGroup, k-at)
		if pos, err = decodeMiniblock(raw, pos, m, col[:m]); err != nil {
			return keys, pos, err
		}
		for i, d := range col[:m] {
			j := at + i
			keys[j] |= uint64(d)
			if j > 0 && keys[j] <= keys[j-1] {
				return keys, pos, corruptf("dictionary not strictly ascending at key %d", j)
			}
		}
	}
	return keys, pos, nil
}

// decodeRanks decodes one miniblock of m ranks at raw[pos:] into out,
// rejecting any rank outside a k-key dictionary.
func decodeRanks(raw []byte, pos, m, k int, out []uint32) (int, error) {
	pos, err := decodeMiniblock(raw, pos, m, out)
	if err != nil {
		return pos, err
	}
	for _, r := range out[:m] {
		if r >= uint32(k) {
			return pos, corruptf("rank %d outside a %d-key dictionary", r, k)
		}
	}
	return pos, nil
}

// decodeBlockDict decodes a dict block payload of n packets into out
// (appended), verifying that the payload is consumed exactly; keys is
// reusable dictionary scratch, returned possibly grown. This is the
// unfused packet path; the fused path walks the same layout through
// dictWalker without materializing packets.
func decodeBlockDict(raw []byte, n int, out []stream.Packet, keys []uint64) ([]stream.Packet, []uint64, error) {
	bitmap, pos, _, err := decodeValidity(raw, n, nil)
	if err != nil {
		return out, keys, err
	}
	keys, pos, err = decodeDict(raw, pos, n, keys)
	if err != nil {
		return out, keys, err
	}
	var ranks [packedGroup]uint32
	for at := 0; at < n; at += packedGroup {
		m := min(packedGroup, n-at)
		if pos, err = decodeRanks(raw, pos, m, len(keys), ranks[:m]); err != nil {
			return out, keys, err
		}
		for i, r := range ranks[:m] {
			key := keys[r]
			j := at + i
			out = append(out, stream.Packet{
				Src:   uint32(key >> 32),
				Dst:   uint32(key),
				Valid: bitmap[j/8]&(1<<uint(j%8)) != 0,
			})
		}
	}
	if pos != len(raw) {
		return out, keys, corruptf("%d trailing bytes after dictionary ranks", len(raw)-pos)
	}
	return out, keys, nil
}

// dictWalker is the resumable state of a fused dict-block decode: the
// dictionary is decoded once when the block starts, then each group of
// 256 ranks is unpacked and its packets deposited as dict[rank] keys.
// A window boundary suspends the walk between deposits and the next
// decodeInto call resumes it.
type dictWalker struct {
	raw     []byte   // dict block payload
	n       int      // packets in the block
	i       int      // next packet index (global)
	pos     int      // byte offset of the next rank miniblock
	bitmap  []byte   // validity bitmap (into raw, or scratch when RLE)
	scratch []byte   // reusable RLE expansion buffer
	keys    []uint64 // the block's dictionary, capacity reused
	ranks   [packedGroup]uint32
	gi, gn  int // cursor into and size of the decoded group
}

// init points the walker at a fresh dict payload, decoding the validity
// section and the dictionary.
func (e *dictWalker) init(raw []byte, n int) error {
	bitmap, pos, scratch, err := decodeValidity(raw, n, e.scratch)
	e.scratch = scratch
	if err != nil {
		return err
	}
	if e.keys, pos, err = decodeDict(raw, pos, n, e.keys); err != nil {
		return err
	}
	e.raw, e.n, e.i, e.pos = raw, n, 0, pos
	e.bitmap, e.gi, e.gn = bitmap, 0, 0
	return nil
}

// exhausted reports whether the walker has no packets left.
func (e *dictWalker) exhausted() bool { return e.i >= e.n }

// decodeInto decodes packets until the window fills or the block runs
// out, depositing valid packets' dictionary keys and counting invalid
// ones.
func (e *dictWalker) decodeInto(w *stream.PairWindow) (valid, invalid int64, err error) {
	var batch [decodeBatch]uint64
	k := 0
	rem := w.Remaining()
	for e.i < e.n && rem > 0 {
		if e.gi == e.gn {
			m := min(packedGroup, e.n-e.i)
			if e.pos, err = decodeRanks(e.raw, e.pos, m, len(e.keys), e.ranks[:m]); err != nil {
				break
			}
			e.gi, e.gn = 0, m
		}
		for e.gi < e.gn && rem > 0 {
			ok := e.bitmap[e.i/8]&(1<<uint(e.i%8)) != 0
			key := e.keys[e.ranks[e.gi]]
			e.gi++
			e.i++
			if !ok {
				invalid++
				continue
			}
			batch[k] = key
			k++
			valid++
			rem--
			if k == len(batch) {
				w.AddPairs(batch[:k])
				k = 0
			}
		}
	}
	if k > 0 {
		w.AddPairs(batch[:k])
	}
	if err == nil && e.i == e.n && e.pos != len(e.raw) {
		err = corruptf("%d trailing bytes after dictionary ranks", len(e.raw)-e.pos)
	}
	return valid, invalid, err
}
