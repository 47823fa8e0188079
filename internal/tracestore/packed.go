package tracestore

// PTRC2 packed-column block codec (DESIGN.md §12). The DEFLATE codec
// made archives small, but PR 7's instrumented replays showed inflate
// as the single largest timer in the fused hot path — the replay was
// decompress-bound, not I/O-bound. The packed codec removes the
// general-purpose entropy coder entirely: (src, dst) pairs are split
// into two columns and each column is frame-of-reference bit-packed in
// 256-value miniblocks with a per-miniblock width and an exception
// list for heavy-tail outliers (PFOR-style). Decode is a mask-and-
// shift walk over 64-bit words — no inflate, no uvarint walk — so the
// fused DecodeInto path deposits src<<32|dst link keys straight from
// the packed words.
//
// # Block payload layout (tag 0x03, same 16-byte header as DEFLATE)
//
//	validity: mode byte (0 = raw bitmap, 1 = RLE), then
//	          raw:  ceil(n/8) bytes, LSB-first
//	          RLE:  uvarint run count, then alternating run lengths
//	                starting with a run of VALID packets (first run may
//	                be 0, later runs are >= 1; runs sum to n)
//	groups:   for each group of up to 256 packets, in order:
//	          src miniblock, then dst miniblock
//	miniblock (m values):
//	          1B bit width b (0..32)
//	          uvarint reference (the miniblock minimum)
//	          1B exception count e
//	          e × 1B positions (strictly increasing, < m)
//	          e × uvarint exception deltas (value - reference)
//	          8*ceil(m*b/64) bytes: (value - reference) & (2^b - 1)
//	          packed LSB-first into little-endian uint64 words
//
// The stored field of an exception position holds the masked low bits
// of its delta; the decoder overwrites it from the exception list after
// unpacking, so the unpack loop itself is branch-free over positions.
// Word-aligned packing wastes at most 7 bytes per miniblock and buys
// exact-bounds 64-bit loads in the decoder.
//
// Frame-of-reference beats delta encoding here for the same reason
// direct varints beat zigzag deltas under DEFLATE (see encodeBlockRaw):
// observatory traffic is shuffled, so consecutive packets share no
// locality and successive deltas are as wide as the ids themselves,
// while the per-miniblock minimum tracks the id range actually in use
// and heavy-tailed popularity keeps most deltas narrow with a short
// exception tail — exactly the split PFOR encodes cheaply.
//
// The block header's rawLen field stores the length of the canonical
// raw encoding (bitmap + uvarint pairs) of the same packets, not the
// packed payload length: RawBytes totals then mean the same thing for
// every codec and per-block compression ratios stay comparable.

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"hybridplaw/internal/stream"
)

// packedGroup is the miniblock size: 256 values keeps the exception
// position a single byte and two miniblocks' scratch within L1.
const packedGroup = 256

// maxPackedRatio bounds the raw/stored expansion of a packed block for
// the header plausibility check. The sparsest legal payload spends ~6
// bytes per 256-packet group (two width-0 miniblocks) while the
// canonical raw form of 256 packets is at most 256*(5+5) varint bytes
// plus the bitmap — a ratio under 440; 512 leaves slack without letting
// a corrupt header inflate allocations much past the DEFLATE cap.
const maxPackedRatio = 512

// validityRaw / validityRLE are the validity section mode bytes.
const (
	validityRaw = 0
	validityRLE = 1
)

// uvarintLen32 is the uvarint encoding length of v.
func uvarintLen32(v uint32) int { return (bits.Len32(v|1) + 6) / 7 }

// appendValidity appends the validity section: the raw bitmap or its
// run-length encoding, whichever is smaller (raw wins ties). It
// allocates nothing: the runs are sized in one pass and emitted in a
// second only when RLE wins.
func appendValidity(dst []byte, packets []stream.Packet) []byte {
	n := len(packets)
	nb := (n + 7) / 8

	// forEachRun calls f with the alternating run lengths, starting
	// with a valid run (which may be empty).
	forEachRun := func(f func(run int)) {
		cur, valid := 0, true
		for _, p := range packets {
			if p.Valid == valid {
				cur++
				continue
			}
			f(cur)
			cur, valid = 1, p.Valid
		}
		f(cur)
	}
	runs, rleLen := 0, 0
	forEachRun(func(r int) {
		runs++
		rleLen += uvarintLen32(uint32(r))
	})
	rleLen += uvarintLen32(uint32(runs))

	if rleLen < nb {
		dst = append(dst, validityRLE)
		dst = binary.AppendUvarint(dst, uint64(runs))
		forEachRun(func(r int) {
			dst = binary.AppendUvarint(dst, uint64(r))
		})
		return dst
	}
	dst = append(dst, validityRaw)
	base := len(dst)
	for i := 0; i < nb; i++ {
		dst = append(dst, 0)
	}
	for i, p := range packets {
		if p.Valid {
			dst[base+i/8] |= 1 << uint(i%8)
		}
	}
	return dst
}

// decodeValidity parses the validity section at raw[0:], returning the
// bitmap (a subslice of raw in raw mode, the expanded scratch buffer in
// RLE mode), the offset just past the section, and the possibly-grown
// scratch buffer for reuse.
func decodeValidity(raw []byte, n int, scratch []byte) (bitmap []byte, pos int, scratchOut []byte, err error) {
	if len(raw) < 1 {
		return nil, 0, scratch, corruptf("packed block shorter than validity mode byte")
	}
	nb := (n + 7) / 8
	switch raw[0] {
	case validityRaw:
		if len(raw) < 1+nb {
			return nil, 0, scratch, corruptf("packed block shorter than validity bitmap")
		}
		return raw[1 : 1+nb], 1 + nb, scratch, nil
	case validityRLE:
		pos = 1
		runCount, next := uvarintFast(raw, pos)
		if next <= pos {
			return nil, 0, scratch, corruptf("truncated validity run count")
		}
		pos = next
		if runCount == 0 || runCount > uint64(n)+1 {
			return nil, 0, scratch, corruptf("validity run count %d out of range for %d packets", runCount, n)
		}
		if cap(scratch) < nb {
			scratch = make([]byte, nb)
		}
		scratch = scratch[:nb]
		for i := range scratch {
			scratch[i] = 0
		}
		at, valid := 0, true
		for r := uint64(0); r < runCount; r++ {
			run, next := uvarintFast(raw, pos)
			if next <= pos {
				return nil, 0, scratch, corruptf("truncated validity run %d", r)
			}
			pos = next
			if run == 0 && r != 0 {
				return nil, 0, scratch, corruptf("empty validity run %d", r)
			}
			if run > uint64(n-at) {
				return nil, 0, scratch, corruptf("validity runs exceed %d packets", n)
			}
			if valid {
				for i := at; i < at+int(run); i++ {
					scratch[i/8] |= 1 << uint(i%8)
				}
			}
			at += int(run)
			valid = !valid
		}
		if at != n {
			return nil, 0, scratch, corruptf("validity runs cover %d of %d packets", at, n)
		}
		return scratch, pos, scratch, nil
	default:
		return nil, 0, scratch, corruptf("unknown validity mode 0x%02x", raw[0])
	}
}

// miniblockWidth chooses the bit width of one FOR/PFOR miniblock over
// vals and returns it with the miniblock minimum (the reference), the
// number of exceptions at that width and the miniblock's encoded size
// in bytes. The width minimizes that size: for every candidate width
// the cost is the packed words plus one position byte and one delta
// uvarint per exception (values whose delta from the reference does
// not fit the width).
func miniblockWidth(vals []uint32) (ref uint32, b, nEx, size int) {
	m := len(vals)
	ref = vals[0]
	for _, v := range vals[1:] {
		ref = min(ref, v)
	}

	// Histogram deltas by bit length. Every delta of bit length l >= 1
	// costs (l+6)/7 uvarint bytes as an exception, which prices the
	// buckets.
	var cnt [33]int
	maxLen := 0
	for _, v := range vals {
		l := bits.Len32(v - ref)
		cnt[l]++
		maxLen = max(maxLen, l)
	}
	wordBytes := func(b int) int { return 8 * ((m*b + 63) / 64) }
	bestB, bestEx, bestCost := maxLen, 0, wordBytes(maxLen)
	ex, exBytes := 0, 0
	for b := maxLen - 1; b >= 0; b-- {
		ex += cnt[b+1]
		exBytes += cnt[b+1] * ((b + 7) / 7)
		if ex > 255 {
			break // exception count must fit one byte
		}
		if c := wordBytes(b) + ex + exBytes; c < bestCost {
			bestB, bestEx, bestCost = b, ex, c
		}
	}
	// Width byte, reference uvarint and exception-count byte.
	return ref, bestB, bestEx, 2 + uvarintLen32(ref) + bestCost
}

// packMiniblock appends one FOR/PFOR miniblock encoding vals to dst,
// at the width miniblockWidth chooses.
func packMiniblock(dst []byte, vals []uint32) []byte {
	ref, b, nEx, _ := miniblockWidth(vals)
	dst = append(dst, byte(b))
	dst = binary.AppendUvarint(dst, uint64(ref))
	dst = append(dst, byte(nEx))
	if nEx > 0 {
		// Exception list: positions whose delta needs more than b bits
		// (b < 32 here, or no delta could exceed it).
		limit := uint32(1)<<uint(b) - 1
		for i, v := range vals {
			if v-ref > limit {
				dst = append(dst, byte(i))
			}
		}
		for _, v := range vals {
			if d := v - ref; d > limit {
				dst = binary.AppendUvarint(dst, uint64(d))
			}
		}
	}
	if b == 0 {
		return dst
	}

	// Packed words: masked deltas, LSB-first into little-endian uint64,
	// written in place after growing dst once.
	at := len(dst)
	n := 8 * ((len(vals)*b + 63) / 64)
	dst = slices.Grow(dst, n)[:at+n]
	words := dst[at:]
	mask := uint64(1)<<uint(b) - 1
	var acc uint64
	nbits := uint(0)
	for _, v := range vals {
		d := uint64(v-ref) & mask
		acc |= d << nbits
		nbits += uint(b)
		if nbits >= 64 {
			binary.LittleEndian.PutUint64(words, acc)
			words = words[8:]
			nbits -= 64
			acc = d >> (uint(b) - nbits)
		}
	}
	if nbits > 0 {
		binary.LittleEndian.PutUint64(words, acc)
	}
	return dst
}

// decodeMiniblock decodes one miniblock of m values at raw[pos:] into
// out[:m], returning the offset just past the miniblock.
func decodeMiniblock(raw []byte, pos, m int, out []uint32) (int, error) {
	if pos >= len(raw) {
		return pos, corruptf("truncated miniblock header")
	}
	b := int(raw[pos])
	pos++
	if b > 32 {
		return pos, corruptf("miniblock width %d exceeds 32 bits", b)
	}
	ref, next := uvarintFast(raw, pos)
	if next <= pos {
		return pos, corruptf("truncated miniblock reference")
	}
	pos = next
	if ref > uint64(^uint32(0)) {
		return pos, corruptf("miniblock reference out of uint32 range")
	}
	if pos >= len(raw) {
		return pos, corruptf("truncated miniblock exception count")
	}
	nEx := int(raw[pos])
	pos++
	if nEx > m {
		return pos, corruptf("miniblock has %d exceptions for %d values", nEx, m)
	}
	if pos+nEx > len(raw) {
		return pos, corruptf("truncated miniblock exception positions")
	}
	exPos := raw[pos : pos+nEx]
	pos += nEx
	prev := -1
	for _, p := range exPos {
		if int(p) <= prev || int(p) >= m {
			return pos, corruptf("miniblock exception position %d out of order or range", p)
		}
		prev = int(p)
	}
	// Exception deltas are applied after the unpack below.
	exStart := pos
	for i := 0; i < nEx; i++ {
		_, next := uvarintFast(raw, pos)
		if next <= pos {
			return pos, corruptf("truncated miniblock exception delta %d", i)
		}
		pos = next
	}

	wb := 8 * ((m*b + 63) / 64)
	if pos+wb > len(raw) {
		return pos, corruptf("truncated miniblock words: %d of %d bytes", len(raw)-pos, wb)
	}
	words := raw[pos : pos+wb]
	pos += wb

	if b == 0 {
		r := uint32(ref)
		for i := 0; i < m; i++ {
			out[i] = r
		}
	} else {
		mask := uint64(1)<<uint(b) - 1
		if ref+mask <= uint64(^uint32(0)) {
			unpackBits(words, m, uint(b), uint32(ref), out)
		} else if err := unpackBitsChecked(words, m, uint(b), ref, out); err != nil {
			return pos, err
		}
	}

	ep := exStart
	for _, p := range exPos {
		d, next := uvarintFast(raw, ep)
		ep = next // widths validated above
		v := ref + d
		if v > uint64(^uint32(0)) {
			return pos, corruptf("miniblock exception value out of uint32 range")
		}
		out[p] = uint32(v)
	}
	return pos, nil
}

// unpackBits unpacks m b-bit fields from words (LSB-first, little-
// endian uint64s) into out, adding ref to each. The caller guarantees
// ref + mask fits uint32, so no per-value overflow check is needed —
// this is the fused hot path's inner loop.
func unpackBits(words []byte, m int, b uint, ref uint32, out []uint32) {
	mask := uint64(1)<<b - 1
	var acc uint64
	have := uint(0)
	wpos := 0
	for i := 0; i < m; i++ {
		if have >= b {
			out[i] = ref + uint32(acc&mask)
			acc >>= b
			have -= b
			continue
		}
		next := binary.LittleEndian.Uint64(words[wpos:])
		wpos += 8
		out[i] = ref + uint32((acc|next<<have)&mask)
		consumed := b - have
		acc = next >> consumed
		have = 64 - consumed
	}
}

// unpackBitsChecked is unpackBits for the rare miniblock whose
// reference plus field mask can overflow uint32: every decoded value is
// range-checked so corrupt payloads fail instead of silently wrapping.
func unpackBitsChecked(words []byte, m int, b uint, ref uint64, out []uint32) error {
	mask := uint64(1)<<b - 1
	var acc uint64
	have := uint(0)
	wpos := 0
	for i := 0; i < m; i++ {
		var field uint64
		if have >= b {
			field = acc & mask
			acc >>= b
			have -= b
		} else {
			next := binary.LittleEndian.Uint64(words[wpos:])
			wpos += 8
			field = (acc | next<<have) & mask
			consumed := b - have
			acc = next >> consumed
			have = 64 - consumed
		}
		v := ref + field
		if v > uint64(^uint32(0)) {
			return corruptf("packed value out of uint32 range at miniblock offset %d", i)
		}
		out[i] = uint32(v)
	}
	return nil
}

// encodeBlockPacked appends the packed-column encoding of packets to
// dst and returns the canonical raw-encoding length of the same packets
// (the rawLen the block header stores, keeping size accounting
// comparable across codecs).
func encodeBlockPacked(dst []byte, packets []stream.Packet) ([]byte, int) {
	dst = appendValidity(dst, packets)
	return appendPackedColumns(dst, packets), canonicalRawLen(packets)
}

// canonicalRawLen is the length of the DEFLATE codec's raw encoding of
// packets (validity bitmap plus uvarint pairs): the rawLen every
// codec's block header stores.
func canonicalRawLen(packets []stream.Packet) int {
	n := (len(packets) + 7) / 8
	for _, p := range packets {
		n += uvarintLen32(p.Src) + uvarintLen32(p.Dst)
	}
	return n
}

// appendPackedColumns appends the packed codec's column groups — the
// payload after the validity section.
func appendPackedColumns(dst []byte, packets []stream.Packet) []byte {
	var col [packedGroup]uint32
	for at := 0; at < len(packets); at += packedGroup {
		group := packets[at:min(at+packedGroup, len(packets))]
		for i, p := range group {
			col[i] = p.Src
		}
		dst = packMiniblock(dst, col[:len(group)])
		for i, p := range group {
			col[i] = p.Dst
		}
		dst = packMiniblock(dst, col[:len(group)])
	}
	return dst
}

// packedColumnsSize is len(appendPackedColumns(nil, packets)), computed
// without emitting a byte.
func packedColumnsSize(packets []stream.Packet) int {
	var col [packedGroup]uint32
	size := 0
	for at := 0; at < len(packets); at += packedGroup {
		group := packets[at:min(at+packedGroup, len(packets))]
		for i, p := range group {
			col[i] = p.Src
		}
		_, _, _, s := miniblockWidth(col[:len(group)])
		size += s
		for i, p := range group {
			col[i] = p.Dst
		}
		_, _, _, s = miniblockWidth(col[:len(group)])
		size += s
	}
	return size
}

// decodeBlockPacked decodes a packed block payload of n packets into
// out (appended), verifying that the payload is consumed exactly. This
// is the unfused packet path (Next/NextBlock); the fused path walks the
// same layout through packedWalker without materializing packets.
func decodeBlockPacked(raw []byte, n int, out []stream.Packet) ([]stream.Packet, error) {
	bitmap, pos, _, err := decodeValidity(raw, n, nil)
	if err != nil {
		return out, err
	}
	base := len(out)
	for i := 0; i < n; i++ {
		out = append(out, stream.Packet{Valid: bitmap[i/8]&(1<<uint(i%8)) != 0})
	}
	var src, dst [packedGroup]uint32
	for at := 0; at < n; at += packedGroup {
		m := min(packedGroup, n-at)
		if pos, err = decodeMiniblock(raw, pos, m, src[:m]); err != nil {
			return out, err
		}
		if pos, err = decodeMiniblock(raw, pos, m, dst[:m]); err != nil {
			return out, err
		}
		for i := 0; i < m; i++ {
			out[base+at+i].Src = src[i]
			out[base+at+i].Dst = dst[i]
		}
	}
	if pos != len(raw) {
		return out, corruptf("%d trailing bytes after packed columns", len(raw)-pos)
	}
	return out, nil
}

// packedWalker is the resumable state of a fused packed-block decode:
// the counterpart of encWalker for the packed codec. Groups of 256
// packets are unpacked into two column buffers and deposited as packed
// src<<32|dst link keys; a window boundary suspends the walk between
// deposits and the next decodeInto call resumes it.
type packedWalker struct {
	raw     []byte // packed block payload
	n       int    // packets in the block
	i       int    // next packet index (global)
	pos     int    // byte offset of the next miniblock pair
	bitmap  []byte // validity bitmap (into raw, or scratch when RLE)
	scratch []byte // reusable RLE expansion buffer
	src     [packedGroup]uint32
	dst     [packedGroup]uint32
	gi, gn  int // cursor into and size of the decoded group
}

// init points the walker at a fresh packed payload, decoding the
// validity section.
func (e *packedWalker) init(raw []byte, n int) error {
	bitmap, pos, scratch, err := decodeValidity(raw, n, e.scratch)
	e.scratch = scratch
	if err != nil {
		return err
	}
	e.raw, e.n, e.i, e.pos = raw, n, 0, pos
	e.bitmap, e.gi, e.gn = bitmap, 0, 0
	return nil
}

// exhausted reports whether the walker has no packets left.
func (e *packedWalker) exhausted() bool { return e.i >= e.n }

// decodeInto decodes packets until the window fills or the block runs
// out, depositing valid packets as packed link keys and counting
// invalid ones. The inner loop reads two already-unpacked uint32
// columns — no varint decode, no bit extraction — so its cost is one
// bitmap test and one batch store per packet.
func (e *packedWalker) decodeInto(w *stream.PairWindow) (valid, invalid int64, err error) {
	var batch [decodeBatch]uint64
	k := 0
	rem := w.Remaining()
	for e.i < e.n && rem > 0 {
		if e.gi == e.gn {
			m := min(packedGroup, e.n-e.i)
			if e.pos, err = decodeMiniblock(e.raw, e.pos, m, e.src[:m]); err != nil {
				break
			}
			if e.pos, err = decodeMiniblock(e.raw, e.pos, m, e.dst[:m]); err != nil {
				break
			}
			e.gi, e.gn = 0, m
		}
		for e.gi < e.gn && rem > 0 {
			ok := e.bitmap[e.i/8]&(1<<uint(e.i%8)) != 0
			s, d := e.src[e.gi], e.dst[e.gi]
			e.gi++
			e.i++
			if !ok {
				invalid++
				continue
			}
			batch[k] = uint64(s)<<32 | uint64(d)
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
		err = corruptf("%d trailing bytes after packed columns", len(e.raw)-e.pos)
	}
	return valid, invalid, err
}
