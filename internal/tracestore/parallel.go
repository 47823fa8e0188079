package tracestore

import (
	"io"
	"runtime"
	"sync"

	"hybridplaw/internal/stream"
)

// ParallelOptions configures a ParallelReader.
type ParallelOptions struct {
	// Workers is the decode pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// Metrics, when non-nil, instruments every worker's block decoder
	// (blocks read, inflate time, bytes, CRC failures, buffer reuse).
	// It must be set at construction: workers start inside
	// NewParallelReader, so there is no safe post-start attach.
	Metrics *Metrics
}

// ParallelReader replays a PTRC archive with block fetch, CRC check and
// decompression fanned out to a worker pool, so the expensive DEFLATE
// work overlaps the pipeline's ingest and window reduction. It requires
// a seekable archive (io.ReaderAt plus its size): the trailing index
// supplies every block's offset, and workers fetch and inflate blocks
// independently into pooled raw buffers.
//
// Order comes from per-block result slots. Each dispatched block
// carries a one-result slot, and the slots queue in block order in a
// FIFO of Workers+2 entries; the consumer waits on the head slot, then
// reuses it to dispatch the next block. Blocks are therefore delivered
// in archive order by construction, and at most Workers+2 blocks are
// in flight regardless of archive length.
//
// The cheap final stage — uvarint decode — runs on the consumer's
// goroutine, either into one persistent packet buffer (Next/NextBlock)
// or fused straight into the window under construction (DecodeInto), so
// steady-state replay allocates nothing per block.
//
// ParallelReader implements stream.PacketSource, stream.BlockSource and
// stream.EncodedBlockSource. It is not safe for concurrent use. Callers
// that abandon the source early (pipeline MaxWindows bounds, errors)
// should Close it to release the worker pool; draining it to exhaustion
// also releases.
type ParallelReader struct {
	idx      *archiveIndex
	jobs     chan readJob
	inflight chan chan parallelBlock // result slots in block order
	sent     int                     // blocks dispatched so far
	rawPool  chan []byte
	wg       sync.WaitGroup

	buf  []stream.Packet
	i    int
	walk blockWalker
	wraw []byte // raw buffer behind walk, recycled when exhausted
	read int64
	err  error
	done bool
}

// readJob asks a worker to fetch block i and deliver it into slot.
type readJob struct {
	i    int
	slot chan parallelBlock
}

// parallelBlock is one staged block in flight from the worker pool to
// the consumer: the working payload (inflated raw encoding for DEFLATE
// blocks, the packed payload for packed blocks), its packet count and
// codec, not yet decoded.
type parallelBlock struct {
	raw     []byte
	packets int
	codec   Codec
	err     error
}

// NewParallelReader reads the archive's footer and index and starts the
// decode pool. size is the archive length in bytes.
func NewParallelReader(r io.ReaderAt, size int64, opts ParallelOptions) (*ParallelReader, error) {
	idx, err := readIndex(r, size)
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(idx.blocks) {
		workers = len(idx.blocks)
	}
	// Two slots beyond the worker count keep decoded blocks ready for
	// the consumer while every worker decodes.
	depth := workers + 2
	p := &ParallelReader{
		idx:      idx,
		jobs:     make(chan readJob, depth), // one per in-flight block: sends never block
		inflight: make(chan chan parallelBlock, depth),
		rawPool:  make(chan []byte, depth+1), // the in-flight blocks plus the consumer's
	}

	// Workers: fetch + CRC-check + decompress one block at a time, each
	// with its own decoder state and ReadAt (safe for concurrent use by
	// contract). A slot holds one result and gets a new job only after
	// the consumer has taken it, so a worker's send never blocks.
	jobs := p.jobs // Close clears the field; workers keep the channel
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			dec := blockDecoder{m: opts.Metrics}
			var rec []byte
			for j := range jobs {
				i := j.i
				bl := idx.blocks[i]
				n := 1 + blockHeaderLen + bl.compLen
				if cap(rec) < n {
					rec = make([]byte, n)
				}
				rec = rec[:n]
				out := parallelBlock{codec: bl.codec}
				if _, err := r.ReadAt(rec, idx.offsets[i]); err != nil {
					out.err = corruptf("reading block %d: %v", i, err)
				} else if rec[0] != tagForCodec(bl.codec) {
					out.err = corruptf("block %d: expected %s block tag, found 0x%02x", i, bl.codec, rec[0])
				} else if h, err := parseBlockHeader(rec[1:], bl.codec); err != nil {
					out.err = err
				} else if h.packets != bl.packets || h.compLen != bl.compLen {
					out.err = corruptf("block %d header disagrees with index", i)
				} else {
					out.raw, out.err = dec.decompress(bl.codec, h, rec[1+blockHeaderLen:], p.takeRaw())
					out.packets = h.packets
				}
				j.slot <- out
			}
		}()
	}
	for i := 0; i < depth; i++ {
		p.dispatch(make(chan parallelBlock, 1))
	}
	return p, nil
}

// dispatch sends the next undispatched block, if any, to the worker
// pool with slot as its result slot, and queues the slot behind those
// already in flight.
func (p *ParallelReader) dispatch(slot chan parallelBlock) {
	if p.sent == len(p.idx.blocks) {
		return
	}
	p.jobs <- readJob{i: p.sent, slot: slot}
	p.inflight <- slot
	p.sent++
}

// takeRaw recycles a raw payload buffer from the pool if one is
// available.
func (p *ParallelReader) takeRaw() []byte {
	select {
	case b := <-p.rawPool:
		return b
	default:
		return nil
	}
}

// putRaw returns a raw payload buffer to the pool.
func (p *ParallelReader) putRaw(b []byte) {
	if b == nil {
		return
	}
	select {
	case p.rawPool <- b:
	default:
	}
}

// nextOrdered takes the next decompressed block in archive order and
// dispatches the block after the last one in flight; false means end
// of stream (finish run), error, or Close.
func (p *ParallelReader) nextOrdered() (parallelBlock, bool) {
	if len(p.inflight) == 0 {
		p.done = true
		p.finish()
		return parallelBlock{}, false
	}
	slot := <-p.inflight
	b := <-slot
	if b.err != nil {
		p.done = true
		p.err = b.err
		p.Close()
		return parallelBlock{}, false
	}
	p.dispatch(slot)
	return b, true
}

// fill ensures the current block has unconsumed packets, decoding the
// next raw block in order as needed; false means end of stream, error,
// or Close. The decode target is one persistent buffer reused for every
// block.
func (p *ParallelReader) fill() bool {
	if p.done {
		return false
	}
	for p.i >= len(p.buf) {
		b, ok := p.nextOrdered()
		if !ok {
			return false
		}
		var err error
		if b.codec == CodecPacked {
			p.buf, err = decodeBlockPacked(b.raw, b.packets, p.buf[:0])
		} else {
			p.buf, err = decodeBlockRaw(b.raw, b.packets, p.buf[:0])
		}
		p.putRaw(b.raw)
		if err != nil {
			p.done = true
			p.err = err
			p.buf = p.buf[:0]
			p.Close()
			return false
		}
		p.i = 0
	}
	return true
}

// Next implements stream.PacketSource.
func (p *ParallelReader) Next() (stream.Packet, bool) {
	if !p.fill() {
		return stream.Packet{}, false
	}
	pk := p.buf[p.i]
	p.i++
	p.read++
	return pk, true
}

// NextBlock implements stream.BlockSource: it returns the unconsumed
// remainder of the current decoded block. The slice is recycled on the
// next Next/NextBlock call; callers must copy what they keep.
func (p *ParallelReader) NextBlock() ([]stream.Packet, bool) {
	if !p.fill() {
		return nil, false
	}
	blk := p.buf[p.i:]
	p.i = len(p.buf)
	p.read += int64(len(blk))
	return blk, true
}

// DecodeInto implements stream.EncodedBlockSource: it takes the next
// decompressed block from the worker pool (or resumes the current one)
// and decodes its uvarint pairs directly into w — the fused replay path.
// DecodeInto must not be interleaved with Next or NextBlock on the same
// reader: both paths consume the same ordered block sequence but buffer
// independently.
func (p *ParallelReader) DecodeInto(w *stream.PairWindow) (valid, invalid int64, full, ok bool) {
	if p.walk.exhausted() {
		if p.done {
			return 0, 0, false, false
		}
		b, okb := p.nextOrdered()
		if !okb {
			return 0, 0, false, false
		}
		if err := p.walk.init(b.codec, b.raw, b.packets); err != nil {
			p.done = true
			p.err = err
			p.putRaw(b.raw)
			p.Close()
			return 0, 0, false, false
		}
		p.wraw = b.raw
	}
	var err error
	valid, invalid, err = p.walk.decodeInto(w)
	p.read += valid + invalid
	if err != nil {
		p.done = true
		p.err = err
		p.Close()
		return valid, invalid, false, false
	}
	if p.walk.exhausted() {
		p.putRaw(p.wraw)
		p.wraw = nil
	}
	return valid, invalid, w.Remaining() == 0, true
}

// finish runs when the ordered stream drains cleanly: verify the packet
// count against the index (a defense-in-depth invariant; per-block CRCs
// and the index cross-checks make a mismatch unreachable short of a bug).
func (p *ParallelReader) finish() {
	if p.err == nil && p.read != p.idx.total {
		p.err = corruptf("archive delivered %d packets, index claims %d", p.read, p.idx.total)
	}
	p.Close()
}

// Err implements stream.PacketSource.
func (p *ParallelReader) Err() error { return p.err }

// PacketsRead implements stream.PacketCounter: the number of packets
// delivered so far.
func (p *ParallelReader) PacketsRead() int64 { return p.read }

// Info summarizes the archive from its already-decoded index.
func (p *ParallelReader) Info() ArchiveInfo {
	info := ArchiveInfo{
		Blocks:       len(p.idx.blocks),
		Packets:      p.idx.total,
		ValidPackets: p.idx.valid,
	}
	for _, bl := range p.idx.blocks {
		info.RawBytes += int64(bl.rawLen)
		info.CompressedBytes += int64(bl.compLen)
		if bl.codec == CodecPacked {
			info.PackedBlocks++
		} else {
			info.DeflateBlocks++
		}
	}
	return info
}

// Close stops the decode pool: workers finish the blocks already
// dispatched, and Close returns once they have exited. It is idempotent
// and safe after exhaustion; Next returns no packets after Close.
func (p *ParallelReader) Close() error {
	if p.jobs != nil {
		close(p.jobs)
		p.jobs = nil
		p.wg.Wait()
	}
	p.done = true
	return nil
}
