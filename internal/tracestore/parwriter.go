package tracestore

import (
	"io"
	"sync"

	"hybridplaw/internal/stream"
)

// Pipelined PTRC writer (DESIGN.md §13) — the write-side mirror of
// ParallelReader, built on the same per-block result slots. The ingest
// goroutine (the caller of Writer.Write) seals packets into
// block-sized batches and queues each batch's slot in a FIFO of
// Workers+2 slots; a pool of compress workers encodes batches into
// complete block records in the slots' own buffers. When the FIFO is full, ingest commits the
// head record itself — waits for its slot, writes the record and
// appends its index entry — and reuses that slot for the new batch;
// Close commits the rest. Because the workers run the same blockEncoder
// as the serial writer and records are written in FIFO order, the
// archive bytes are identical to the serial writer's.
//
// Passthrough records (WriteEncodedBlock) are framed by ingest straight
// into their slot, which enters the FIFO already filled.
type writePipeline struct {
	out  io.Writer
	opts WriterOptions

	jobs     chan *writeSlot // batches to encode
	inflight chan *writeSlot // records in archive order, at most Workers+2
	wg       sync.WaitGroup  // compress workers

	err    error       // first commit error; later records are dropped
	blocks []blockInfo // committed index entries, in block order
}

// writeSlot is one record's place in the archive order, with the
// buffers it reuses each time it is recycled. A worker fills rec and
// info, then signals done; ingest reads them only after receiving from
// done.
type writeSlot struct {
	done    chan struct{}   // one signal per fill
	packets []stream.Packet // batch to encode; swapped with ingest's buffer
	rec     []byte
	info    blockInfo
}

func newWritePipeline(out io.Writer, opts WriterOptions) *writePipeline {
	// Two slots beyond the worker count: one record committing while
	// every worker encodes and one batch queued for the next free worker.
	depth := opts.Workers + 2
	p := &writePipeline{
		out:      out,
		opts:     opts,
		jobs:     make(chan *writeSlot, depth), // one per in-flight slot: sends never block
		inflight: make(chan *writeSlot, depth),
	}
	for i := 0; i < opts.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// slot returns a free slot for the next record: a new one while fewer
// than depth records are in flight, otherwise the head, once committed.
// It reports the pipeline's first commit error.
func (p *writePipeline) slot() (*writeSlot, error) {
	if len(p.inflight) < cap(p.inflight) {
		return &writeSlot{
			done:    make(chan struct{}, 1),
			packets: make([]stream.Packet, 0, p.opts.BlockSize),
		}, nil
	}
	s := <-p.inflight
	p.commit(s)
	return s, p.err
}

// submitBatch seals the writer's buffered packets as the next record
// and hands the ingest side the slot's spare batch buffer. Called on
// the ingest goroutine only.
func (p *writePipeline) submitBatch(w *Writer) error {
	s, err := p.slot()
	if err != nil {
		w.err = err
		return err
	}
	s.packets, w.buf = w.buf, s.packets[:0]
	p.inflight <- s
	p.jobs <- s
	p.opts.Metrics.queueDepth(1)
	return nil
}

// submitPre frames an already-encoded block (WriteEncodedBlock) into
// the next slot and queues it already filled, bypassing the encode
// stage. Called on the ingest goroutine only.
func (p *writePipeline) submitPre(w *Writer, b EncodedBlock, info blockInfo) error {
	s, err := p.slot()
	if err != nil {
		w.err = err
		return err
	}
	s.rec, s.info = encodedRecord(s.rec, b), info
	s.done <- struct{}{}
	p.inflight <- s
	p.opts.Metrics.queueDepth(1)
	return nil
}

// worker encodes batches into complete block records.
func (p *writePipeline) worker() {
	defer p.wg.Done()
	enc := blockEncoder{m: p.opts.Metrics}
	for s := range p.jobs {
		p.opts.Metrics.workerBusy(1)
		s.rec, s.info = enc.encodeRecord(s.rec[:0], s.packets)
		p.opts.Metrics.workerBusy(-1)
		s.done <- struct{}{}
	}
}

// commit waits for the head slot's record and writes it, unless the
// pipeline has already failed. The wait, when the record is not ready,
// is the ordered-commit stall.
func (p *writePipeline) commit(s *writeSlot) {
	select {
	case <-s.done:
	default:
		sp := p.opts.Metrics.commitStallStart()
		<-s.done
		sp.Stop()
	}
	p.opts.Metrics.queueDepth(-1)
	if p.err != nil {
		return
	}
	if _, err := p.out.Write(s.rec); err != nil {
		p.err = err
	} else {
		p.opts.Metrics.blockWritten(s.info.codec, s.info.rawLen, s.info.compLen)
		p.blocks = append(p.blocks, s.info)
	}
}

// shutdown commits every record still in flight — no more submissions
// may follow — stops the workers, and returns the committed index
// entries in block order plus the first error, if any. Called on the
// ingest goroutine, exactly once.
func (p *writePipeline) shutdown() ([]blockInfo, error) {
	close(p.jobs)
	for len(p.inflight) > 0 {
		p.commit(<-p.inflight)
	}
	p.wg.Wait()
	return p.blocks, p.err
}
