package tracestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"hybridplaw/internal/stream"
)

// drainUntilErr reads a source until it stops and returns the error.
func drainUntilErr(src stream.PacketSource) error {
	for {
		if _, ok := src.Next(); !ok {
			return src.Err()
		}
	}
}

// expectCorrupt asserts err wraps ErrCorrupt and carries a descriptive
// message.
func expectCorrupt(t *testing.T, name string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: expected error, got nil", name)
		return
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("%s: error does not wrap ErrCorrupt: %v", name, err)
	}
	if msg := strings.TrimPrefix(err.Error(), ErrCorrupt.Error()); strings.TrimSpace(msg) == "" {
		t.Errorf("%s: error has no description beyond the sentinel", name)
	}
}

// sequentialErr replays a (possibly damaged) archive sequentially and
// returns the terminating error.
func sequentialErr(data []byte) error {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	return drainUntilErr(r)
}

// parallelErr replays a (possibly damaged) archive through the parallel
// reader and returns the terminating error.
func parallelErr(data []byte) error {
	r, err := NewParallelReader(bytes.NewReader(data), int64(len(data)), ParallelOptions{Workers: 2})
	if err != nil {
		return err
	}
	defer r.Close()
	return drainUntilErr(r)
}

func TestCorruptionTruncated(t *testing.T) {
	ps := synthPackets(5, 3000, 500, 8)
	for codec := Codec(0); codec < numCodecs; codec++ {
		testCorruptionTruncated(t, codec.String(), writeArchive(t, ps, WriterOptions{BlockSize: 512, Codec: codec}))
	}
}

func testCorruptionTruncated(t *testing.T, codec string, data []byte) {
	cuts := []struct {
		name string
		keep int
	}{
		{"mid first block", 40},
		{"mid later block", len(data) / 2},
		{"missing footer", len(data) - footerLen},
		{"missing half the footer", len(data) - footerLen/2},
		{"only magic", len(fileMagic)},
		{"empty file", 0},
		{"partial magic", 3},
	}
	for _, c := range cuts {
		trunc := data[:c.keep]
		expectCorrupt(t, codec+"/sequential/"+c.name, sequentialErr(trunc))
		expectCorrupt(t, codec+"/parallel/"+c.name, parallelErr(trunc))
	}
}

func TestCorruptionBitFlips(t *testing.T) {
	ps := synthPackets(6, 3000, 500, 8)
	for codec := Codec(0); codec < numCodecs; codec++ {
		testCorruptionBitFlips(t, codec.String(), writeArchive(t, ps, WriterOptions{BlockSize: 512, Codec: codec}))
	}
}

func testCorruptionBitFlips(t *testing.T, codec string, data []byte) {
	flips := []struct {
		name string
		at   int
	}{
		{"file magic", 2},
		{"first block payload", len(fileMagic) + 1 + blockHeaderLen + 5},
		{"block header CRC field", len(fileMagic) + 1 + 12},
		{"footer magic", len(data) - 3},
		{"footer index offset", len(data) - footerLen + 1},
	}
	for _, f := range flips {
		mutated := append([]byte(nil), data...)
		mutated[f.at] ^= 0xFF
		expectCorrupt(t, codec+"/sequential/"+f.name, sequentialErr(mutated))
		expectCorrupt(t, codec+"/parallel/"+f.name, parallelErr(mutated))
	}
}

func TestCorruptionGarbageFooter(t *testing.T) {
	ps := synthPackets(7, 1000, 500, 0)
	data := writeArchive(t, ps, WriterOptions{BlockSize: 512})
	garbage := append([]byte(nil), data...)
	for i := len(garbage) - footerLen; i < len(garbage); i++ {
		garbage[i] = 0xA5
	}
	expectCorrupt(t, "parallel", parallelErr(garbage))
	if _, err := Info(bytes.NewReader(garbage), int64(len(garbage))); err == nil {
		t.Error("Info accepted a garbage footer")
	}
}

func TestCorruptionIndexPayload(t *testing.T) {
	ps := synthPackets(8, 2000, 500, 5)
	data := writeArchive(t, ps, WriterOptions{BlockSize: 512})
	// The index payload sits between the index record header and the
	// footer; flip a byte in its middle. Both the CRC check (sequential
	// and via footer) must reject it.
	idxPayloadStart := len(data) - footerLen
	// Walk back: footer, then payload of length read from footer.
	n := int(uint32(data[len(data)-16]) | uint32(data[len(data)-15])<<8 |
		uint32(data[len(data)-14])<<16 | uint32(data[len(data)-13])<<24)
	idxPayloadStart -= n
	mutated := append([]byte(nil), data...)
	mutated[idxPayloadStart+n/2] ^= 0x55
	expectCorrupt(t, "sequential", sequentialErr(mutated))
	expectCorrupt(t, "parallel", parallelErr(mutated))
}

// TestCorruptionIndexDroppedBlock rewrites the archive with the last
// block record removed but the original index intact: the sequential
// reader must notice the index totals disagree with the stream.
func TestCorruptionIndexDroppedBlock(t *testing.T) {
	ps := synthPackets(9, 2000, 500, 5)
	data := writeArchive(t, ps, WriterOptions{BlockSize: 512})
	// Find the start of the last block by walking the records.
	off := len(fileMagic)
	lastBlock := -1
	for {
		codec, ok := codecForTag(data[off])
		if !ok {
			break
		}
		lastBlock = off
		h, err := parseBlockHeader(data[off+1:off+1+blockHeaderLen], codec)
		if err != nil {
			t.Fatal(err)
		}
		off += 1 + blockHeaderLen + h.compLen
	}
	if lastBlock < 0 {
		t.Fatal("no blocks found")
	}
	mutated := append(append([]byte(nil), data[:lastBlock]...), data[off:]...)
	expectCorrupt(t, "sequential", sequentialErr(mutated))
	// The parallel reader trusts the index for offsets, so the dropped
	// block misaligns every subsequent read; it must fail, not misread.
	expectCorrupt(t, "parallel", parallelErr(mutated))
}

// TestCorruptionHugeBlockCount pins that a tiny index payload claiming
// an enormous block count is rejected before it can size an allocation
// (a crafted 2^29-entry index would otherwise attempt a ~16 GiB make).
func TestCorruptionHugeBlockCount(t *testing.T) {
	var payload []byte
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range []uint64{1 << 29, 0, 0} { // nBlocks, total, valid
		payload = append(payload, tmp[:binary.PutUvarint(tmp[:], v)]...)
	}
	_, err := parseIndexPayload(payload, -1)
	expectCorrupt(t, "huge block count", err)
}

func TestNewReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(strings.NewReader("definitely not a PTRC file")); err == nil {
		t.Error("NewReader accepted garbage")
	}
	if _, err := NewParallelReader(bytes.NewReader([]byte("tiny")), 4, ParallelOptions{}); err == nil {
		t.Error("NewParallelReader accepted a tiny file")
	}
}
