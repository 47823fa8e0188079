package main

import (
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func quiet() *log.Logger { return log.New(io.Discard, "", 0) }

// TestSuiteAndCompareRoundTrip runs the pinned suite at tiny scale,
// records it, and verifies the compare path: identical records pass any
// gate, inflated baselines trip it, and missing benchmarks fail.
func TestSuiteAndCompareRoundTrip(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	args := []string{
		"-out", out,
		"-packets", "20000", "-replay-packets", "10000", "-fit-n", "20000",
		"-min-time", "1ms", "-max-iters", "1",
	}
	if err := run(args, quiet()); err != nil {
		t.Fatal(err)
	}
	rec, err := readRecord(out)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Schema != schemaV9 {
		t.Errorf("schema = %q, want %q", rec.Schema, schemaV9)
	}
	// v3+ embeds the instrumented suite's snapshot; the deterministic
	// counters must show the workload actually ran — including the
	// packed fallback's read/write counters, the dict encoder's spans and
	// the transcode passthrough. (The replay trace repeats almost no
	// pair, so every block falls back to packed columns; the transcode
	// trace repeats its pairs, so its blocks are dict.)
	if rec.Metrics == nil {
		t.Fatal("record has no metrics snapshot")
	}
	for _, name := range []string{
		"palu_stream_windows_total", "palu_ptrc_blocks_read_total", "palu_ptrc_blocks_written_total",
		"palu_ptrc_packed_blocks_read_total", "palu_ptrc_packed_blocks_written_total",
		"palu_ptrc_dict_encode_spans_total", "palu_ptrc_dict_blocks_read_total",
		"palu_ptrc_passthrough_blocks_total",
	} {
		m, ok := rec.Metrics.Get(name)
		if !ok || m.Value == 0 {
			t.Errorf("snapshot metric %s missing or zero: %+v", name, m)
		}
	}
	want := []string{
		"pipeline-reduce-serial",
		"pipeline-w1-s1", "pipeline-w2-s1", "pipeline-w4-s1",
		"ptrc-replay-sequential", "ptrc-replay-parallel",
		"ptrc-record-w1", "ptrc-record-w2", "ptrc-record-w4",
		"ptrc-transcode-passthrough", "ptrc-transcode-recode",
		"engine-suite-replay-shared", "engine-suite-replay-independent",
		"fit-zm", "fit-registry",
	}
	if len(rec.Results) != len(want) {
		t.Fatalf("suite ran %d benchmarks, want %d: %+v", len(rec.Results), len(want), rec.Results)
	}
	for i, name := range want {
		b := rec.Results[i]
		if b.Name != name {
			t.Errorf("benchmark %d: name %q, want %q", i, b.Name, name)
		}
		if b.NsPerOp <= 0 {
			t.Errorf("%s: ns/op = %v", name, b.NsPerOp)
		}
		if b.CPUs <= 0 {
			t.Errorf("%s: entry records no CPU count", name)
		}
	}
	// The replay and record entries name the archive's codec mix and
	// size: on this trace every block falls back to packed, and the
	// record entries write the replay archive byte for byte at every
	// worker count (the pipelined writer's equivalence guarantee showing
	// up in the committed record). The transcode entries write archives.
	replay := rec.Results[4]
	if replay.Codec != "packed" || replay.ArchiveBytes == 0 {
		t.Errorf("%s: codec %q, archive bytes %d; want the packed fallback", replay.Name, replay.Codec, replay.ArchiveBytes)
	}
	for _, b := range rec.Results {
		switch {
		case strings.HasPrefix(b.Name, "ptrc-replay"), strings.HasPrefix(b.Name, "ptrc-record"):
			if b.Codec != replay.Codec || b.ArchiveBytes != replay.ArchiveBytes {
				t.Errorf("%s: codec %q, %d bytes; want the replay archive's %q, %d bytes",
					b.Name, b.Codec, b.ArchiveBytes, replay.Codec, replay.ArchiveBytes)
			}
			if strings.HasPrefix(b.Name, "ptrc-record") && b.Workers < 1 {
				t.Errorf("%s: writer worker count %d not recorded", b.Name, b.Workers)
			}
		case strings.HasPrefix(b.Name, "ptrc-transcode"):
			if b.ArchiveBytes == 0 {
				t.Errorf("%s: archive bytes not recorded", b.Name)
			}
		}
	}

	// v6 engine-suite pair: the independent run replays exactly
	// fan-out × the packets the shared run does — the committed witness
	// that sharing decodes each window once per run, not once per
	// consumer.
	var sharedReplayed, indepReplayed uint64
	for _, b := range rec.Results {
		switch b.Name {
		case "engine-suite-replay-shared":
			sharedReplayed = b.ReplayedPackets
		case "engine-suite-replay-independent":
			indepReplayed = b.ReplayedPackets
		}
	}
	if sharedReplayed == 0 || indepReplayed != 4*sharedReplayed {
		t.Errorf("engine-suite replayed packets shared=%d independent=%d, want exactly 4x",
			sharedReplayed, indepReplayed)
	}

	// The one-worker matrix point is the serial pin measured once:
	// identical numbers under both names, with the worker count recorded.
	serial, w1s1 := rec.Results[0], rec.Results[1]
	if serial.NsPerOp != w1s1.NsPerOp || serial.Workers != 1 || w1s1.Workers != 1 {
		t.Errorf("serial pin and w1-s1 should be one measurement: %+v vs %+v", serial, w1s1)
	}

	// Self-compare under any gate passes (ratio 1.0 exactly).
	if failed := compare(quiet(), rec, rec, 1.0); len(failed) != 0 {
		t.Fatalf("self-compare failed: %v", failed)
	}

	// A baseline claiming everything was 1000x faster trips the gate.
	fast := rec
	fast.Results = append([]Bench(nil), rec.Results...)
	for i := range fast.Results {
		fast.Results[i].NsPerOp /= 1000
	}
	if failed := compare(quiet(), fast, rec, 2); len(failed) != len(rec.Results) {
		t.Fatalf("inflated baseline should trip every benchmark, tripped %v", failed)
	}

	// The same inflated baseline on different hardware must NOT trip the
	// ns/op gate: throughput is only comparable at equal CPU counts.
	foreign := fast
	foreign.Results = append([]Bench(nil), fast.Results...)
	for i := range foreign.Results {
		foreign.Results[i].CPUs = rec.Results[i].CPUs + 96
	}
	if failed := compare(quiet(), foreign, rec, 2); len(failed) != 0 {
		t.Fatalf("cross-hardware ns/op should not gate, tripped %v", failed)
	}

	// The allocs/op gate is hardware-independent: an alloc regression
	// trips even across differing CPU counts.
	lean := rec
	lean.Results = append([]Bench(nil), rec.Results...)
	for i := range lean.Results {
		lean.Results[i].CPUs = rec.Results[i].CPUs + 96
		lean.Results[i].AllocsPerOp = rec.Results[i].AllocsPerOp/10 + 1
	}
	if failed := compare(quiet(), lean, rec, 2); len(failed) == 0 {
		t.Fatal("allocs/op regression should gate regardless of CPU count")
	}

	// A gate of 0 reports but never fails.
	if failed := compare(quiet(), fast, rec, 0); len(failed) != 0 {
		t.Fatalf("disabled gate should not fail, got %v", failed)
	}

	// A baseline naming a benchmark the suite no longer runs fails.
	missing := rec
	missing.Results = append([]Bench(nil), rec.Results...)
	missing.Results[0].Name = "gone"
	failed := compare(quiet(), missing, rec, 1000)
	if len(failed) != 1 || !strings.Contains(failed[0], "missing") {
		t.Fatalf("missing benchmark should fail the compare, got %v", failed)
	}
}

// TestReadRecordAcceptsV1 pins baseline compatibility: a v1 record (no
// per-entry CPUs) still loads, and its entries inherit the record-level
// CPU count for comparison purposes.
func TestReadRecordAcceptsV1(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "v1.json")
	v1 := `{"schema":"palu-bench-v1","go":"go1.0","cpus":4,"benchmarks":[
		{"name":"pipeline-reduce-serial","ns_per_op":100,"allocs_per_op":5,"bytes_per_op":10}]}`
	if err := os.WriteFile(p, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := readRecord(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := entryCPUs(rec.Results[0], rec); got != 4 {
		t.Fatalf("v1 entry CPUs = %d, want record-level 4", got)
	}
}

// TestScalingGate pins the in-run scaling gate on constructed records:
// it passes when the two-worker writer beats the serial one, fires when
// it does not, and judges nothing below 5 ms or on one CPU.
func TestScalingGate(t *testing.T) {
	const ms = 1e6
	record := func(cpus int, w1, w2 float64) Record {
		return Record{CPUs: cpus, Results: []Bench{
			{Name: "ptrc-replay-sequential", NsPerOp: 100 * ms},
			{Name: "ptrc-record-w1", Workers: 1, NsPerOp: w1},
			{Name: "ptrc-record-w2", Workers: 2, NsPerOp: w2},
			{Name: "ptrc-record-w4", Workers: 4, NsPerOp: 2 * w1},
		}}
	}
	for _, c := range []struct {
		name   string
		rec    Record
		failed bool
	}{
		{"w2 faster", record(2, 40*ms, 26*ms), false},
		{"w2 as slow", record(2, 40*ms, 40*ms), true},
		{"w2 slower", record(4, 40*ms, 41*ms), true},
		{"w1 under the noise floor", record(2, 4*ms, 6*ms), false},
		{"one CPU", record(1, 40*ms, 45*ms), false},
		{"no record entries", Record{CPUs: 2, Results: []Bench{{Name: "fit-zm", NsPerOp: 40 * ms}}}, false},
	} {
		failed := scalingGate(c.rec)
		if (len(failed) > 0) != c.failed {
			t.Errorf("%s: gate returned %v, want failure %v", c.name, failed, c.failed)
		}
		if c.failed && (len(failed) != 1 || !strings.HasPrefix(failed[0], "ptrc-record-w2")) {
			t.Errorf("%s: gate should name ptrc-record-w2, got %v", c.name, failed)
		}
	}
	// An entry's own CPU count overrides the record's.
	rec := record(1, 40*ms, 45*ms)
	rec.Results[2].CPUs = 2
	if failed := scalingGate(rec); len(failed) != 1 {
		t.Errorf("w2 measured on 2 CPUs in a 1-CPU record: gate returned %v, want a failure", failed)
	}
}

// TestReadRecordAcceptsV7 pins that a v7 baseline — without -dict
// entries — still loads and compares by name against a current record.
func TestReadRecordAcceptsV7(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "v7.json")
	v7 := `{"schema":"palu-bench-v7","go":"go1.0","cpus":2,"benchmarks":[
		{"name":"ptrc-record-w1","cpus":2,"workers":1,"codec":"deflate","ns_per_op":100,"allocs_per_op":5,"bytes_per_op":10}]}`
	if err := os.WriteFile(p, []byte(v7), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := readRecord(p)
	if err != nil {
		t.Fatal(err)
	}
	cur := Record{Schema: schemaV9, CPUs: 2, Results: []Bench{
		{Name: "ptrc-record-w1", CPUs: 2, Codec: "packed", NsPerOp: 100, AllocsPerOp: 5},
	}}
	if failed := compare(quiet(), base, cur, 2); len(failed) != 0 {
		t.Fatalf("v7 baseline against a v9 record: %v", failed)
	}
}

// TestReadRecordAcceptsV8 pins that a v8 baseline — the per-codec
// generation, with -packed and -dict entries — still loads. Its
// per-codec entries are retired in v9, so a compare against a v9
// record reports them as missing: a v8 file is read, not gated on.
func TestReadRecordAcceptsV8(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "v8.json")
	v8 := `{"schema":"palu-bench-v8","go":"go1.0","cpus":2,"benchmarks":[
		{"name":"ptrc-record-w1","cpus":2,"workers":1,"codec":"deflate","ns_per_op":100,"allocs_per_op":5,"bytes_per_op":10},
		{"name":"ptrc-record-w1-dict","cpus":2,"workers":1,"codec":"dict","ns_per_op":60,"allocs_per_op":5,"bytes_per_op":10}]}`
	if err := os.WriteFile(p, []byte(v8), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := readRecord(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Results) != 2 || base.Results[1].Codec != "dict" {
		t.Fatalf("v8 record decoded as %+v", base.Results)
	}
	cur := Record{Schema: schemaV9, CPUs: 2, Results: []Bench{
		{Name: "ptrc-record-w1", CPUs: 2, Codec: "packed", NsPerOp: 100, AllocsPerOp: 5},
	}}
	failed := compare(quiet(), base, cur, 2)
	if len(failed) != 1 || !strings.Contains(failed[0], "ptrc-record-w1-dict (missing)") {
		t.Fatalf("v8 baseline against a v9 record: %v, want only the retired -dict entry missing", failed)
	}
}

// TestReadRecordAcceptsV6 pins that a v6 baseline still loads: its
// retired sharded entries and per-entry shard counts are ignored, and
// the entries v7 still runs compare by name.
func TestReadRecordAcceptsV6(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "v6.json")
	v6 := `{"schema":"palu-bench-v6","go":"go1.0","cpus":2,"benchmarks":[
		{"name":"pipeline-reduce-sharded","cpus":2,"workers":1,"shards":2,"ns_per_op":100,"allocs_per_op":5,"bytes_per_op":10},
		{"name":"pipeline-w2-s1","cpus":2,"workers":2,"shards":1,"ns_per_op":80,"allocs_per_op":5,"bytes_per_op":10}]}`
	if err := os.WriteFile(p, []byte(v6), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := readRecord(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Results) != 2 || rec.Results[1].Name != "pipeline-w2-s1" || rec.Results[1].Workers != 2 {
		t.Fatalf("v6 record decoded as %+v", rec.Results)
	}
}

func TestReadRecordRejectsBadSchema(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(p, []byte(`{"schema":"other","benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readRecord(p); err == nil {
		t.Fatal("bad schema accepted")
	}
	if _, err := readRecord(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("absent file accepted")
	}
}

func TestMeasureReportsError(t *testing.T) {
	if _, err := measure("boom", time.Millisecond, 1, func() error {
		return os.ErrInvalid
	}); err == nil {
		t.Fatal("measure swallowed the workload error")
	}
}
