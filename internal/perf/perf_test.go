package perf

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchSink keeps the TinyAlloc allocation observable so neither the
// compiler nor a linter treats it as dead.
var benchSink []byte

// fastSuite is a pair of near-instant benchmarks for harness tests, so the
// tests don't pay for the real suite's campaigns.
func fastSuite() []Benchmark {
	return []Benchmark{
		{Name: "TinyAlloc", Doc: "allocates once per op", F: func(b *B) {
			for i := 0; i < b.N; i++ {
				benchSink = make([]byte, 64)
			}
			b.ReportMetric(42, "answer")
		}},
		{Name: "TinyNoop", F: func(b *B) {
			for i := 0; i < b.N; i++ {
			}
		}},
	}
}

// fastOpts keeps harness tests quick; correctness is budget-independent.
var fastOpts = Options{BenchTime: 10 * time.Millisecond}

// registerRuns numbers TestRegisterValidation runs, so that repeated runs
// in one process (-count, -cpu lists) register a fresh fixture name.
var registerRuns int

func TestRegisterValidation(t *testing.T) {
	registerRuns++
	dup := fmt.Sprintf("perf-test-dup-%d", registerRuns)
	if err := Register(Benchmark{Name: "", F: func(*B) {}}); err == nil {
		t.Error("empty name accepted")
	}
	if err := Register(Benchmark{Name: "has space", F: func(*B) {}}); err == nil {
		t.Error("whitespace name accepted")
	}
	if err := Register(Benchmark{Name: "NoBody"}); err == nil {
		t.Error("nil body accepted")
	}
	if err := Register(Benchmark{Name: dup, F: func(*B) {}}); err != nil {
		t.Fatalf("first registration: %v", err)
	}
	if err := Register(Benchmark{Name: dup, F: func(*B) {}}); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestSuiteRegistered(t *testing.T) {
	names := map[string]bool{}
	prev := ""
	for _, bm := range Benchmarks() {
		names[bm.Name] = true
		if bm.Name < prev {
			t.Errorf("Benchmarks() not sorted: %q after %q", bm.Name, prev)
		}
		prev = bm.Name
	}
	// The CI gate's pinned set must stay registered; renaming one silently
	// un-gates it. BuildDAG/CompileOnceEvalMany/PublicDecode carry the
	// compiled-workload pipeline's gains into BENCH.json, and
	// Schedule1024Adder100Blocks the list scheduler's.
	for _, want := range []string{
		"ConcatenatedMCLevel2", "DES64BitAdder", "MonteCarloXSeeded", "ExplorePareto",
		"BuildDAG", "BuildDAGInto", "CompileOnceEvalMany", "PublicDecode",
		"Schedule1024Adder100Blocks",
	} {
		if !names[want] {
			t.Errorf("suite benchmark %q missing from registry", want)
		}
	}
}

// TestMeasuredFunctionsSchema pins the benchmark → measured-function
// table against the registry and the lint symbol grammar: a renamed
// benchmark or a typo'd symbol fails here, long before the budget-aware
// noalloc analyzer would silently drop the budget it carries.
func TestMeasuredFunctionsSchema(t *testing.T) {
	registered := map[string]bool{}
	for _, bm := range Benchmarks() {
		registered[bm.Name] = true
	}
	symbol := regexp.MustCompile(`^[\w./-]+\.(\(\*?\w+\)\.)?\w+$`)
	for bench, funcs := range MeasuredFunctions() {
		if !registered[bench] {
			t.Errorf("MeasuredFunctions maps %q, which is not a registered benchmark", bench)
		}
		if len(funcs) == 0 {
			t.Errorf("MeasuredFunctions[%q] is empty; drop the entry instead", bench)
		}
		for _, sym := range funcs {
			if !symbol.MatchString(sym) {
				t.Errorf("MeasuredFunctions[%q] symbol %q does not match the lint grammar", bench, sym)
			}
		}
	}
}

func TestRunProducesVersionedJSON(t *testing.T) {
	var progress int
	opts := fastOpts
	opts.Progress = func(done, total int, r Result) {
		progress++
		if total != 2 {
			t.Errorf("progress total = %d, want 2", total)
		}
	}
	rep, err := RunBenchmarks(fastSuite(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if progress != 2 {
		t.Errorf("progress called %d times, want 2", progress)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		SchemaVersion int    `json:"schema_version"`
		GoVersion     string `json:"go_version"`
		NumCPU        int    `json:"num_cpu"`
		Benchmarks    []struct {
			Name        string             `json:"name"`
			Iterations  int                `json:"iterations"`
			NsPerOp     float64            `json:"ns_per_op"`
			AllocsPerOp int64              `json:"allocs_per_op"`
			Metrics     map[string]float64 `json:"metrics"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("BENCH.json does not parse: %v\n%s", err, buf.String())
	}
	if doc.SchemaVersion != SchemaVersion {
		t.Errorf("schema_version = %d, want %d", doc.SchemaVersion, SchemaVersion)
	}
	if doc.GoVersion == "" || doc.NumCPU < 1 {
		t.Errorf("host metadata missing: %+v", doc)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("%d benchmark entries, want 2", len(doc.Benchmarks))
	}
	alloc := doc.Benchmarks[0]
	if alloc.Name != "TinyAlloc" {
		t.Fatalf("first entry %q, want TinyAlloc (name-sorted)", alloc.Name)
	}
	if alloc.Iterations <= 0 || alloc.NsPerOp <= 0 {
		t.Errorf("TinyAlloc measured nothing: %+v", alloc)
	}
	if alloc.AllocsPerOp != 1 {
		t.Errorf("TinyAlloc allocs_per_op = %d, want 1 (allocation tracking must be on)", alloc.AllocsPerOp)
	}
	if alloc.Metrics["answer"] != 42 {
		t.Errorf("custom metric not carried: %v", alloc.Metrics)
	}
}

func TestRunFilter(t *testing.T) {
	opts := fastOpts
	opts.Filter = regexp.MustCompile("^TinyNoop$")
	rep, err := RunBenchmarks(fastSuite(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "TinyNoop" {
		t.Fatalf("filter selected %v", rep.Benchmarks)
	}
	opts.Filter = regexp.MustCompile("NoSuchBench")
	if _, err := RunBenchmarks(fastSuite(), opts); err == nil {
		t.Error("filter matching nothing should error")
	}
}

// TestBenchTimeScalesIterations pins the native loop's calibration: a
// larger budget must run at least as many iterations, and both runs must
// meet their budget (or prove the op so slow one iteration exceeds it).
func TestBenchTimeScalesIterations(t *testing.T) {
	busy := Benchmark{Name: "Busy", F: func(b *B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < 1000; j++ {
				benchSink = nil
			}
		}
	}}
	short, err := measure(busy, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	long, err := measure(busy, 40*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if long.Iterations < short.Iterations {
		t.Errorf("40ms budget ran %d iterations, 2ms ran %d", long.Iterations, short.Iterations)
	}
	if short.NsPerOp <= 0 || long.NsPerOp <= 0 {
		t.Errorf("ns/op not measured: %v / %v", short.NsPerOp, long.NsPerOp)
	}
}

// TestFatalPropagatesAsError is the native loop's failure contract: a
// Fatal inside a body surfaces as the run's error instead of a silent
// zero-valued result.
func TestFatalPropagatesAsError(t *testing.T) {
	boom := []Benchmark{{Name: "Boom", F: func(b *B) {
		b.Fatalf("exploded on iteration %d", 0)
	}}}
	_, err := RunBenchmarks(boom, fastOpts)
	if err == nil || !strings.Contains(err.Error(), "exploded") {
		t.Fatalf("Fatal did not propagate: %v", err)
	}
	// A non-sentinel panic must not be swallowed as a measurement error.
	defer func() {
		if recover() == nil {
			t.Error("foreign panic was swallowed")
		}
	}()
	RunBenchmarks([]Benchmark{{Name: "Panic", F: func(b *B) { panic(errors.New("raw")) }}}, fastOpts)
}

func TestTimerControls(t *testing.T) {
	bm := Benchmark{Name: "Timed", F: func(b *B) {
		b.StopTimer()
		benchSink = make([]byte, 1<<16) // setup, must not be billed
		b.StartTimer()
		for i := 0; i < b.N; i++ {
		}
	}}
	r, err := measure(bm, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if r.AllocsPerOp != 0 {
		t.Errorf("setup allocations billed to the timed region: %d allocs/op", r.AllocsPerOp)
	}
}

func TestRoundUp(t *testing.T) {
	cases := map[int64]int{1: 1, 2: 2, 3: 3, 4: 5, 5: 5, 7: 10, 10: 10, 11: 20, 99: 100, 101: 200, 350: 500, 5001: 10000}
	for in, want := range cases {
		if got := roundUp(in); got != want {
			t.Errorf("roundUp(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestCompareAndLoad(t *testing.T) {
	base := &Report{SchemaVersion: SchemaVersion, Benchmarks: []Result{
		{Name: "A", NsPerOp: 100, AllocsPerOp: 3},
		{Name: "B", NsPerOp: 200},
		{Name: "Gone", NsPerOp: 50},
	}}
	head := &Report{SchemaVersion: SchemaVersion, Benchmarks: []Result{
		{Name: "A", NsPerOp: 50, AllocsPerOp: 0}, // 2x faster
		{Name: "B", NsPerOp: 400},                // 2x slower
		{Name: "New", NsPerOp: 10},
	}}
	c := Compare(base, head)
	if len(c.Deltas) != 2 {
		t.Fatalf("%d common deltas, want 2", len(c.Deltas))
	}
	if c.Deltas[0].Name != "A" || c.Deltas[0].Pct != -50 {
		t.Errorf("delta A = %+v, want -50%%", c.Deltas[0])
	}
	if c.Deltas[1].Pct != 100 {
		t.Errorf("delta B = %+v, want +100%%", c.Deltas[1])
	}
	// geomean of (0.5, 2.0) is exactly 1.0: no net movement.
	if g := c.GeomeanPct; g < -1e-9 || g > 1e-9 {
		t.Errorf("geomean = %v%%, want 0", g)
	}
	if len(c.BaseOnly) != 1 || c.BaseOnly[0] != "Gone" {
		t.Errorf("BaseOnly = %v", c.BaseOnly)
	}
	if len(c.HeadOnly) != 1 || c.HeadOnly[0] != "New" {
		t.Errorf("HeadOnly = %v", c.HeadOnly)
	}
	var buf bytes.Buffer
	if err := c.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"geomean", "-50.00%", "+100.00%", "(baseline only)", "(new)"} {
		if !strings.Contains(out, want) {
			t.Errorf("delta table missing %q:\n%s", want, out)
		}
	}

	// Round-trip through disk via LoadReport.
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH.json")
	var file bytes.Buffer
	if err := base.WriteJSON(&file); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Benchmarks) != 3 {
		t.Errorf("loaded %d benchmarks, want 3", len(loaded.Benchmarks))
	}
	if _, err := LoadReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file loaded")
	}
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(path); err == nil {
		t.Error("truncated document loaded")
	}
	if err := os.WriteFile(path, []byte(`{"schema_version": 99, "benchmarks": [{"name":"A"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(path); err == nil {
		t.Error("future schema loaded")
	}
	if err := os.WriteFile(path, []byte(`{"schema_version": 1, "benchmarks": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(path); err == nil {
		t.Error("empty benchmark set loaded")
	}
}
