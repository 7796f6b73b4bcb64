// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the program through the entry points users reach
// (sweeps, custom-circuit sweeps on the des engine, Monte Carlo campaigns
// and the HTTP API) and prints every metric by name and unit, ending with
// one JSON result line.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the run measures the end-to-end metrics with tracing
// off. With --trace 1 it measures half the time untraced and half traced,
// and reports the per-layer metrics plus the tracing overhead. See
// README.md for the workloads, the metrics and the layer map.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"

	"repro/internal/obs"
)

// workers is the goroutine and connection budget of every workload: the
// core count of the host the benchmark was calibrated on.
const workers = 2

// setupProbes is how many child processes measure setup_s per run.
const setupProbes = 15

// workload is one benchmark workload.
type workload struct {
	name string
	// ready is the set-up a user pays before the first operation can be
	// issued, after process start; setup probes run it in a child process.
	ready func(ctx context.Context) error
	// prepare generates the inputs from the seed. It is not timed.
	prepare func(seed int64) (runner, error)
}

// runner measures one prepared workload.
type runner interface {
	// measure runs operations until d has elapsed and returns what
	// happened. With a non-nil tr it records spans and registry metrics
	// and fills the per-layer section.
	measure(ctx context.Context, d time.Duration, tr *tracing) (*phase, error)
}

// phase is the outcome of one measured stretch of a workload.
type phase struct {
	attempted, failed int
	// workPerS and latencyMs are the workload's primary throughput and
	// median operation latency (see README.md for what an operation is).
	workPerS  float64
	latencyMs float64
	// info holds the workload's own end-to-end metrics under their
	// descriptive names; printed, not gated.
	info []metric
	// layers holds the per-layer metrics of a traced phase.
	layers []metric
}

type metric struct {
	name  string
	value float64
	unit  string
}

var workloads = []workload{sweepAnalytic, circuitDES, mcCampaign, serveMix}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	probe := flag.Bool("probe", false, "internal: run the workload's set-up, print ready, exit")
	record := flag.String("record", "", "regenerate the reference file at this path and exit")
	calibrate := flag.Bool("calibrate", false, "measure closed-loop serve capacity and exit")
	flag.Parse()

	ctx := context.Background()
	switch {
	case *record != "":
		if err := recordRefs(ctx, *record); err != nil {
			fatal(err)
		}
		return
	case *calibrate:
		if err := calibrateServe(ctx, time.Duration(*seconds)*time.Second); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fatal(fmt.Errorf("unknown workload %q (have %v)", *name, names))
	}
	if *probe {
		if err := w.ready(ctx); err != nil {
			fatal(err)
		}
		fmt.Println("ready")
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	if err := loadRefs(); err != nil {
		fatal(err)
	}
	res, err := runWorkload(ctx, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fatal(err)
	}
	if err := res.print(os.Stdout, w, *seed); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// result is one invocation's report.
type result struct {
	traced            bool
	attempted, failed int
	metrics           []metric // the JSON line: end-to-end or per-layer
	info              []metric // printed only
}

func runWorkload(ctx context.Context, w workload, seed int64, d time.Duration, traced bool) (*result, error) {
	setup, err := measureSetup(ctx, w.name)
	if err != nil {
		return nil, err
	}
	r, err := w.prepare(seed)
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", w.name, err)
	}
	if !traced {
		ph, err := r.measure(ctx, d, nil)
		if err != nil {
			return nil, err
		}
		res := &result{attempted: ph.attempted, failed: ph.failed}
		res.metrics = []metric{
			{"setup_s", setup, "s"},
			{"work_per_s", ph.workPerS, "1/s"},
			{"latency_ms", ph.latencyMs, "ms"},
			{"peak_rss_mb", peakRSSMiB(), "MiB"},
		}
		res.info = append(ph.info, metric{"error_rate", ratio(float64(ph.failed), float64(ph.attempted)), "ratio"})
		return res, nil
	}
	// Traced run: an untraced half gives the reference throughput, then a
	// traced half gives the per-layer numbers.
	plain, err := r.measure(ctx, d/2, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracing()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	ph, err := r.measure(ctx, d-d/2, tr)
	if err != nil {
		return nil, err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if err := tr.writeTrace(w.name, seed); err != nil {
		return nil, err
	}
	ops := float64(max(ph.attempted, 1))
	layers := append(ph.layers,
		metric{"go.allocs_per_op", float64(after.Mallocs-before.Mallocs) / ops, "count"},
		metric{"go.alloc_bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc) / ops, "bytes"},
		metric{"go.gc_pause_s", float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9, "s"},
		metric{"trace.overhead_frac", overheadFrac(plain, ph), "ratio"},
	)
	res := &result{
		traced:    true,
		attempted: plain.attempted + ph.attempted,
		failed:    plain.failed + ph.failed,
		metrics:   layers,
		info:      ph.info,
	}
	return res, nil
}

// overheadFrac is the share of primary throughput lost to tracing. For a
// workload whose throughput is an offered rate (serve-mix) it is the
// relative rise of median latency instead.
func overheadFrac(plain, traced *phase) float64 {
	if plain.workPerS > 0 && traced.workPerS > 0 {
		return 1 - traced.workPerS/plain.workPerS
	}
	if plain.latencyMs > 0 {
		return traced.latencyMs/plain.latencyMs - 1
	}
	return 0
}

// measureSetup starts the benchmark binary setupProbes times in probe
// mode and returns the median time from process start until the child
// reports that its first operation could be issued.
func measureSetup(ctx context.Context, name string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.CommandContext(ctx, exe, "--probe", "--workload", name)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		elapsed := time.Since(t0)
		_, _ = io.Copy(io.Discard, out)
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		if rerr != nil || line != "ready\n" {
			return 0, fmt.Errorf("setup probe printed %q: %v", line, rerr)
		}
		ts = append(ts, elapsed.Seconds())
	}
	return quantile(ts, 0.5), nil
}

func (r *result) print(w io.Writer, wl workload, seed int64) error {
	bi := obs.Build()
	commit := bi.Revision
	if commit == "" {
		commit = "unknown"
	} else if bi.Modified {
		commit += "+dirty"
	}
	fmt.Fprintf(w, "# workload=%s seed=%d trace=%v nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		wl.name, seed, r.traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	fmt.Fprintf(w, "attempted %d failed %d\n", r.attempted, r.failed)
	for _, m := range r.info {
		fmt.Fprintf(w, "%-34s %16.6g %s\n", m.name, m.value, m.unit)
	}
	if len(r.info) > 0 {
		fmt.Fprintln(w, "--")
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-34s %16.6g %s\n", m.name, m.value, m.unit)
		ms[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, max(r.attempted, 1), r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
