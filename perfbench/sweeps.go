package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/explore"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/shor"
)

// analyticSweeps are the machine-backed registered sweeps of
// sweep-analytic: every one resolves machines, plans kernels and list
// schedules them on the analytic engine.
var analyticSweeps = []string{
	"pareto", "table4", "table5", "overlap-sens", "fig6a", "fig8a", "workloads", "workload-blocks",
}

// desKinds and desWidths span the custom circuits of circuit-des.
var (
	desKinds  = []string{"adder", "qft", "qftcomm", "shor-stage"}
	desWidths = []int{64, 128, 192, 256}
)

// sweepSeed is the base seed of every deterministic sweep the benchmark
// runs, the CLI's default; the workload seed varies order and choice.
const sweepSeed = 1

// kernelCircuit generates one circuit of a built-in kernel family.
func kernelCircuit(kind string, bits int) (*circuit.Circuit, error) {
	switch kind {
	case "adder":
		return gen.CarryLookahead(bits).Circuit, nil
	case "qft":
		return gen.QFT(bits, false), nil
	case "qftcomm":
		return gen.QFT(bits, true), nil
	case "shor-stage":
		return shor.StageCircuit(bits), nil
	}
	return nil, fmt.Errorf("unknown circuit kind %q", kind)
}

// sweepDoc runs one sweep and emits its JSON document, as `cqla sweep
// <name> -format json` does, inside benchmark spans.
func sweepDoc(ctx context.Context, exp *explore.Experiment, engine, estimator string, seed int64, reg *obs.Registry) ([]byte, int, error) {
	p := phys.Projected()
	rctx, sp := obs.StartSpan(ctx, "explore.run")
	pts, err := explore.Run(rctx, exp, explore.Options{Phys: p, Parallel: workers, Seed: seed, Engine: engine, Obs: reg})
	sp.End()
	if err != nil {
		return nil, 0, err
	}
	_, sp = obs.StartSpan(ctx, "explore.emit")
	defer sp.End()
	var buf bytes.Buffer
	r := &explore.Report{Experiment: exp, Phys: p.Name, Seed: seed, Engine: engine, Estimator: estimator, Points: pts}
	if err := r.Emit(&buf, "json"); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), len(pts), nil
}

// passStats accumulates the closed-loop passes of a sweep workload.
type passStats struct {
	attempted, failed int
	points            int
	sweepMs, passMs   []float64
	emitted           int // document bytes
	wall              time.Duration
}

// runPasses calls pass until d has elapsed; only whole passes run.
func runPasses(d time.Duration, pass func(st *passStats)) *passStats {
	st := &passStats{}
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		pass(st)
		st.passMs = append(st.passMs, ms(time.Since(t0)))
	}
	st.wall = time.Since(start)
	return st
}

// record books one sweep operation of duration d; ok says whether its
// output passed the check.
func (st *passStats) record(d time.Duration, doc []byte, points int, err error, ok bool) {
	st.sweepMs = append(st.sweepMs, ms(d))
	st.attempted++
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
	}
	if !ok {
		st.failed++
		return
	}
	st.points += points
	st.emitted += len(doc)
}

func (st *passStats) phase() *phase {
	return &phase{
		attempted: st.attempted,
		failed:    st.failed,
		workPerS:  float64(st.points) / st.wall.Seconds(),
		latencyMs: quantile(st.passMs, 0.5),
		info: []metric{
			{"points_per_s", float64(st.points) / st.wall.Seconds(), "1/s"},
			{"sweep_p50_ms", quantile(st.sweepMs, 0.5), "ms"},
			{"sweep_p90_ms", quantile(st.sweepMs, 0.9), "ms"},
			{"sweep_samples", float64(len(st.sweepMs)), "count"},
			{"pass_p50_ms", quantile(st.passMs, 0.5), "ms"},
			{"passes", float64(len(st.passMs)), "count"},
		},
	}
}

var sweepAnalytic = workload{
	name: "sweep-analytic",
	ready: func(context.Context) error {
		_, err := lookupAll(analyticSweeps)
		return err
	},
	prepare: func(seed int64) (runner, error) {
		exps, err := lookupAll(analyticSweeps)
		if err != nil {
			return nil, err
		}
		return &analyticRunner{exps: exps, rng: rand.New(rand.NewSource(seed))}, nil
	},
}

func lookupAll(names []string) ([]*explore.Experiment, error) {
	exps := make([]*explore.Experiment, len(names))
	for i, n := range names {
		e, err := explore.Lookup(n)
		if err != nil {
			return nil, err
		}
		exps[i] = e
	}
	return exps, nil
}

type analyticRunner struct {
	exps []*explore.Experiment
	rng  *rand.Rand
}

func (r *analyticRunner) measure(ctx context.Context, d time.Duration, tr *tracing) (*phase, error) {
	var distinct map[string]int
	if tr != nil {
		var err error
		if distinct, err = distinctPlans(ctx, r.exps); err != nil {
			return nil, err
		}
	}
	ctx = tr.with(ctx)
	var in layerInputs
	st := runPasses(d, func(st *passStats) {
		for _, i := range r.rng.Perm(len(r.exps)) {
			exp := r.exps[i]
			t0 := time.Now()
			doc, n, err := sweepDoc(ctx, exp, "analytic", "", sweepSeed, tr.registry())
			took := time.Since(t0)
			st.record(took, doc, n, err, err == nil && checkDoc("sweep", exp.Name, doc, sweepSeed))
			in.distinctPlans += distinct[exp.Name]
		}
	})
	ph := st.phase()
	if tr != nil {
		in.emitBytes = st.emitted
		var err error
		if ph.layers, err = layerMetrics(tr, in); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// distinctPlans counts, per sweep, the kernel plans one run needs: the
// dag-build spans of a serial run, where no two workers can race on a
// cold plan.
func distinctPlans(ctx context.Context, exps []*explore.Experiment) (map[string]int, error) {
	out := make(map[string]int, len(exps))
	for _, exp := range exps {
		t := obs.NewTracer()
		_, err := explore.Run(obs.WithTracer(ctx, t), exp, explore.Options{Phys: phys.Projected(), Parallel: 1, Seed: sweepSeed})
		if err != nil {
			return nil, err
		}
		for _, s := range t.Spans() {
			if s.Name() == "dag-build" {
				out[exp.Name]++
			}
		}
	}
	return out, nil
}

var circuitDES = workload{
	name: "circuit-des",
	ready: func(context.Context) error {
		_, err := kernelCircuit(desKinds[0], 2)
		return err
	},
	prepare: func(seed int64) (runner, error) {
		r := &desRunner{rng: rand.New(rand.NewSource(seed))}
		for _, k := range desKinds {
			for _, w := range desWidths {
				c, err := kernelCircuit(k, w)
				if err != nil {
					return nil, err
				}
				r.inputs = append(r.inputs, circuitInput{
					name:  fmt.Sprintf("%s-%d", k, w),
					text:  circuit.FormatString(c),
					gates: len(c.Instrs()),
				})
			}
		}
		return r, nil
	},
}

// circuitInput is one generated circuit in the text format.
type circuitInput struct {
	name  string
	text  string
	gates int
}

type desRunner struct {
	inputs []circuitInput
	rng    *rand.Rand
}

// circuitDoc is `cqla sweep -circuit <file> -engine <engine> -format json`
// on an in-memory file: parse, build the experiment, sweep, emit.
func circuitDoc(ctx context.Context, name, text, engine string, reg *obs.Registry) ([]byte, int, error) {
	_, sp := obs.StartSpan(ctx, "circuit.parse")
	c, err := circuit.Parse(strings.NewReader(text))
	sp.End()
	if err != nil {
		return nil, 0, err
	}
	_, sp = obs.StartSpan(ctx, "explore.circuit_experiment")
	exp, err := explore.CircuitExperiment(name, c)
	sp.End()
	if err != nil {
		return nil, 0, err
	}
	return sweepDoc(ctx, exp, engine, "", sweepSeed, reg)
}

func (r *desRunner) measure(ctx context.Context, d time.Duration, tr *tracing) (*phase, error) {
	ctx = tr.with(ctx)
	var in layerInputs
	gates := 0
	st := runPasses(d, func(st *passStats) {
		for _, i := range r.rng.Perm(len(r.inputs)) {
			c := r.inputs[i]
			t0 := time.Now()
			doc, n, err := circuitDoc(ctx, c.name, c.text, "des", tr.registry())
			took := time.Since(t0)
			st.record(took, doc, n, err, err == nil && checkDoc("circuit", c.name, doc, sweepSeed))
			if err == nil {
				gates += c.gates * n
				in.parseCalls++
				in.parseBytes += len(c.text)
				in.distinctPlans++ // CircuitExperiment builds its one plan
			}
		}
	})
	ph := st.phase()
	ph.info = append(ph.info, metric{"sim_gates_per_s", float64(gates) / st.wall.Seconds(), "1/s"})
	if tr != nil {
		in.emitBytes = st.emitted
		in.desGates = gates
		in.planBuilds = in.parseCalls
		var err error
		if ph.layers, err = layerMetrics(tr, in); err != nil {
			return nil, err
		}
	}
	return ph, nil
}
