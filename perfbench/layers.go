package main

import "repro/internal/explore"

// layerInputs carries the benchmark-side measurements of a traced phase
// that the span tree and the registry cannot supply.
type layerInputs struct {
	parseCalls, parseBytes int
	emitBytes              int
	desGates               int
	// distinctPlans is how many kernel plans the phase's sweeps needed;
	// planBuilds counts plan builds made outside dag-build spans (one per
	// CircuitExperiment).
	distinctPlans, planBuilds int
	naiveTrials, l2Trials     float64
	rareResolved, rarePoints  int
	serve                     *servePhase
}

// layerMetrics derives every per-layer metric of a traced phase. Layers a
// workload does not exercise report zero.
func layerMetrics(tr *tracing, in layerInputs) ([]metric, error) {
	if err := tr.finish(); err != nil {
		return nil, err
	}
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }

	// circuit
	parse := tr.stat("circuit.parse", "")
	add("circuit.parse.calls", float64(in.parseCalls), "count")
	add("circuit.parse.s", parse.dur, "s")
	add("circuit.parse.bytes", float64(in.parseBytes), "bytes")
	add("explore.circuit_experiment.s", tr.stat("explore.circuit_experiment", "").dur, "s")

	// explore: runner, pool, caches, emit
	run := tr.stat("explore.run", "")
	point := tr.stat("point", "")
	add("explore.run.s", run.dur, "s")
	add("explore.emit.s", tr.stat("explore.emit", "").dur, "s")
	add("explore.emit.bytes", float64(in.emitBytes), "bytes")
	add("explore.point.count", float64(point.count), "count")
	add("explore.point.busy_s", point.dur, "s")
	add("explore.point.self_s", point.self, "s")
	add("explore.pool.idle_s", tr.poolIdle(), "s")
	sweeps := append(explore.Names(), "circuit")
	for _, kind := range []string{"machine", "plan", "compiled"} {
		var hits, misses float64
		for _, sw := range sweeps {
			hits += tr.counter("cqla_evalcache_hits_total", []string{"sweep", "kind"}, sw, kind)
			misses += tr.counter("cqla_evalcache_misses_total", []string{"sweep", "kind"}, sw, kind)
		}
		add("explore.evalcache."+kind+".hit_ratio", ratio(hits, hits+misses), "ratio")
	}
	dag := tr.stat("dag-build", "")
	add("explore.dag_build.count", float64(dag.count), "count")
	add("explore.dag_build.distinct", float64(in.distinctPlans), "count")
	add("explore.dag_build.s", dag.dur, "s")
	add("explore.dag_build.useful_ratio", ratio(float64(in.distinctPlans), float64(dag.count+in.planBuilds)), "ratio")

	// arch
	plan := tr.stat("plan-compile", "")
	add("arch.plan_compile.count", float64(plan.count), "count")
	add("arch.plan_compile.s", plan.dur, "s")
	ana := tr.stat("analytic-eval", "")
	add("arch.analytic_eval.count", float64(ana.count), "count")
	add("arch.analytic_eval.s", ana.dur, "s")
	des := tr.stat("des-eval", "")
	add("arch.des_eval.count", float64(des.count), "count")
	add("arch.des_eval.s", des.dur, "s")
	add("arch.des_eval.self_s", des.self, "s")

	// des
	sim := tr.stat("sim-run", "")
	add("des.sim_run.count", float64(sim.count), "count")
	add("des.sim_run.s", sim.dur, "s")
	add("des.sim_run.gates", float64(in.desGates), "count")

	// ecc
	est := map[string]float64{
		"naive":     tr.stat("point", "ecc.naive").dur,
		"bitsliced": tr.stat("mc-bitsliced", "").dur,
		"rare":      tr.stat("mc-rare", "").dur,
		"concat_l2": tr.stat("ecc.concat_l2", "").dur,
	}
	trials := map[string]float64{
		"naive":     in.naiveTrials,
		"bitsliced": tr.counter("cqla_mc_trials_total", []string{"estimator"}, "bitsliced"),
		"rare":      tr.counter("cqla_mc_trials_total", []string{"estimator"}, "rare"),
		"concat_l2": in.l2Trials,
	}
	for _, e := range []string{"naive", "bitsliced", "rare", "concat_l2"} {
		add("ecc."+e+".s", est[e], "s")
		add("ecc.trials."+e, trials[e], "count")
		add("ecc.trials_per_s."+e, ratio(trials[e], est[e]), "1/s")
	}
	add("ecc.rare.resolved_ratio", ratio(float64(in.rareResolved), float64(in.rarePoints)), "ratio")

	// serve
	out = append(out, serveLayers(tr, in.serve)...)

	// trace validity
	unattributed := tr.unattributedFrac("circuit.parse", "explore.circuit_experiment", "explore.emit", "ecc.concat_l2")
	if in.serve != nil {
		// No program span reaches a detached job: all of its time is
		// unattributed.
		unattributed = 1
	}
	add("trace.unattributed_frac", unattributed, "ratio")
	return out, nil
}

// poolIdle is the worker time sweeps left idle: for every explore.run
// span, its worker count times its duration minus the time its points
// kept workers busy.
func (t *tracing) poolIdle() float64 {
	idle := 0.0
	for i := range t.spans {
		s := &t.spans[i]
		if s.name != "explore.run" {
			continue
		}
		busy := 0.0
		for _, c := range s.children {
			busy += t.spans[c].dur
		}
		w := min(workers, len(s.children))
		idle += (float64(w)*s.dur - busy) / 1e6
	}
	return idle
}

// serveRoute is the mux pattern every serve-mix request is labeled with.
const serveRoute = "POST /v1/sweeps/{op}"

// serveLayers derives the serve layer from the server's registry and the
// client's measurements of the traced phase; zero without serve traffic.
func serveLayers(tr *tracing, ph *servePhase) []metric {
	var clientS float64
	var repeats, n int
	var hitLat, missLat, lag []float64
	if ph != nil {
		n = len(ph.reqs)
		for i, o := range ph.outcomes {
			clientS += o.sentMs / 1000
			lag = append(lag, o.lagMs)
			if ph.reqs[i].repeat {
				repeats++
			}
			switch {
			case !o.ok:
			case o.hit:
				hitLat = append(hitLat, o.latencyMs)
			default:
				missLat = append(missLat, o.latencyMs)
			}
		}
	}
	dur := tr.reg.HistogramVec("cqla_http_request_seconds", "", nil, "route").With(serveRoute)
	requests := float64(dur.Count())
	ok := tr.counter("cqla_http_requests_total", []string{"route", "code"}, serveRoute, "200")
	hits := tr.counter("cqla_result_cache_hits_total", nil)
	misses := tr.counter("cqla_result_cache_misses_total", nil)
	return []metric{
		{"serve.http.requests", requests, "count"},
		{"serve.http.non2xx", requests - ok, "count"},
		{"serve.http.server_s", dur.Sum(), "s"},
		{"serve.client_overhead_s", max(clientS-dur.Sum(), 0), "s"},
		{"serve.result_cache.hit_ratio", ratio(hits, hits+misses), "ratio"},
		{"serve.repeat_share", ratio(float64(repeats), float64(n)), "ratio"},
		{"serve.jobs.queue_wait_s", tr.histogramSum("cqla_job_queue_wait_seconds"), "s"},
		{"serve.jobs.run_s", tr.histogramSum("cqla_job_run_seconds"), "s"},
		{"serve.jobs.coalesced", tr.counter("cqla_jobs_coalesced_total", nil), "count"},
		{"serve.hit_p50_ms", quantile(hitLat, 0.5), "ms"},
		{"serve.miss_p50_ms", quantile(missLat, 0.5), "ms"},
		{"serve.generator.lag_ms", quantile(lag, 0.99), "ms"},
	}
}
