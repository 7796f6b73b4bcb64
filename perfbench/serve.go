package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/explore"
	"repro/internal/obs"
)

// serveSweeps are the cheap and mid-cost registered sweeps serve-mix
// requests; serveKinds × serveWidths are its small custom circuits.
var (
	serveSweeps = []string{
		"workloads", "workload-blocks", "overlap-sens", "fig8a", "table5", "pareto", "xval", "fig2-makespan",
	}
	serveKinds  = []string{"adder", "qft", "qftcomm", "shor-stage"}
	serveWidths = []int{8, 16, 32}
)

// Serve traffic shape. The rates were calibrated once with --calibrate
// against closed-loop capacity on the calibration host (README.md): lo at
// about a third of capacity, hi at about four fifths. The ladder is fixed;
// max_rps is its highest rung that meets the p99 limit.
const (
	serveLoRPS       = 85
	serveHiRPS       = 200
	serveP99LimitMs  = 250
	serveRepeatEvery = 5         // one request in five names a fresh key
	serveSweepWeight = 3         // fresh keys: each sweep thrice per circuit
	serveCircuitName = "request" // the experiment name the API gives a circuit
	rungSeconds      = 2
	failedLatencyMs  = 1e9 // a failed request's latency: over any limit
)

// serveLadder is the fixed rate ladder for max_rps, 5% apart.
var serveLadder = func() []float64 {
	var out []float64
	for r := 100.0; r < 1000; r *= 1.05 {
		out = append(out, math.Round(r))
	}
	return out
}()

var serveMix = workload{
	name: "serve-mix",
	ready: func(ctx context.Context) error {
		srv, err := startServer(obs.NewRegistry())
		if err != nil {
			return err
		}
		defer srv.stop(ctx)
		resp, err := srv.client.Get(srv.url + "/v1/version")
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET /v1/version: %s", resp.Status)
		}
		return nil
	},
	prepare: func(seed int64) (runner, error) {
		r := &serveRunner{rng: rand.New(rand.NewSource(seed))}
		r.nextSeed = int64(r.rng.Intn(1 << 20))
		for _, k := range serveKinds {
			for _, w := range serveWidths {
				c, err := kernelCircuit(k, w)
				if err != nil {
					return nil, err
				}
				r.circuits = append(r.circuits, circuitInput{name: fmt.Sprintf("%s-%d", k, w), text: circuit.FormatString(c)})
			}
		}
		return r, nil
	},
}

// server is one explore.Server on a loopback listener, configured as
// `cqla serve` configures it, with logs discarded.
type server struct {
	api    *explore.Server
	http   *http.Server
	done   chan error
	url    string
	client *http.Client
}

func startServer(reg *obs.Registry) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	api := explore.NewServer(
		explore.WithCacheBytes(64<<20),
		explore.WithMaxEvaluations(1),
		explore.WithObservability(reg),
		explore.WithLogger(obs.NopLogger()),
	)
	s := &server{
		api:  api,
		http: &http.Server{Handler: api, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
		}},
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the server down as `cqla serve` does on a signal, draining
// jobs and then HTTP, and waits for its serve loop to return.
func (s *server) stop(ctx context.Context) {
	s.client.CloseIdleConnections()
	if err := s.api.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: job drain:", err)
	}
	if err := s.http.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: server shutdown:", err)
	}
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
}

// request is one scheduled POST.
type request struct {
	due    time.Duration // offset from the phase start
	path   string
	body   []byte
	check  string // reference table: sweep or serve-circuit
	key    string // reference key
	seed   int64
	repeat bool // the (operation, seed) key was issued before
}

type serveRunner struct {
	rng      *rand.Rand
	circuits []circuitInput
	nextSeed int64
	deck     []int // fresh operations in draw order; see nextOp
}

// schedule draws a Poisson arrival stream at rate for d. In every block of
// serveRepeatEvery requests one, at a random position, names a fresh
// (operation, seed) key; the others repeat a key issued earlier in the
// stream.
func (r *serveRunner) schedule(rate float64, d time.Duration) []request {
	var out, issued []request
	fresh := 0 // position of the fresh request in the current block
	t := 0.0
	for n := 0; ; n++ {
		t += r.rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		if n%serveRepeatEvery == 0 && n > 0 {
			fresh = r.rng.Intn(serveRepeatEvery)
		}
		var rq request
		if n%serveRepeatEvery == fresh {
			r.nextSeed++
			rq = r.freshRequest(r.nextOp(), r.nextSeed)
			issued = append(issued, rq)
		} else {
			rq = issued[r.rng.Intn(len(issued))]
			rq.repeat = true
		}
		rq.due = time.Duration(t * float64(time.Second))
		out = append(out, rq)
	}
}

// nextOp draws the next fresh operation from a shuffled deck holding every
// serve sweep serveSweepWeight times and every circuit once, so each
// stretch of fresh keys has the same operation mix.
func (r *serveRunner) nextOp() int {
	if len(r.deck) == 0 {
		for i := range serveSweeps {
			for k := 0; k < serveSweepWeight; k++ {
				r.deck = append(r.deck, i)
			}
		}
		for i := range r.circuits {
			r.deck = append(r.deck, len(serveSweeps)+i)
		}
		r.rng.Shuffle(len(r.deck), func(i, j int) { r.deck[i], r.deck[j] = r.deck[j], r.deck[i] })
	}
	op := r.deck[0]
	r.deck = r.deck[1:]
	return op
}

// freshRequest builds the run request of operation op (an index into
// serveSweeps, then into the circuits) at seed.
func (r *serveRunner) freshRequest(op int, seed int64) request {
	type body struct {
		Seed    int64  `json:"seed"`
		Circuit string `json:"circuit,omitempty"`
	}
	if op >= len(serveSweeps) {
		c := r.circuits[op-len(serveSweeps)]
		b, _ := json.Marshal(body{seed, c.text}) // plain struct: cannot fail
		return request{path: "/v1/sweeps/circuit:run", body: b, check: "serve-circuit", key: c.name, seed: seed}
	}
	name := serveSweeps[op]
	b, _ := json.Marshal(body{Seed: seed})
	return request{path: "/v1/sweeps/" + name + ":run", body: b, check: "sweep", key: name, seed: seed}
}

// outcome is what the client saw for one request.
type outcome struct {
	latencyMs float64 // from the due time; failedLatencyMs on failure
	sentMs    float64 // from the send
	lagMs     float64 // how late the generator handed the request off
	hit, ok   bool
}

// servePhase is one open-loop stretch at a fixed rate.
type servePhase struct {
	reqs     []request
	outcomes []outcome
}

func (p *servePhase) latencies() []float64 {
	out := make([]float64, len(p.outcomes))
	for i, o := range p.outcomes {
		out[i] = o.latencyMs
	}
	return out
}

func (p *servePhase) failed() int {
	n := 0
	for _, o := range p.outcomes {
		if !o.ok {
			n++
		}
	}
	return n
}

func (p *servePhase) p99() float64 { return quantile(p.latencies(), 0.99) }

// run sends the phase's requests on schedule against a fresh server: a
// generator goroutine releases each request at its due time and workers
// client goroutines send them.
func (r *serveRunner) run(ctx context.Context, rate float64, d time.Duration, reg *obs.Registry) (*servePhase, error) {
	ph := &servePhase{reqs: r.schedule(rate, d)}
	ph.outcomes = make([]outcome, len(ph.reqs))
	srv, err := startServer(reg)
	if err != nil {
		return nil, err
	}
	defer srv.stop(ctx)
	queue := make(chan int, len(ph.reqs)) // one slot per scheduled send
	start := time.Now()
	go func() {
		defer close(queue)
		for i, rq := range ph.reqs {
			if wait := time.Until(start.Add(rq.due)); wait > 0 {
				time.Sleep(wait)
			}
			ph.outcomes[i].lagMs = ms(time.Since(start) - rq.due)
			queue <- i
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				ph.outcomes[i] = send(ctx, srv, ph.reqs[i], start, ph.outcomes[i].lagMs)
			}
		}()
	}
	wg.Wait()
	return ph, nil
}

func send(ctx context.Context, srv *server, rq request, start time.Time, lag float64) outcome {
	o := outcome{lagMs: lag, latencyMs: failedLatencyMs}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.url+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return o
	}
	resp, err := srv.client.Do(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: request failed:", err)
		return o
	}
	doc, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	now := time.Now()
	o.sentMs = ms(now.Sub(t0))
	o.hit = resp.Header.Get("X-Cache") == "hit"
	if err != nil || resp.StatusCode != http.StatusOK || !checkDoc(rq.check, rq.key, doc, rq.seed) {
		return o
	}
	o.ok = true
	o.latencyMs = ms(now.Sub(start.Add(rq.due)))
	return o
}

func (r *serveRunner) measure(ctx context.Context, d time.Duration, tr *tracing) (*phase, error) {
	if tr != nil {
		// Program spans do not reach detached jobs, so the traced run
		// takes the serve layer from the registry of a server at the hi
		// rate and from the client. A lo stretch first gives the latency
		// the tracing overhead compares.
		lo, err := r.run(ctx, serveLoRPS, d/2, obs.NewRegistry())
		if err != nil {
			return nil, err
		}
		hi, err := r.run(ctx, serveHiRPS, d/2, tr.reg)
		if err != nil {
			return nil, err
		}
		ph := &phase{attempted: len(lo.reqs) + len(hi.reqs), failed: lo.failed() + hi.failed(), latencyMs: lo.p99()}
		ph.layers, err = layerMetrics(tr, layerInputs{serve: hi})
		return ph, err
	}
	lo, err := r.run(ctx, serveLoRPS, 12*d/25, obs.NewRegistry())
	if err != nil {
		return nil, err
	}
	hi, err := r.run(ctx, serveHiRPS, d/5, obs.NewRegistry())
	if err != nil {
		return nil, err
	}
	maxRPS, rungs, attempted, failed, err := r.ladder(ctx, 8*d/25)
	if err != nil {
		return nil, err
	}
	attempted += len(lo.reqs) + len(hi.reqs)
	failed += lo.failed() + hi.failed()
	hiLat := hi.latencies()
	repeats := 0
	for _, rq := range hi.reqs {
		if rq.repeat {
			repeats++
		}
	}
	return &phase{
		attempted: attempted,
		failed:    failed,
		workPerS:  maxRPS,
		latencyMs: lo.p99(),
		info: []metric{
			{"lo_rps", serveLoRPS, "1/s"},
			{"hi_rps", serveHiRPS, "1/s"},
			{"p99_limit_ms", serveP99LimitMs, "ms"},
			{"lo_p50_ms", quantile(lo.latencies(), 0.5), "ms"},
			{"lo_p99_ms", lo.p99(), "ms"},
			{"lo_samples", float64(len(lo.reqs)), "count"},
			{"hi_p50_ms", quantile(hiLat, 0.5), "ms"},
			{"hi_p99_ms", hi.p99(), "ms"},
			{"hi_samples", float64(len(hiLat)), "count"},
			{"max_rps", maxRPS, "1/s"},
			{"ladder_rungs", float64(rungs), "count"},
			{"repeat_share", ratio(float64(repeats), float64(len(hi.reqs))), "ratio"},
		},
	}, nil
}

// ladder searches the fixed rate ladder for its highest rung that meets
// the p99 limit, within a budget of d. It starts at the rung nearest hi,
// gallops (1, 2, 4, ... rungs) away from it until the outcome flips, then
// bisects between the highest passing and the lowest failing rung.
func (r *serveRunner) ladder(ctx context.Context, d time.Duration) (best float64, rungs, attempted, failed int, err error) {
	start := 0
	for start < len(serveLadder)-1 && serveLadder[start] < serveHiRPS {
		start++
	}
	pass, fail := -1, len(serveLadder) // highest passing, lowest failing rung
	i, step := start, 1
	rung := time.Duration(rungSeconds * float64(time.Second))
	for spent := time.Duration(0); spent+rung <= d && fail-pass > 1; spent += rung {
		ph, err := r.run(ctx, serveLadder[i], rung, obs.NewRegistry())
		if err != nil {
			return 0, 0, 0, 0, err
		}
		rungs++
		attempted += len(ph.reqs)
		failed += ph.failed()
		if ph.failed() == 0 && ph.p99() <= serveP99LimitMs {
			pass = i
		} else {
			fail = i
		}
		switch {
		case fail == len(serveLadder):
			i = min(pass+step, len(serveLadder)-1)
		case pass < 0:
			i = max(fail-step, 0)
		default:
			i = (pass + fail) / 2
		}
		step *= 2
	}
	if pass >= 0 {
		best = serveLadder[pass]
	}
	return best, rungs, attempted, failed, nil
}

// calibrateServe measures closed-loop capacity: workers clients sending
// the serve-mix request stream back to back for d.
func calibrateServe(ctx context.Context, d time.Duration) error {
	if err := loadRefs(); err != nil {
		return err
	}
	rn, err := serveMix.prepare(1)
	if err != nil {
		return err
	}
	r := rn.(*serveRunner)
	reqs := r.schedule(4*serveHiRPS, d) // only the request order is used
	srv, err := startServer(obs.NewRegistry())
	if err != nil {
		return err
	}
	defer srv.stop(ctx)
	next := make(chan int)
	go func() {
		defer close(next)
		deadline := time.Now().Add(d)
		for i := 0; i < len(reqs) && time.Now().Before(deadline); i++ {
			next <- i
		}
	}()
	results := make(chan outcome)
	for w := 0; w < workers; w++ {
		go func() {
			for i := range next {
				rq := reqs[i]
				rq.due = 0
				results <- send(ctx, srv, rq, time.Now(), 0)
			}
			results <- outcome{latencyMs: -1}
		}()
	}
	start := time.Now()
	var n, hits, fails int
	for open := workers; open > 0; {
		o := <-results
		switch {
		case o.latencyMs < 0:
			open--
		case !o.ok:
			fails++
		default:
			n++
			if o.hit {
				hits++
			}
		}
	}
	el := time.Since(start).Seconds()
	fmt.Printf("closed-loop capacity %.1f rps (%d ok, %d failed, hit share %.3f) over %.1f s\n",
		float64(n)/el, n, fails, ratio(float64(hits), float64(n)), el)
	return nil
}
