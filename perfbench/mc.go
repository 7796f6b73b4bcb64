package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/ecc"
	"repro/internal/explore"
	"repro/internal/obs"
)

// A campaign is one naive montecarlo sweep, bitslicedPerCampaign
// bit-sliced sweeps, rarePerCampaign rare-event sweeps and one level-2
// concatenation grid. The counts are chosen so that each of the four parts
// takes about a quarter of campaign time on the calibration host.
const (
	bitslicedPerCampaign = 8
	rarePerCampaign      = 50
	l2Level              = 2
	l2Trials             = 150000
)

// Sweep seeds cycle through pools whose reference outputs are recorded.
const (
	naivePool     = 16
	bitslicedPool = 32
	rarePool      = 64
	l2Pool        = 16
)

var (
	l2Codes = []string{"steane", "bacon-shor"}
	l2Rates = []float64{1e-3, 3e-3, 1e-2, 3e-2}
)

// l2Source seeds one level-2 grid cell of pool seed s.
func l2Source(s, cell int) *rand.Rand {
	return rand.New(rand.NewSource(int64(s)<<8 | int64(cell)))
}

// poolSeed maps the n-th use of an estimator to its pool seed (1-based).
func poolSeed(n, pool int) int { return 1 + n%pool }

var mcCampaign = workload{
	name: "mc-campaign",
	ready: func(context.Context) error {
		_, err := newMCRunner(0)
		return err
	},
	prepare: func(seed int64) (runner, error) {
		return newMCRunner(rand.New(rand.NewSource(seed)).Intn(1 << 16))
	},
}

type mcRunner struct {
	exps   map[string]*explore.Experiment
	codes  []*ecc.Code
	offset int // campaign counter start, from the workload seed
	next   int
}

func newMCRunner(offset int) (*mcRunner, error) {
	r := &mcRunner{exps: make(map[string]*explore.Experiment), offset: offset}
	for _, est := range explore.Estimators() {
		e, err := explore.NewMonteCarloExperiment(est)
		if err != nil {
			return nil, err
		}
		r.exps[est] = e
	}
	for _, name := range l2Codes {
		c, err := arch.CodeByName(name)
		if err != nil {
			return nil, err
		}
		r.codes = append(r.codes, c)
	}
	return r, nil
}

// mcDoc is the part of a montecarlo sweep document the checks read.
type mcDoc struct {
	Points []struct {
		Metrics map[string]*float64 `json:"metrics"`
	} `json:"points"`
}

func (d *mcDoc) metric(i int, name string) float64 {
	if v := d.Points[i].Metrics[name]; v != nil {
		return *v
	}
	return math.NaN()
}

// mcStats accumulates one measured stretch of campaigns.
type mcStats struct {
	attempted, failed int
	campaignMs        []float64
	trials            map[string]float64
	checks            *poolCheck
	resolved, rarePts int
	emitted           int // document bytes
}

func (r *mcRunner) measure(ctx context.Context, d time.Duration, tr *tracing) (*phase, error) {
	ctx = tr.with(ctx)
	st := &mcStats{trials: make(map[string]float64), checks: newPoolCheck()}
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		if err := r.campaign(ctx, st, tr.registry()); err != nil {
			return nil, err
		}
		st.campaignMs = append(st.campaignMs, ms(time.Since(t0)))
	}
	wall := time.Since(start)
	st.failed += st.checks.failures()
	total := 0.0
	for _, n := range st.trials {
		total += n
	}
	ph := &phase{
		attempted: st.attempted,
		failed:    st.failed,
		workPerS:  total / wall.Seconds(),
		latencyMs: quantile(st.campaignMs, 0.5),
		info: []metric{
			{"campaign_s", quantile(st.campaignMs, 0.5) / 1000, "s"},
			{"campaigns", float64(len(st.campaignMs)), "count"},
			{"trials_per_s", total / wall.Seconds(), "1/s"},
		},
	}
	if tr != nil {
		in := layerInputs{
			emitBytes:    st.emitted,
			naiveTrials:  st.trials[explore.EstimatorNaive],
			l2Trials:     st.trials["concat_l2"],
			rareResolved: st.resolved,
			rarePoints:   st.rarePts,
		}
		var err error
		if ph.layers, err = layerMetrics(tr, in); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// campaign runs one campaign at the next pool seeds and checks every
// output against the references.
func (r *mcRunner) campaign(ctx context.Context, st *mcStats, reg *obs.Registry) error {
	g := r.offset + r.next
	r.next++
	sweep := func(est string, seed int) (*mcDoc, []byte, bool) {
		sctx, sp := obs.StartSpan(ctx, "ecc."+est)
		doc, n, err := sweepDoc(sctx, r.exps[est], "analytic", estimatorLabel(est), int64(seed), reg)
		sp.End()
		st.attempted++
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
			st.failed++
			return nil, nil, false
		}
		var md mcDoc
		if err := json.Unmarshal(doc, &md); err != nil || len(md.Points) != n {
			st.failed++
			return nil, nil, false
		}
		st.trials[est] += trialsSpent(est, &md)
		st.emitted += len(doc)
		return &md, doc, true
	}

	s := poolSeed(g, naivePool)
	if _, doc, ok := sweep(explore.EstimatorNaive, s); ok && digest(doc) != refs.Naive[s-1] {
		st.failed++
	}
	for j := 0; j < bitslicedPerCampaign; j++ {
		s := poolSeed(g*bitslicedPerCampaign+j, bitslicedPool)
		if md, _, ok := sweep(explore.EstimatorBitSliced, s); ok {
			ref := refs.Bitsliced[s-1]
			for i := range md.Points {
				st.checks.binomial(fmt.Sprintf("bitsliced/%d", i),
					md.metric(i, "logical_faults"), mcAxisTrials, ref.Faults[i], mcAxisTrials)
			}
		}
	}
	for j := 0; j < rarePerCampaign; j++ {
		s := poolSeed(g*rarePerCampaign+j, rarePool)
		if md, _, ok := sweep(explore.EstimatorRare, s); ok {
			ref := refs.Rare[s-1]
			for i := range md.Points {
				st.checks.estimate(fmt.Sprintf("rare/%d", i),
					md.metric(i, "logical_rate"), md.metric(i, "stderr"), ref.Rate[i], ref.StdErr[i])
				st.resolved += int(md.metric(i, "resolved"))
				st.rarePts++
			}
		}
	}
	s = poolSeed(g, l2Pool)
	faults := r.concatGrid(ctx, s)
	for cell, f := range faults {
		st.attempted++
		st.checks.binomial(fmt.Sprintf("concat_l2/%d", cell), float64(f), l2Trials, float64(refs.ConcatL2[s-1][cell]), l2Trials)
		st.trials["concat_l2"] += l2Trials
	}
	return nil
}

// mcAxisTrials is the montecarlo sweep's trials axis value.
const mcAxisTrials = 1000000

// trialsSpent counts the trials one montecarlo sweep decoded.
func trialsSpent(est string, md *mcDoc) float64 {
	if est != explore.EstimatorRare {
		return float64(len(md.Points)) * mcAxisTrials
	}
	total := 0.0
	for i := range md.Points {
		total += md.metric(i, "trials_used")
	}
	return total
}

// estimatorLabel is the Report.Estimator value of an estimator: empty for
// the default naive one, as the CLI writes it.
func estimatorLabel(est string) string {
	if est == explore.EstimatorNaive {
		return ""
	}
	return est
}

// concatGrid runs the level-2 concatenated estimator over every code and
// rate on workers goroutines and returns the logical fault count per cell.
func (r *mcRunner) concatGrid(ctx context.Context, s int) []int {
	cells := len(r.codes) * len(l2Rates)
	faults := make([]int, cells)
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				cell := next
				next++
				mu.Unlock()
				if cell >= cells {
					return
				}
				c, p := r.codes[cell/len(l2Rates)], l2Rates[cell%len(l2Rates)]
				_, sp := obs.StartSpan(ctx, "ecc.concat_l2")
				res := c.ConcatenatedMonteCarloX(l2Level, p, l2Trials, l2Source(s, cell))
				sp.End()
				faults[cell] = res.LogicalFaults
			}
		}()
	}
	wg.Wait()
	return faults
}
