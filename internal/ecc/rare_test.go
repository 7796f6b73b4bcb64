package ecc

import (
	"math"
	"runtime"
	"testing"
)

// TestRareUntiltedMatchesBatch pins the estimator's p == q degenerate case:
// at a rate above the tilt floor the rare estimator samples untilted from
// the same per-block streams as the batch engine, so its raw fault count
// must equal the bit-sliced estimator's exactly and its estimate must be
// the plain fault fraction.
func TestRareUntiltedMatchesBatch(t *testing.T) {
	const (
		p      = 0.05
		trials = 2*mcShardTrials + 91
		seed   = 17
	)
	for _, c := range Codes() {
		b := c.Estimate(Spec{Estimator: EstimatorBitSliced, P: p, Trials: trials, Seed: seed})
		r := c.Estimate(Spec{Estimator: EstimatorRare, P: p, Trials: trials, Seed: seed})
		if r.TiltRate != p {
			t.Errorf("%s: tilt %g for p=%g above the floor", c.Name, r.TiltRate, p)
		}
		if r.LogicalFaults != b.LogicalFaults {
			t.Errorf("%s: untilted rare saw %d faults, batch saw %d", c.Name, r.LogicalFaults, b.LogicalFaults)
		}
		if want := b.LogicalRate; r.LogicalRate != want {
			t.Errorf("%s: untilted rare estimate %g, batch rate %g", c.Name, r.LogicalRate, want)
		}
	}
}

// TestRareUnbiasedAgainstNaive is the statistical heart of the satellite:
// at a physical rate the naive estimator can resolve, the tilted
// importance-sampled estimate must agree with the naive estimate within
// combined counting error. p = 0.01 sits below the tilt floor, so the rare
// estimator genuinely samples at q = 0.02 and reweights.
func TestRareUnbiasedAgainstNaive(t *testing.T) {
	const (
		p      = 0.01
		trials = 400000
		seed   = 8
	)
	for _, c := range Codes() {
		naive := c.Estimate(Spec{Estimator: EstimatorBitSliced, P: p, Trials: trials, Seed: seed})
		rare := c.Estimate(Spec{Estimator: EstimatorRare, P: p, Trials: trials, Seed: seed + 1}) // independent streams
		if rare.TiltRate != mcTiltRate {
			t.Fatalf("%s: expected tilted sampling at %g, got %g", c.Name, mcTiltRate, rare.TiltRate)
		}
		nr := naive.LogicalRate
		naiveSE := math.Sqrt(nr * (1 - nr) / trials)
		se := math.Hypot(naiveSE, rare.StdErr)
		if diff := math.Abs(nr - rare.LogicalRate); diff > 6*se {
			t.Errorf("%s: naive %g vs importance-sampled %g differ by %.1f combined standard errors",
				c.Name, nr, rare.LogicalRate, diff/se)
		}
		if !rare.Resolved(0.1) {
			t.Errorf("%s: rare estimator unresolved at p=%g over %d trials: relCI=%g",
				c.Name, p, trials, rare.RelCI())
		}
	}
}

// TestRareResolvesDeepPoints is the acceptance criterion of the tentpole's
// statistics layer: at p = 1e-5 — where the naive estimator would need
// ~10^11 trials — the adaptive rare-event estimator must deliver a relative
// CI of at most 10% well inside the 1M-trial budget.
func TestRareResolvesDeepPoints(t *testing.T) {
	for _, c := range Codes() {
		pts := c.AdaptiveMonteCarloX([]float64{1e-5}, 42, AdaptiveOptions{Budget: 1000000})
		r := pts[0].Result
		if !r.Resolved(0.1) {
			t.Fatalf("%s: p=1e-5 unresolved after %d trials: relCI=%g", c.Name, r.Trials, r.RelCI())
		}
		if r.Trials >= 1000000 {
			t.Errorf("%s: early stopping never kicked in (%d trials)", c.Name, r.Trials)
		}
		// The estimate must sit in the physically sensible range: below the
		// physical rate (error correction helps at 1e-5) and above zero.
		if r.LogicalRate <= 0 || r.LogicalRate >= 1e-5 {
			t.Errorf("%s: implausible logical rate %g at p=1e-5", c.Name, r.LogicalRate)
		}
	}
}

// TestAdaptiveAllocation exercises the global allocator: a mixed sweep
// must resolve every point within budget, spend more trials on harder
// points only while they are unresolved, stop early, and allocate
// identically at any worker count.
func TestAdaptiveAllocation(t *testing.T) {
	c := Steane()
	rates := []float64{3e-3, 1e-4, 1e-5}
	opt := AdaptiveOptions{Budget: 1000000, Workers: 1}
	pts := c.AdaptiveMonteCarloX(rates, 7, opt)
	total := 0
	for i, pt := range pts {
		r := pt.Result
		if pt.PhysicalRate != rates[i] {
			t.Errorf("point %d echoes rate %g", i, pt.PhysicalRate)
		}
		if !r.Resolved(0.1) {
			t.Errorf("p=%g unresolved: relCI=%g after %d trials", pt.PhysicalRate, r.RelCI(), r.Trials)
		}
		if r.Trials%mcBatchLanes != 0 {
			t.Errorf("p=%g: %d trials is not a whole number of blocks", pt.PhysicalRate, r.Trials)
		}
		total += r.Trials
	}
	if total > opt.Budget {
		t.Errorf("allocator overspent: %d > %d", total, opt.Budget)
	}
	if total == opt.Budget {
		t.Error("allocator never stopped early on a fully resolved sweep")
	}
	for _, w := range []int{4, runtime.NumCPU()} {
		opt.Workers = w
		got := c.AdaptiveMonteCarloX(rates, 7, opt)
		for i := range got {
			if got[i] != pts[i] {
				t.Errorf("workers=%d: point %d differs: %+v vs %+v", w, i, got[i], pts[i])
			}
		}
	}
}

// TestAdaptiveDegenerateInputs covers the allocator's edges: no points, a
// zero budget smaller than one block, and a seed change steering every
// stream.
func TestAdaptiveDegenerateInputs(t *testing.T) {
	c := BaconShor()
	if pts := c.AdaptiveMonteCarloX(nil, 1, AdaptiveOptions{}); len(pts) != 0 {
		t.Errorf("no rates produced %d points", len(pts))
	}
	pts := c.AdaptiveMonteCarloX([]float64{1e-3}, 1, AdaptiveOptions{Budget: 63})
	if got := pts[0].Result.Trials; got != 0 {
		t.Errorf("sub-block budget spent %d trials", got)
	}
	a := c.AdaptiveMonteCarloX([]float64{1e-4}, 1, AdaptiveOptions{Budget: 1 << 17})
	b := c.AdaptiveMonteCarloX([]float64{1e-4}, 2, AdaptiveOptions{Budget: 1 << 17})
	if a[0].Result.LogicalFaults == b[0].Result.LogicalFaults && a[0].Result.LogicalRate == b[0].Result.LogicalRate {
		t.Error("different seeds produced identical adaptive results")
	}
}

// TestRareHistKernelAllocationFree pins the importance-sampling kernel to
// the same steady-state contract as the plain batch path, and a one-worker
// rare Estimate around it.
func TestRareHistKernelAllocationFree(t *testing.T) {
	for _, c := range Codes() {
		pr := makeProb(tiltRate(1e-4))
		var hist weightHist
		if avg := testing.AllocsPerRun(50, func() {
			c.bitX.sampleBatchHist(c.N, &pr, 0, 4096/mcBatchLanes, 4096, 21, &hist)
		}); avg != 0 {
			t.Errorf("%s: weight-histogram kernel allocates %.1f times per run, want 0", c.Name, avg)
		}
		spec := Spec{Estimator: EstimatorRare, P: 1e-4, Trials: 4096, Seed: 21, Workers: 1}
		if avg := testing.AllocsPerRun(50, func() { c.Estimate(spec) }); avg != 0 {
			t.Errorf("%s: one-worker rare Estimate allocates %.1f times per run, want 0", c.Name, avg)
		}
	}
}
