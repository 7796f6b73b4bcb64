package ecc

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/gf2"
)

// Confidence-interval conventions shared by every estimate and by the
// sweeps built on them.
const (
	// Z95 is the normal quantile behind every confidence-interval field:
	// 1.96 standard errors ≈ a 95% interval.
	Z95 = 1.96
	// DefaultTargetRelCI is the relative 95% CI half-width at which an
	// estimate counts as resolved.
	DefaultTargetRelCI = 0.10
)

// Estimator selects the sampling engine behind Estimate.
type Estimator int

const (
	// EstimatorNaive samples one trial per decode from seeded math/rand
	// shard streams. Its stream consumption, and therefore its counts,
	// are frozen.
	EstimatorNaive Estimator = iota
	// EstimatorBitSliced runs the same experiment on the transposed batch
	// engine (bitslice.go): 64 trials per word operation, with its own
	// equally deterministic per-block streams.
	EstimatorBitSliced
	// EstimatorRare samples on the batch engine at a tilted physical rate
	// and reweights by likelihood ratio (rare.go), resolving logical rates
	// far below 1/Trials.
	EstimatorRare
)

// Spec describes one X-error Monte Carlo campaign on a code block.
type Spec struct {
	Estimator Estimator
	P         float64 // physical X-error rate per qubit
	Trials    int     // trial budget; values below zero mean zero
	Seed      int64
	// Workers bounds the campaign's parallelism (0 or less selects
	// GOMAXPROCS). The result is identical at any setting.
	Workers int
}

// MonteCarloResult summarizes a Pauli-frame error-injection campaign.
type MonteCarloResult struct {
	Trials        int     // trials spent
	PhysicalRate  float64 // rate p the estimate is for
	TiltRate      float64 // rate the patterns were sampled at (p unless importance-sampled)
	LogicalFaults int     // raw faulted trials observed at TiltRate
	LogicalRate   float64 // estimate of the logical fault probability at p
	StdErr        float64 // standard error of LogicalRate
	RateBound     float64 // 95% upper bound on the logical rate (rule of three when no faults)
}

// RelCI returns the half-width of the 95% confidence interval relative to
// the estimate (+Inf when no faults were observed).
func (r MonteCarloResult) RelCI() float64 {
	if r.LogicalRate <= 0 {
		return math.Inf(1)
	}
	return Z95 * r.StdErr / r.LogicalRate
}

// Resolved reports whether the estimate is statistically resolved: at least
// one fault observed and a relative CI no wider than target.
func (r MonteCarloResult) Resolved(target float64) bool {
	return r.LogicalFaults > 0 && r.RelCI() <= target
}

// binomial is the result of an untilted campaign: faults logical faults in
// trials independent draws at p, with the binomial standard error.
func binomial(p float64, trials, faults int) MonteCarloResult {
	r := MonteCarloResult{Trials: trials, PhysicalRate: p, TiltRate: p, LogicalFaults: faults}
	if trials <= 0 {
		return r
	}
	T := float64(trials)
	r.LogicalRate = float64(faults) / T
	r.StdErr = math.Sqrt(r.LogicalRate * (1 - r.LogicalRate) / T)
	if faults == 0 {
		r.RateBound = 3 / T
	} else {
		r.RateBound = r.LogicalRate + Z95*r.StdErr
	}
	return r
}

// Estimate injects independent X errors with probability s.P on each
// physical qubit of one code block, runs the decoder, and estimates the
// logical fault rate. It is a code-capacity (perfect-syndrome-extraction)
// model: enough to validate the distance of the code and the quadratic
// suppression of logical errors below threshold, which is what the
// concatenation math of the architecture model relies on.
//
// Every estimator splits the budget into fixed-size shards whose streams
// are derived from (s.Seed, shard index) alone and fans them across a
// worker pool. The shard layout depends only on s.Trials, and shard
// results merge by integer addition, so the same Spec returns the same
// result at any worker count, mirroring the explore runner's determinism
// contract.
func (c *Code) Estimate(s Spec) MonteCarloResult {
	trials := max(s.Trials, 0)
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	d := &c.bitX
	if s.Estimator != EstimatorNaive && trials > 0 {
		d.requireBatch(c.Name)
	}
	switch s.Estimator {
	case EstimatorNaive:
		return binomial(s.P, trials, d.seededFaults(c.N, s.P, trials, s.Seed, workers))
	case EstimatorBitSliced:
		return binomial(s.P, trials, d.batchFaults(c.N, s.P, trials, s.Seed, workers))
	case EstimatorRare:
		return c.estimateRare(s.P, trials, s.Seed, workers)
	}
	panic("ecc: unknown estimator")
}

// sample runs trials independent injection+decode rounds on one rng stream
// and returns the logical-fault count. It is the naive inner loop: error
// masks are built bit by bit (one Float64 per qubit, preserving the
// historical stream consumption) and decoded without allocating.
//
//cqla:noalloc
func (d *bitDecoder) sample(n int, p float64, trials int, rng *rand.Rand) int {
	faults := 0
	for t := 0; t < trials; t++ {
		var e uint64
		for q := 0; q < n; q++ {
			if rng.Float64() < p {
				e |= 1 << uint(q)
			}
		}
		if d.fault(e) {
			faults++
		}
	}
	return faults
}

// mcShardTrials is the fixed shard size of the naive estimator. The shard
// layout is a pure function of the trial budget, which is what makes the
// parallel result reproducible: workers race over shard indices, not trial
// ranges.
const mcShardTrials = 4096

// seededFaults is the naive estimator's fault count: shard s samples its
// trials from a math/rand stream seeded by shardSeed(seed, s).
func (d *bitDecoder) seededFaults(n int, p float64, trials int, seed int64, workers int) int {
	shards := (trials + mcShardTrials - 1) / mcShardTrials
	return sumShards(shards, workers, func(s int) int {
		size := min(mcShardTrials, trials-s*mcShardTrials)
		return d.sample(n, p, size, rand.New(rand.NewSource(shardSeed(seed, s))))
	})
}

// sumShards returns the sum of shard(s) over s in [0, shards), fanned
// across up to workers goroutines that claim shard indices from a shared
// counter. Integer addition commutes, so the sum is identical at any
// worker count; only wall-clock time changes.
func sumShards(shards, workers int, shard func(s int) int) int {
	if workers > shards {
		workers = shards
	}
	if workers <= 1 {
		total := 0
		for s := 0; s < shards; s++ {
			total += shard(s)
		}
		return total
	}
	var next, total atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := int(next.Add(1)) - 1; s < shards; s = int(next.Add(1)) - 1 {
				total.Add(int64(shard(s)))
			}
		}()
	}
	wg.Wait()
	return int(total.Load())
}

// shardSeed derives the shard's private seed from the base seed and the
// shard index with a splitmix64 finalizer, so neighbouring shards (and
// neighbouring base seeds) get decorrelated streams.
func shardSeed(seed int64, shard int) int64 {
	v := uint64(seed)*0x9e3779b97f4a7c15 + uint64(shard) + 1
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return int64(v)
}

// CorrectsAllWeight1 exhaustively verifies that every single-qubit X and Z
// error is corrected without a logical fault — the operational meaning of
// distance 3.
func (c *Code) CorrectsAllWeight1() bool {
	for q := 0; q < c.N; q++ {
		e := gf2.NewVec(c.N)
		e.Set(q, true)
		if _, fault := c.CorrectX(e); fault {
			return false
		}
		if _, fault := c.CorrectZ(e); fault {
			return false
		}
	}
	return true
}

// Weight2FailureCount returns how many of the C(n,2) weight-2 X errors
// produce a logical fault after decoding. For a distance-3 code this must
// be nonzero (some weight-2 errors are miscorrected into logical
// operators), which is what bounds the code to single-error correction.
func (c *Code) Weight2FailureCount() int {
	fails := 0
	for i := 0; i < c.N; i++ {
		for j := i + 1; j < c.N; j++ {
			e := gf2.NewVec(c.N)
			e.Set(i, true)
			e.Set(j, true)
			if _, fault := c.CorrectX(e); fault {
				fails++
			}
		}
	}
	return fails
}
