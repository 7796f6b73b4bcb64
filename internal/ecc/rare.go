package ecc

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
)

// Rare-event estimation on top of the bit-sliced batch engine.
//
// Below p ≈ 3e-4 the naive estimator needs billions of trials to observe a
// logical fault: at physical rate p a distance-3 code fails at ~O(p²).
// Importance sampling fixes the economics: sample error patterns at a tilted
// physical rate q > p where faults are common, and reweight each faulted
// trial by the likelihood ratio of its pattern under p versus q. For
// i.i.d. bit-flip noise that ratio depends only on the pattern's weight k,
//
//	w(k) = (p/q)^k · ((1-p)/(1-q))^(n-k),
//
// so the whole campaign reduces to an integer histogram of faulted trials
// by error weight. Integer histograms merge across blocks and workers by
// addition, which is what makes the floating-point estimate — computed once,
// in fixed order, from the merged histogram — byte-identical at any
// parallelism. The estimator is exactly unbiased for any q: E_q[w·1_fault] =
// P_p(fault), term by term over patterns.

// mcTiltRate is the tilted sampling rate of the rare-event estimator: far
// enough below threshold that the fault mix still reflects the low-p regime
// (weight-2 patterns dominate), high enough that faults arrive every few
// hundred trials. Rates at or above the tilt sample untilted (w ≡ 1).
const mcTiltRate = 0.02

// tiltRate returns the sampling rate the rare-event estimator uses for a
// target physical rate p. It is a pure function of p, part of the
// determinism contract.
func tiltRate(p float64) float64 {
	if p >= mcTiltRate {
		return p
	}
	return mcTiltRate
}

// weightHist counts faulted trials by error weight (n ≤ mcMaxQubits).
type weightHist [mcMaxQubits + 1]int64

// weightAt returns the likelihood ratio of a weight-k pattern under p
// versus the tilt q.
func weightAt(n, k int, p, q float64) float64 {
	if p == q {
		return 1
	}
	return math.Pow(p/q, float64(k)) * math.Pow((1-p)/(1-q), float64(n-k))
}

// rareFromHist turns a merged weight histogram into the estimate. All
// floating-point work happens here, once, in ascending-k order — the
// parallel paths only ever add integers.
func rareFromHist(n, minFaultWeight int, p, q float64, trials int, hist *weightHist) MonteCarloResult {
	res := MonteCarloResult{Trials: trials, PhysicalRate: p, TiltRate: q}
	var sumW, sumW2 float64
	for k := 0; k <= n; k++ {
		cnt := hist[k]
		if cnt == 0 {
			continue
		}
		res.LogicalFaults += int(cnt)
		w := weightAt(n, k, p, q)
		sumW += float64(cnt) * w
		sumW2 += float64(cnt) * w * w
	}
	if trials <= 0 {
		return res
	}
	T := float64(trials)
	mean := sumW / T
	res.LogicalRate = mean
	if v := sumW2/T - mean*mean; v > 0 {
		res.StdErr = math.Sqrt(v / T)
	}
	if res.LogicalFaults == 0 {
		// Rule of three at the tilt, mapped through the heaviest likelihood
		// ratio a faulting pattern can carry: a distance-d code needs at
		// least (d+1)/2 errors to fault, and w(k) decreases in k for p < q.
		res.RateBound = weightAt(n, minFaultWeight, p, q) * 3 / T
	} else {
		res.RateBound = res.LogicalRate + Z95*res.StdErr
	}
	return res
}

// sampleBatchHist is sampleBatch with weight accounting: faulted trials land
// in hist binned by error weight instead of a flat count. The per-block
// weight tally is a vertical (bit-sliced) counter: qubit lanes are summed
// into five carry-save bit planes, and only faulted trials de-transpose
// their 5-bit weight. Returns the faulted-trial count.
//
//cqla:noalloc
func (d *bitDecoder) sampleBatchHist(n int, pr *mcProb, lo, hi, trials int, seed int64, hist *weightHist) int {
	faults := 0
	var lanes [mcMaxQubits]uint64
	for b := lo; b < hi; b++ {
		s := mcStream{state: uint64(shardSeed(seed, b))}
		for q := 0; q < n; q++ {
			lanes[q] = pr.lanes(&s)
		}
		f := d.faultLanes(&lanes)
		if rem := trials - b*mcBatchLanes; rem < mcBatchLanes {
			f &= ^uint64(0) >> uint(mcBatchLanes-rem)
		}
		if f == 0 {
			continue
		}
		faults += bits.OnesCount64(f)
		var plane [5]uint64
		for q := 0; q < n; q++ {
			x := lanes[q]
			for j := 0; j < len(plane) && x != 0; j++ {
				carry := plane[j] & x
				plane[j] ^= x
				x = carry
			}
		}
		for m := f; m != 0; m &= m - 1 {
			t := uint(bits.TrailingZeros64(m))
			k := plane[0]>>t&1 |
				plane[1]>>t&1<<1 |
				plane[2]>>t&1<<2 |
				plane[3]>>t&1<<3 |
				plane[4]>>t&1<<4
			hist[k]++
		}
	}
	return faults
}

// sampleBatchHistParallel fans hist shards of blocks [lo, hi) across a
// worker pool and returns the merged histogram; shard histograms merge under
// a mutex by integer addition, so the merged histogram — and everything
// computed from it — is identical at any worker count. It owns its
// accumulator (the escape into the worker closures happens here), which
// keeps the serial kernel's callers allocation-free.
func (d *bitDecoder) sampleBatchHistParallel(n int, pr mcProb, lo, hi, trials int, seed int64, workers int) weightHist {
	var hist weightHist
	var mu sync.Mutex
	shards := (hi - lo + mcBatchShardBlocks - 1) / mcBatchShardBlocks
	sumShards(shards, workers, func(s int) int {
		slo := lo + s*mcBatchShardBlocks
		var local weightHist
		f := d.sampleBatchHist(n, &pr, slo, min(slo+mcBatchShardBlocks, hi), trials, seed, &local)
		mu.Lock()
		for k := range local {
			hist[k] += local[k]
		}
		mu.Unlock()
		return f
	})
	return hist
}

// estimateRare is Estimate's importance-sampled estimator on the full
// trial budget: sample at tiltRate(p), reweight from the merged histogram.
func (c *Code) estimateRare(p float64, trials int, seed int64, workers int) MonteCarloResult {
	q := tiltRate(p)
	var hist weightHist
	if trials > 0 {
		pr := makeProb(q)
		blocks := (trials + mcBatchLanes - 1) / mcBatchLanes
		if workers == 1 {
			c.bitX.sampleBatchHist(c.N, &pr, 0, blocks, trials, seed, &hist)
		} else {
			hist = c.bitX.sampleBatchHistParallel(c.N, pr, 0, blocks, trials, seed, workers)
		}
	}
	return rareFromHist(c.N, c.minFaultWeight(), p, q, trials, &hist)
}

// minFaultWeight is the smallest error weight that can defeat the decoder:
// (d+1)/2 for a distance-d code.
func (c *Code) minFaultWeight() int { return (c.D + 1) / 2 }

// AdaptiveOptions configures the adaptive trial allocator.
type AdaptiveOptions struct {
	// Budget is the global trial budget shared by all points (default 1e6).
	Budget int
	// Chunk is the trial grant per allocation step, rounded up to a whole
	// number of 64-trial blocks (default 65536).
	Chunk int
	// TargetRelCI is the relative confidence-interval width at which a
	// point counts as resolved (default 0.10).
	TargetRelCI float64
	// Workers bounds the parallelism inside each grant (0 = GOMAXPROCS).
	// The allocation sequence and every estimate are identical at any
	// setting.
	Workers int
}

func (o AdaptiveOptions) withDefaults() AdaptiveOptions {
	if o.Budget <= 0 {
		o.Budget = 1000000
	}
	if o.Chunk <= 0 {
		o.Chunk = 65536
	}
	o.Chunk = (o.Chunk + mcBatchLanes - 1) / mcBatchLanes * mcBatchLanes
	if o.TargetRelCI <= 0 {
		o.TargetRelCI = DefaultTargetRelCI
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// AdaptivePoint is one physical rate's share of an adaptive campaign.
type AdaptivePoint struct {
	PhysicalRate float64
	Result       MonteCarloResult
}

// AdaptiveMonteCarloX spreads a global trial budget across physical-rate
// points, always feeding the point whose relative confidence interval is
// widest, and stops early once every point is resolved to the target. Each
// point continues its own seeded block sequence across grants, and grant
// decisions depend only on accumulated integer histograms, so the whole
// campaign — allocation sequence included — is reproducible at any worker
// count. Points that have not yet faulted count as maximally unresolved and
// round-robin by spent trials, so a pathologically quiet point cannot
// starve the rest of the sweep.
func (c *Code) AdaptiveMonteCarloX(rates []float64, seed int64, opt AdaptiveOptions) []AdaptivePoint {
	opt = opt.withDefaults()
	pts := make([]AdaptivePoint, len(rates))
	for i, p := range rates {
		pts[i].PhysicalRate = p
		pts[i].Result = rareFromHist(c.N, c.minFaultWeight(), p, tiltRate(p), 0, &weightHist{})
	}
	if len(rates) == 0 {
		return pts
	}
	d := &c.bitX
	d.requireBatch(c.Name)
	hists := make([]weightHist, len(rates))
	spent := 0
	grant := func(i, g int) {
		p := rates[i]
		q := tiltRate(p)
		pr := makeProb(q)
		lo := pts[i].Result.Trials / mcBatchLanes
		hi := lo + g/mcBatchLanes
		trials := pts[i].Result.Trials + g
		h := d.sampleBatchHistParallel(c.N, pr, lo, hi, trials, shardSeed(seed, i), opt.Workers)
		for k := range h {
			hists[i][k] += h[k]
		}
		pts[i].Result = rareFromHist(c.N, c.minFaultWeight(), p, q, trials, &hists[i])
		spent += g
	}
	for spent < opt.Budget {
		g := opt.Budget - spent
		if g > opt.Chunk {
			g = opt.Chunk
		}
		g = g / mcBatchLanes * mcBatchLanes
		if g == 0 {
			break
		}
		// Seeding pass: every point gets one chunk, in order, before the
		// allocator starts chasing the widest interval.
		best := -1
		for i := range pts {
			if pts[i].Result.Trials == 0 {
				best = i
				break
			}
		}
		if best < 0 {
			bestPri := math.Inf(-1)
			for i := range pts {
				r := pts[i].Result
				if r.Resolved(opt.TargetRelCI) {
					continue
				}
				pri := r.RelCI()
				if best < 0 || pri > bestPri ||
					(pri == bestPri && r.Trials < pts[best].Result.Trials) {
					best, bestPri = i, pri
				}
			}
			if best < 0 {
				break // every point resolved: stop early, return the budget
			}
		}
		grant(best, g)
	}
	return pts
}
