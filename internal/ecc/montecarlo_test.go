package ecc

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gf2"
)

// TestBitDecoderMatchesLookup pins the hot-path bit decoder to the
// reference vector implementation over the complete error space: for every
// one of the 2^N X- and Z-error patterns of both codes, the packed decode
// must agree with CorrectX/CorrectZ on whether the pattern is a logical
// fault. This is the exhaustive guarantee that the Monte Carlo rework
// changed the speed of decoding, not its meaning.
func TestBitDecoderMatchesLookup(t *testing.T) {
	for _, c := range Codes() {
		for e := uint64(0); e < 1<<uint(c.N); e++ {
			v := gf2.NewVec(c.N)
			for q := 0; q < c.N; q++ {
				if e>>uint(q)&1 == 1 {
					v.Set(q, true)
				}
			}
			_, wantX := c.CorrectX(v)
			if got := c.bitX.fault(e); got != wantX {
				t.Fatalf("%s: bitX.fault(%0*b) = %v, CorrectX says %v", c.Name, c.N, e, got, wantX)
			}
			_, wantZ := c.CorrectZ(v)
			if got := c.bitZ.fault(e); got != wantZ {
				t.Fatalf("%s: bitZ.fault(%0*b) = %v, CorrectZ says %v", c.Name, c.N, e, got, wantZ)
			}
		}
	}
}

// TestMonteCarloTrialLoopAllocationFree is the before/after assertion of
// the hot-loop fix: the decoder setup (check rows, syndrome table, logical
// mask) is hoisted into the Code at construction, so the per-trial work —
// error sampling, syndrome extraction, table decode, logical-fault test —
// must not allocate at all. The old implementation allocated four times
// per trial (error vector, syndrome vector, two correction clones).
func TestMonteCarloTrialLoopAllocationFree(t *testing.T) {
	for _, c := range Codes() {
		rng := rand.New(rand.NewSource(11))
		if avg := testing.AllocsPerRun(50, func() {
			c.bitX.sample(c.N, 0.01, 200, rng)
		}); avg != 0 {
			t.Errorf("%s: naive trial loop allocates %.1f times per 200-trial run, want 0", c.Name, avg)
		}
		if avg := testing.AllocsPerRun(50, func() {
			c.ConcatenatedMonteCarloX(2, 0.01, 20, rng)
		}); avg != 0 {
			t.Errorf("%s: ConcatenatedMonteCarloX allocates %.1f times per 20-trial run, want 0", c.Name, avg)
		}
	}
}

// estimateRow is one determinism case: spec run on each of codes. A live
// row must observe faults, or its identity check is vacuous.
type estimateRow struct {
	name  string
	codes []*Code
	spec  Spec
	live  bool
}

// raggedTrials spans several shards plus a ragged tail, so the shard
// layout itself is exercised.
const raggedTrials = 3*mcShardTrials + 517

// emptyRows are the zero and negative budgets, which every estimator
// clamps to an empty campaign.
func emptyRows(est Estimator) []estimateRow {
	var rows []estimateRow
	for _, trials := range []int{0, -5} {
		rows = append(rows, estimateRow{"empty", []*Code{BaconShor()}, Spec{Estimator: est, P: 0.1, Trials: trials, Seed: 5}, false})
	}
	return rows
}

// checkEstimateRows is the table behind the determinism tests below and
// the contract the explore runner's byte-identical-JSON guarantee rests
// on, for every estimator: the same Spec returns the identical result at
// 1, 4 and NumCPU workers and at the GOMAXPROCS default, spends exactly
// its (clamped) budget, and never reports more faults than trials. CI
// runs these tests under -race, which also vets the worker pools' sharing
// discipline.
func checkEstimateRows(t *testing.T, rows []estimateRow) {
	t.Helper()
	for _, r := range rows {
		for _, c := range r.codes {
			spec := r.spec
			spec.Workers = 1
			base := c.Estimate(spec)
			for _, w := range []int{4, runtime.NumCPU(), 0} {
				spec.Workers = w
				if got := c.Estimate(spec); got != base {
					t.Errorf("%s %s trials=%d: result differs at %d workers: %+v vs %+v",
						r.name, c.Name, spec.Trials, w, got, base)
				}
			}
			if want := max(spec.Trials, 0); base.Trials != want {
				t.Errorf("%s %s trials=%d: result spent %d trials, want %d", r.name, c.Name, spec.Trials, base.Trials, want)
			}
			if base.LogicalFaults > base.Trials {
				t.Errorf("%s %s trials=%d: %d faults exceed the budget (tail mask broken)",
					r.name, c.Name, spec.Trials, base.LogicalFaults)
			}
			if r.live && base.LogicalFaults == 0 {
				t.Errorf("%s %s: no faults at p=%g over %d trials; the row is vacuous", r.name, c.Name, spec.P, spec.Trials)
			}
			if base.Trials == 0 && (base.LogicalFaults != 0 || base.LogicalRate != 0) {
				t.Errorf("%s %s trials=%d: empty budget reports %+v", r.name, c.Name, spec.Trials, base)
			}
			if base.Trials > 0 && spec.Estimator != EstimatorRare {
				if want := float64(base.LogicalFaults) / float64(base.Trials); base.LogicalRate != want {
					t.Errorf("%s %s: LogicalRate %v, want the fault fraction %v", r.name, c.Name, base.LogicalRate, want)
				}
			}
		}
	}
}

// checkZWorkers holds the Z-basis decoder to the same worker-identity
// contract: Estimate samples X errors only, so the Z side of each shared
// pool is driven through its unexported fault counter.
func checkZWorkers[R comparable](t *testing.T, name string, run func(c *Code, workers int) R) {
	t.Helper()
	for _, c := range Codes() {
		base := run(c, 1)
		for _, w := range []int{4, runtime.NumCPU(), runtime.GOMAXPROCS(0)} {
			if got := run(c, w); got != base {
				t.Errorf("%s %s: Z result differs at %d workers: %v vs %v", name, c.Name, w, got, base)
			}
		}
	}
}

// TestMonteCarloSeededParallelDeterminism: the naive estimator over a
// ragged multi-shard budget, in both bases.
func TestMonteCarloSeededParallelDeterminism(t *testing.T) {
	checkEstimateRows(t, []estimateRow{
		{"naive/ragged", Codes(), Spec{P: 0.02, Trials: raggedTrials, Seed: 99}, true},
	})
	checkZWorkers(t, "naive/ragged", func(c *Code, w int) int {
		return c.bitZ.seededFaults(c.N, 0.02, raggedTrials, 99, w)
	})
}

// TestMonteCarloSeededDegenerateBudgets covers the naive shard-layout
// edges: zero and negative budgets, a sub-shard budget and exact
// multiples of the shard size.
func TestMonteCarloSeededDegenerateBudgets(t *testing.T) {
	rows := emptyRows(EstimatorNaive)
	for _, trials := range []int{1, 37, mcShardTrials, 2 * mcShardTrials} {
		rows = append(rows, estimateRow{"naive/edge", []*Code{BaconShor()}, Spec{P: 0.1, Trials: trials, Seed: 7}, false})
	}
	checkEstimateRows(t, rows)
}

// TestMonteCarloBatchParallelDeterminism: the bit-sliced estimator over a
// budget with a ragged 64-trial tail block, in both bases.
func TestMonteCarloBatchParallelDeterminism(t *testing.T) {
	checkEstimateRows(t, []estimateRow{
		{"bitsliced/ragged", Codes(), Spec{Estimator: EstimatorBitSliced, P: 0.02, Trials: raggedTrials, Seed: 99}, true},
	})
	checkZWorkers(t, "bitsliced/ragged", func(c *Code, w int) int {
		return c.bitZ.batchFaults(c.N, 0.02, raggedTrials, 99, w)
	})
}

// TestMonteCarloBatchDegenerateBudgets covers the block-layout edges: zero
// and negative budgets, sub-block budgets, exact block and shard
// multiples. Tail masking must make a 37-trial budget mean exactly 37
// trials, and at p=1 a 1-trial budget contribute at most one fault.
func TestMonteCarloBatchDegenerateBudgets(t *testing.T) {
	rows := emptyRows(EstimatorBitSliced)
	for _, trials := range []int{1, 37, mcBatchLanes, mcBatchLanes + 1, mcShardTrials, 2*mcShardTrials + 63} {
		rows = append(rows, estimateRow{"bitsliced/edge", []*Code{BaconShor()}, Spec{Estimator: EstimatorBitSliced, P: 0.1, Trials: trials, Seed: 7}, false})
	}
	rows = append(rows, estimateRow{"bitsliced/p=1", []*Code{BaconShor()}, Spec{Estimator: EstimatorBitSliced, P: 1, Trials: 1, Seed: 9}, false})
	checkEstimateRows(t, rows)
}

// TestRareParallelDeterminism extends the contract to the
// importance-sampled estimator: the full result — estimate, standard error
// and bound included — must be identical at any worker count, because
// every float is computed once from the merged integer histogram. The Z
// side pins the merged histogram itself.
func TestRareParallelDeterminism(t *testing.T) {
	rows := []estimateRow{
		{"rare/ragged", Codes(), Spec{Estimator: EstimatorRare, P: 1e-4, Trials: raggedTrials, Seed: 99}, true},
	}
	checkEstimateRows(t, append(rows, emptyRows(EstimatorRare)...))
	checkZWorkers(t, "rare/ragged", func(c *Code, w int) weightHist {
		blocks := (raggedTrials + mcBatchLanes - 1) / mcBatchLanes
		pr := makeProb(tiltRate(1e-4))
		if w == 1 {
			var hist weightHist
			c.bitZ.sampleBatchHist(c.N, &pr, 0, blocks, raggedTrials, 99, &hist)
			return hist
		}
		return c.bitZ.sampleBatchHistParallel(c.N, pr, 0, blocks, raggedTrials, 99, w)
	})
}

// TestMonteCarloZSeededMatchesParallel covers the Z-side seeded fault
// counter: serial and pooled runs agree, and the resulting rate is a
// probability. An empty campaign reports a zero rate.
func TestMonteCarloZSeededMatchesParallel(t *testing.T) {
	c := BaconShor()
	serial := c.bitZ.seededFaults(c.N, 0.02, 9000, 3, 1)
	pooled := c.bitZ.seededFaults(c.N, 0.02, 9000, 3, runtime.GOMAXPROCS(0))
	if serial != pooled {
		t.Errorf("Z-side seeded counts differ: serial %d, pooled %d", serial, pooled)
	}
	if r := binomial(0.02, 9000, serial).LogicalRate; r < 0 || r > 1 {
		t.Errorf("logical rate %v outside [0,1]", r)
	}
	if binomial(0.02, 0, 0).LogicalRate != 0 {
		t.Error("zero-trial LogicalRate should be 0")
	}
}

// TestMonteCarloSeededSeedSensitivity guards the opposite failure: the
// seed must actually steer the naive estimator's shard streams.
func TestMonteCarloSeededSeedSensitivity(t *testing.T) {
	c := Steane()
	a := c.Estimate(Spec{P: 0.05, Trials: 2 * mcShardTrials, Seed: 1})
	b := c.Estimate(Spec{P: 0.05, Trials: 2 * mcShardTrials, Seed: 2})
	if a == b {
		t.Error("different seeds produced identical Monte Carlo counts")
	}
}
