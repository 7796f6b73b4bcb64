package perf

// MeasuredFunctions maps each registered benchmark to the fully
// qualified functions whose allocation behavior the benchmark certifies.
// The budget-aware noalloc analyzer (internal/lint) joins this table
// with a BENCH.json document: a benchmark measuring 0 allocs/op requires
// `//cqla:noalloc` on its functions, and a mapped directive whose
// benchmark now allocates is stale. Keeping the table next to the
// registry — and pinned against it by TestMeasuredFunctionsSchema —
// means renaming a benchmark breaks the build instead of silently
// dropping a budget.
//
// Symbols use the lint grammar: "import/path.Func",
// "import/path.(*Type).Method" or "import/path.(Type).Method".
func MeasuredFunctions() map[string][]string {
	return map[string][]string{
		"AnalyticAdder256":    {"repro/internal/arch.(analyticEngine).Evaluate"},
		"BuildDAG":            {"repro/internal/circuit.BuildDAG"},
		"BuildDAGInto":        {"repro/internal/circuit.BuildDAGInto"},
		"CompileOnceEvalMany": {"repro/internal/arch.(simEngine).Evaluate"},
		"ConcatenatedMCLevel2": {
			"repro/internal/ecc.(*Code).ConcatenatedMonteCarloX",
		},
		"ConcatenatedMCLevel2Steane": {
			"repro/internal/ecc.(*Code).ConcatenatedMonteCarloX",
		},
		// Both one-shot simulations build a fresh Runner arena per run, so
		// they are certified through NewRunner, which allocates.
		"DES64BitAdder":          {"repro/internal/des.NewRunner"},
		"DESEventLoop64BitAdder": {"repro/internal/des.NewRunner"},
		"DESRunnerReuse":         {"repro/internal/des.(*Runner).Run"},
		"ExplorePareto":          {"repro/internal/explore.Run"},
		// The bit-sliced campaign is certified through its three kernels:
		// the transposed sampler/decoder, the logical-fault reduction and
		// the cached Bernoulli lane generator.
		"MonteCarloBitSliced": {
			"repro/internal/ecc.(*bitDecoder).sampleBatch",
			"repro/internal/ecc.(*bitDecoder).faultLanes",
			"repro/internal/ecc.(*mcProb).lanes",
		},
		"MonteCarloRareEvent": {
			"repro/internal/ecc.(*bitDecoder).sampleBatchHist",
		},
		// Both naive benchmarks run through the Estimate dispatcher, which
		// allocates (one rng per shard), so it carries no directive.
		"MonteCarloXSeeded":       {"repro/internal/ecc.(*Code).Estimate"},
		"MonteCarloXSeededSerial": {"repro/internal/ecc.(*Code).Estimate"},
		"PublicDecode": {
			"repro/internal/ecc.(*Code).SyndromeX",
			"repro/internal/ecc.(*Code).DecodeX",
		},
		// ListSchedule allocates its per-call tables: no directive.
		"Schedule1024Adder100Blocks": {"repro/internal/sched.ListSchedule"},
		// Mappable since gf2.Vec went inline-word: the (Vec, bool) return
		// that used to escape in the caller is now a plain value.
		"SyndromeDecodeSteane": {"repro/internal/ecc.(*Code).CorrectX"},
	}
}
