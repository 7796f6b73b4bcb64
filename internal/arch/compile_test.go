package arch_test

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
)

// TestCompiledEvaluationIsByteIdentical is the cache-transparency
// contract: for both engines and every workload kind, a workload bound to
// a plan shared across machines (CompileWith, exactly what explore's
// per-sweep cache does) evaluates to a byte-identical Result envelope to a
// fresh per-machine Compile.
func TestCompiledEvaluationIsByteIdentical(t *testing.T) {
	ctx := context.Background()
	workloads := []arch.Workload{
		arch.NewAdder(32, false),
		arch.NewAdder(32, true),
		arch.NewModExp(32),
		arch.NewQFT(24),
	}
	machines := make([]*arch.Machine, 2)
	for i, blocks := range []int{9, 16} {
		m, err := arch.New(arch.WithCodeName("bacon-shor"), arch.WithBlocks(blocks))
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = m
	}
	for _, w := range workloads {
		plan, err := arch.PlanWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range machines {
			for _, engine := range arch.EngineNames() {
				eng, err := m.Engine(engine)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := evaluate(ctx, m, eng, w)
				if err != nil {
					t.Fatalf("%s fresh Compile(%s/%d): %v", engine, w.Kind, w.Bits, err)
				}
				cw, err := m.CompileWith(w, plan)
				if err != nil {
					t.Fatalf("CompileWith(%s/%d): %v", w.Kind, w.Bits, err)
				}
				var shared arch.Result
				if err := eng.Evaluate(ctx, cw, &shared); err != nil {
					t.Fatalf("%s Evaluate(%s/%d): %v", engine, w.Kind, w.Bits, err)
				}
				fj, _ := json.Marshal(fresh)
				sj, _ := json.Marshal(shared)
				if string(fj) != string(sj) {
					t.Errorf("%s %s/%d: shared-plan evaluation diverges\n fresh:  %s\n shared: %s",
						engine, w.Kind, w.Bits, fj, sj)
				}
				// Evaluate-many on one compiled workload must be stable.
				var again arch.Result
				if err := eng.Evaluate(ctx, cw, &again); err != nil {
					t.Fatal(err)
				}
				aj, _ := json.Marshal(again)
				if string(aj) != string(sj) {
					t.Errorf("%s %s/%d: repeated compiled evaluation drifts", engine, w.Kind, w.Bits)
				}
			}
		}
	}
}

// TestCompileRejectsForeignAndMismatched pins the safety rails: a compiled
// workload evaluated on another machine's engine errors, and a plan bound
// to the wrong workload errors.
func TestCompileRejectsForeignAndMismatched(t *testing.T) {
	m1, err := arch.New()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := arch.New(arch.WithBlocks(9))
	if err != nil {
		t.Fatal(err)
	}
	cw, err := m1.Compile(arch.NewAdder(16, false))
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range arch.EngineNames() {
		eng, err := m2.Engine(engine)
		if err != nil {
			t.Fatal(err)
		}
		var sink arch.Result
		if err := eng.Evaluate(context.Background(), cw, &sink); err == nil {
			t.Errorf("%s: evaluating another machine's compiled workload did not error", engine)
		}
		if err := eng.Evaluate(context.Background(), nil, &sink); err == nil {
			t.Errorf("%s: evaluating a nil compiled workload did not error", engine)
		}
	}
	plan, err := arch.PlanWorkload(arch.NewAdder(16, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.CompileWith(arch.NewAdder(32, false), plan); err == nil {
		t.Error("binding a 16-bit plan to a 32-bit workload did not error")
	}
	if _, err := m1.CompileWith(arch.NewQFT(16), plan); err == nil {
		t.Error("binding an adder plan to a QFT workload did not error")
	}
	if _, err := m1.CompileWith(arch.NewAdder(16, false), nil); err == nil {
		t.Error("binding a nil plan did not error")
	}
	// Adder and modexp share the carry-lookahead kernel by design.
	if _, err := m1.CompileWith(arch.NewModExp(16), plan); err != nil {
		t.Errorf("binding an adder plan to a modexp workload errored: %v", err)
	}
	if _, err := arch.PlanWorkload(arch.Workload{Kind: "nope", Bits: 8}); err == nil {
		t.Error("planning an unknown workload kind did not error")
	}
}

// TestResolveMatchesNew pins Resolve's contract as a cache key: it returns
// exactly the Config a built machine echoes, and errors exactly when New
// errors.
func TestResolveMatchesNew(t *testing.T) {
	optSets := [][]arch.Option{
		{},
		{arch.WithCodeName("bacon-shor"), arch.WithBlocks(49), arch.WithCacheFactor(3)},
		{arch.WithTransferOverlap(0), arch.WithSimChannels(4), arch.WithSimResidency(500)},
	}
	for i, opts := range optSets {
		cfg, err := arch.Resolve(opts...)
		if err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		m, err := arch.New(opts...)
		if err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		if cfg != m.Config() {
			t.Errorf("set %d: Resolve = %+v, machine echoes %+v", i, cfg, m.Config())
		}
	}
	if _, err := arch.Resolve(arch.WithBlocks(0)); err == nil {
		t.Error("Resolve accepted zero blocks")
	}
	if _, err := arch.Resolve(arch.WithCodeName("nope")); err == nil {
		t.Error("Resolve accepted an unknown code name")
	}
}

// BenchmarkCompileOnceEvalMany measures the intended hot-loop shape: one
// Machine.Compile, then repeated des-engine evaluations of the 64-bit
// adder, each into a fresh Result. Compare against BenchmarkDES64BitAdder
// (which pays the DAG build per run) for the compile-once gain.
func BenchmarkCompileOnceEvalMany(b *testing.B) {
	m, err := arch.New(arch.WithCodeName("bacon-shor"), arch.WithBlocks(9))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := m.Engine(arch.EngineDES)
	if err != nil {
		b.Fatal(err)
	}
	cw, err := m.Compile(arch.NewAdder(64, false))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var res arch.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = arch.Result{}
		if err := eng.Evaluate(ctx, cw, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEvaluateCompiledIntoMatches pins buffer reuse: for both engines and
// every paper kind, evaluating into a reused result whose metric buffer
// holds stale values from earlier calls must produce the exact envelope an
// evaluation into a fresh result does.
func TestEvaluateCompiledIntoMatches(t *testing.T) {
	ctx := context.Background()
	m, err := arch.New(arch.WithCodeName("bacon-shor"), arch.WithBlocks(9))
	if err != nil {
		t.Fatal(err)
	}
	workloads := []arch.Workload{
		arch.NewAdder(32, false),
		arch.NewModExp(32),
		arch.NewQFT(16),
	}
	for _, engine := range arch.EngineNames() {
		eng, err := m.Engine(engine)
		if err != nil {
			t.Fatal(err)
		}
		// One result reused across every workload, so each call must both
		// overwrite the previous metrics and shrink/grow the buffer.
		reused := arch.Result{Metrics: []arch.Metric{{Name: "stale", Value: -1}}}
		for _, w := range workloads {
			cw, err := m.Compile(w)
			if err != nil {
				t.Fatal(err)
			}
			var fresh arch.Result
			if err := eng.Evaluate(ctx, cw, &fresh); err != nil {
				t.Fatal(err)
			}
			if err := eng.Evaluate(ctx, cw, &reused); err != nil {
				t.Fatalf("%s Evaluate(%s/%d) into a reused result: %v", engine, w.Kind, w.Bits, err)
			}
			fj, _ := json.Marshal(fresh)
			rj, _ := json.Marshal(reused)
			if string(fj) != string(rj) {
				t.Errorf("%s %s/%d: reused result diverges\n fresh:  %s\n reused: %s",
					engine, w.Kind, w.Bits, fj, rj)
			}
		}
		var sink arch.Result
		if err := eng.Evaluate(ctx, nil, &sink); err == nil {
			t.Errorf("%s: Evaluate accepted a nil compile", engine)
		}
	}
}

// TestEvaluateCompiledIntoAllocationFree is the compile-once/evaluate-many
// allocation contract at the engine level: with the arena pooled at compile
// time and the metric buffer reused, a steady-state des evaluation of the
// 64-bit adder performs zero allocations.
func TestEvaluateCompiledIntoAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool allocates under the race detector; the count means nothing")
	}
	m, err := arch.New(arch.WithCodeName("bacon-shor"), arch.WithBlocks(9))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := m.Engine(arch.EngineDES)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := m.Compile(arch.NewAdder(64, false))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var res arch.Result
	if err := eng.Evaluate(ctx, cw, &res); err != nil { // warm buffers
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if err := eng.Evaluate(ctx, cw, &res); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("steady-state Evaluate allocates %.1f times per run, want 0", avg)
	}
}

// TestPlanCircuit covers the custom-circuit boundary that serve's
// `circuit` field and `cqla sweep -circuit` reach: PlanCircuit rejects
// unusable input, and a parsed circuit compiled with CompileWith
// evaluates on both engines like a registry kernel.
func TestPlanCircuit(t *testing.T) {
	bell, err := circuit.ParseString("qubits 2\nh 0\ncnot 0 1\nmeasure 0\nmeasure 1\n")
	if err != nil {
		t.Fatal(err)
	}
	nan := circuit.New(2)
	nan.AddCPhase(0, 1, math.NaN())
	for _, tc := range []struct {
		name, label string
		c           *circuit.Circuit
	}{
		{"empty name", "", bell},
		{"nil circuit", "bell", nil},
		{"empty circuit", "bell", circuit.New(2)},
		{"invalid circuit", "nan", nan},
	} {
		if _, err := arch.PlanCircuit(tc.label, tc.c); err == nil {
			t.Errorf("%s: PlanCircuit did not error", tc.name)
		}
	}

	plan, err := arch.PlanCircuit("bell", bell)
	if err != nil {
		t.Fatal(err)
	}
	w := plan.Workload()
	if w.Kind != arch.KindCustom || w.Name != "bell" || w.Bits != 2 {
		t.Fatalf("plan workload = %+v, want custom bell on 2 qubits", w)
	}
	m, err := arch.New(arch.WithCodeName("bacon-shor"), arch.WithBlocks(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CompileWith(arch.Workload{Kind: arch.KindCustom, Name: "other", Bits: 2}, plan); err == nil {
		t.Error("binding the bell plan to another custom workload did not error")
	}
	cw, err := m.CompileWith(w, plan)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct{ engine, metric string }{
		{arch.EngineAnalytic, "makespan_slots"},
		{arch.EngineDES, "makespan_s"},
	} {
		eng, err := m.Engine(tc.engine)
		if err != nil {
			t.Fatal(err)
		}
		var res arch.Result
		if err := eng.Evaluate(ctx, cw, &res); err != nil {
			t.Fatalf("%s: %v", tc.engine, err)
		}
		if res.Engine != tc.engine || res.Workload != w {
			t.Errorf("%s envelope echo: engine %q, workload %+v", tc.engine, res.Engine, res.Workload)
		}
		if got := res.MustMetric(tc.metric); got <= 0 {
			t.Errorf("%s: %s = %g, want > 0", tc.engine, tc.metric, got)
		}
	}
}
