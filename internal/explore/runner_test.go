package explore_test

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/phys"
)

// sweepJSON runs a registered experiment and returns its JSON emission.
func sweepJSON(t *testing.T, name string, parallel int, seed int64) []byte {
	t.Helper()
	exp, err := explore.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := explore.Run(context.Background(), exp, explore.Options{
		Phys:     phys.Projected(),
		Parallel: parallel,
		Seed:     seed,
	})
	if err != nil {
		t.Fatalf("Run(%s, parallel=%d): %v", name, parallel, err)
	}
	var buf bytes.Buffer
	r := &explore.Report{Experiment: exp, Phys: "projected", Seed: seed, Points: pts}
	if err := r.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeterministicAcrossParallelism is the engine's core contract: the
// same seed produces byte-identical JSON whether one worker or eight ran
// the sweep. The montecarlo sweep is the adversarial case — it is
// stochastic, so any order-dependence in seeding would show up here.
func TestDeterministicAcrossParallelism(t *testing.T) {
	for _, name := range []string{"montecarlo", "fig6b", "overlap-sens"} {
		serial := sweepJSON(t, name, 1, 42)
		parallel := sweepJSON(t, name, 8, 42)
		if !bytes.Equal(serial, parallel) {
			t.Errorf("%s: -parallel 1 and -parallel 8 output differ with the same seed", name)
		}
	}
}

// TestSeedChangesStochasticResults guards against the opposite failure:
// the per-point seed actually reaching the evaluator.
func TestSeedChangesStochasticResults(t *testing.T) {
	a := sweepJSON(t, "montecarlo", 4, 1)
	b := sweepJSON(t, "montecarlo", 4, 2)
	if bytes.Equal(a, b) {
		t.Error("montecarlo output identical under different seeds")
	}
}

func TestCancellationMidSweep(t *testing.T) {
	started := make(chan struct{}, 1)
	exp := &explore.Experiment{
		Name: "t-cancel",
		Axes: []explore.Axis{explore.Ints("i", 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)},
		Eval: func(ctx context.Context, in explore.In) ([]explore.Metric, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done() // block until the sweep is canceled
			return nil, ctx.Err()
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	_, err := explore.Run(ctx, exp, explore.Options{Parallel: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after mid-sweep cancel returned %v; want context.Canceled", err)
	}
}

func TestEvalErrorCancelsSweep(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	exp := &explore.Experiment{
		Name: "t-error",
		Axes: []explore.Axis{explore.Ints("i", 1, 2, 3, 4, 5, 6, 7, 8)},
		Eval: func(ctx context.Context, in explore.In) ([]explore.Metric, error) {
			calls.Add(1)
			if in.Int("i") == 3 {
				return nil, boom
			}
			return []explore.Metric{{Name: "v", Value: float64(in.Int("i"))}}, nil
		},
	}
	_, err := explore.Run(context.Background(), exp, explore.Options{Parallel: 1})
	if !errors.Is(err, boom) {
		t.Fatalf("Run returned %v; want the evaluator's error", err)
	}
	if n := calls.Load(); n >= 8 {
		t.Errorf("all %d points evaluated despite an early error", n)
	}
}

// TestEvalErrorNotMaskedByCancellation: when one point hits a real
// evaluator error, sibling in-flight evaluations collapse with
// context.Canceled; whichever reaches the error slot first, Run must
// report the root cause, never "context canceled".
func TestEvalErrorNotMaskedByCancellation(t *testing.T) {
	boom := errors.New("boom")
	failing := make(chan struct{})
	exp := &explore.Experiment{
		Name: "t-mask",
		Axes: []explore.Axis{explore.Ints("i", 0, 1, 2, 3)},
		Eval: func(ctx context.Context, in explore.In) ([]explore.Metric, error) {
			if in.Int("i") == 0 {
				close(failing)
				// Give the collapsing siblings a head start in the race to
				// record the first error.
				time.Sleep(5 * time.Millisecond)
				return nil, boom
			}
			select {
			case <-failing:
				return nil, context.Canceled
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
	_, err := explore.Run(context.Background(), exp, explore.Options{Parallel: 4})
	if !errors.Is(err, boom) {
		t.Fatalf("Run returned %v; want the evaluator's root-cause error %v", err, boom)
	}
}

// TestMemoization: repeated coordinates are evaluated once and every
// product slot still gets its result.
func TestMemoization(t *testing.T) {
	var calls atomic.Int64
	exp := &explore.Experiment{
		Name: "t-memo",
		Axes: []explore.Axis{
			explore.Ints("a", 1, 2, 1, 2), // duplicates on purpose
			explore.Strings("b", "x", "x", "y"),
		},
		Eval: func(ctx context.Context, in explore.In) ([]explore.Metric, error) {
			calls.Add(1)
			return []explore.Metric{{Name: "sum", Value: float64(in.Int("a")) + float64(len(in.Str("b")))}}, nil
		},
	}
	pts, err := explore.Run(context.Background(), exp, explore.Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 12 {
		t.Fatalf("got %d points; want 12", len(pts))
	}
	// 2 distinct a-values x 2 distinct b-values = 4 unique evaluations.
	if n := calls.Load(); n != 4 {
		t.Errorf("evaluator ran %d times; want 4 (memoized)", n)
	}
	for _, p := range pts {
		want := p.Coords[0].Float() + float64(len(p.Coords[1].Str()))
		if got := p.MustMetric("sum"); got != want {
			t.Errorf("point %d: sum = %g, want %g", p.Index, got, want)
		}
	}
}

func TestProgressMonotone(t *testing.T) {
	exp := &explore.Experiment{
		Name: "t-progress",
		Axes: []explore.Axis{explore.Ints("i", 1, 2, 3, 4, 5, 6, 7, 8, 9)},
		Eval: nopEval,
	}
	last, total := 0, 0
	_, err := explore.Run(context.Background(), exp, explore.Options{
		Parallel: 3,
		Progress: func(done, tot int) {
			if done <= last {
				t.Errorf("progress went %d -> %d", last, done)
			}
			last, total = done, tot
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != 9 || total != 9 {
		t.Errorf("final progress %d/%d; want 9/9", last, total)
	}
}

func TestPointOrderIsProductOrder(t *testing.T) {
	exp := &explore.Experiment{
		Name: "t-order",
		Axes: []explore.Axis{
			explore.Ints("hi", 0, 1, 2),
			explore.Ints("lo", 0, 1),
		},
		Eval: func(ctx context.Context, in explore.In) ([]explore.Metric, error) {
			return []explore.Metric{{Name: "v", Value: float64(in.Int("hi")*2 + in.Int("lo"))}}, nil
		},
	}
	pts, err := explore.Run(context.Background(), exp, explore.Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if p.Index != i {
			t.Errorf("point %d has Index %d", i, p.Index)
		}
		if got := p.MustMetric("v"); got != float64(i) {
			t.Errorf("point %d out of product order: v = %g", i, got)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := explore.Run(context.Background(), nil, explore.Options{}); err == nil {
		t.Error("Run(nil experiment) succeeded")
	}
	empty := &explore.Experiment{Name: "t-run-empty", Axes: []explore.Axis{explore.Ints("i")}, Eval: nopEval}
	if _, err := explore.Run(context.Background(), empty, explore.Options{}); err == nil {
		t.Error("Run with empty design space succeeded")
	}
}

// TestParetoSerialAllocations pins the allocation target of the serial
// pareto sweep (the ExplorePareto benchmark's workload on one worker):
// each Run builds its own evaluation cache, so this is the cost of a cold
// sweep, and it must stay under 10k allocations.
func TestParetoSerialAllocations(t *testing.T) {
	exp, err := explore.Lookup("pareto")
	if err != nil {
		t.Fatal(err)
	}
	opt := explore.Options{Phys: phys.Projected(), Parallel: 1, Seed: 1}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := explore.Run(context.Background(), exp, opt); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 10000 {
		t.Errorf("serial pareto allocates %.0f times per run, want at most 10000", avg)
	}
}
