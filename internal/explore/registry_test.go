package explore_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/explore"
)

func nopEval(_ context.Context, _ explore.In) ([]explore.Metric, error) {
	return []explore.Metric{{Name: "one", Value: 1}}, nil
}

func TestLookupUnknown(t *testing.T) {
	_, err := explore.Lookup("no-such-experiment")
	if err == nil {
		t.Fatal("Lookup of unknown name succeeded")
	}
	if !strings.Contains(err.Error(), "no-such-experiment") {
		t.Errorf("error %q does not name the missing experiment", err)
	}
	if !strings.Contains(err.Error(), "table4") {
		t.Errorf("error %q does not list the registered experiments", err)
	}
}

func TestLookupBuiltins(t *testing.T) {
	for _, name := range []string{
		"table2", "table3", "table4", "table5",
		"fig2-makespan", "fig6a", "fig6b", "fig7", "fig8a", "fig8b",
		"pareto", "overlap-sens", "montecarlo",
	} {
		e, err := explore.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if e.Name != name {
			t.Errorf("Lookup(%q) returned experiment %q", name, e.Name)
		}
		if e.Size() < 2 {
			t.Errorf("experiment %q has trivial size %d", name, e.Size())
		}
	}
}

func TestNamesSorted(t *testing.T) {
	names := explore.Names()
	if len(names) < 13 {
		t.Fatalf("only %d registered experiments: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not sorted: %q before %q", names[i-1], names[i])
		}
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestValueKindMismatchPanics(t *testing.T) {
	mustPanic(t, "Int() on string value", func() { explore.StringV("x").Int() })
	mustPanic(t, "Float() on string value", func() { explore.StringV("x").Float() })
	mustPanic(t, "Str() on numeric value", func() { explore.IntV(1).Str() })
	// Numeric cross-reads are conversions, not bugs.
	if explore.FloatV(2.7).Int() != 2 || explore.IntV(3).Float() != 3 {
		t.Error("numeric conversions broken")
	}
}

// registerRuns numbers TestRegisterValidation runs, so that repeated runs
// in one process (-count, -cpu lists) register a fresh fixture name.
var registerRuns int

func TestRegisterValidation(t *testing.T) {
	registerRuns++
	name := fmt.Sprintf("t-registered-%d", registerRuns)
	mustPanic(t, "Register(nil)", func() { explore.Register(nil) })
	mustPanic(t, "Register with empty name", func() {
		explore.Register(&explore.Experiment{Axes: []explore.Axis{explore.Ints("i", 1)}, Eval: nopEval})
	})
	mustPanic(t, "Register without evaluator", func() {
		explore.Register(&explore.Experiment{Name: "t-no-eval", Axes: []explore.Axis{explore.Ints("i", 1)}})
	})
	mustPanic(t, "Register with empty design space", func() {
		explore.Register(&explore.Experiment{Name: "t-empty", Axes: []explore.Axis{explore.Ints("i")}, Eval: nopEval})
	})

	explore.Register(&explore.Experiment{
		Name: name, Title: "test fixture",
		Axes: []explore.Axis{explore.Ints("i", 1, 2)},
		Eval: nopEval,
	})
	if _, err := explore.Lookup(name); err != nil {
		t.Fatalf("Lookup of freshly registered experiment: %v", err)
	}
	mustPanic(t, "duplicate Register", func() {
		explore.Register(&explore.Experiment{
			Name: name,
			Axes: []explore.Axis{explore.Ints("i", 1)},
			Eval: nopEval,
		})
	})
}
