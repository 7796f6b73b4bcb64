package arch

import (
	"context"
	"fmt"
)

// Engine evaluates compiled workloads on the machine it was obtained from.
// The two implementations answer the same question two ways: "analytic"
// computes the paper's closed-form area/performance model, "des" measures
// a discrete-event execution of the actual circuit on explicit resources.
type Engine interface {
	// Name returns the engine's registry name.
	Name() string
	// Evaluate runs a workload this engine's machine has compiled
	// (Machine.Compile or Machine.CompileWith) and writes the metric
	// envelope into out, fully overwriting it. Compilation did every
	// per-workload setup step, so evaluation pays only the model itself;
	// on the des engine a steady-state call reuses out's metric buffer and
	// performs no allocations. It honors ctx for long evaluations.
	Evaluate(ctx context.Context, cw *CompiledWorkload, out *Result) error
}

// errForeignCompile rejects a compiled workload bound to another machine:
// its derived simulator config and schedule memos describe that machine,
// so evaluating it here would silently mix configurations.
var errForeignCompile = fmt.Errorf("arch: compiled workload belongs to a different machine")

// Engine registry names.
const (
	EngineAnalytic = "analytic"
	EngineDES      = "des"
)

// EngineNames lists the available engines, default first.
func EngineNames() []string { return []string{EngineAnalytic, EngineDES} }

// NormalizeEngine canonicalizes an engine name: empty selects the
// analytic default and "sim" aliases the discrete-event engine. Unknown
// names are errors.
func NormalizeEngine(name string) (string, error) {
	switch name {
	case "", EngineAnalytic:
		return EngineAnalytic, nil
	case EngineDES, "sim":
		return EngineDES, nil
	}
	return "", fmt.Errorf("arch: unknown engine %q (have %v)", name, EngineNames())
}

// Engine returns the named evaluation engine bound to this machine.
func (m *Machine) Engine(name string) (Engine, error) {
	canonical, err := NormalizeEngine(name)
	if err != nil {
		return nil, err
	}
	switch canonical {
	case EngineAnalytic:
		return analyticEngine{m: m}, nil
	default:
		return simEngine{m: m}, nil
	}
}

// result assembles the envelope for one evaluation of this machine.
func (m *Machine) result(engine string, w Workload, metrics []Metric) Result {
	return Result{
		SchemaVersion: SchemaVersion,
		Engine:        engine,
		Workload:      w,
		Config:        m.cfg,
		Metrics:       metrics,
	}
}
