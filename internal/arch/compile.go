package arch

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/cqla"
	"repro/internal/des"
	"repro/internal/gen"
	"repro/internal/memo"
	"repro/internal/sched"
)

// WorkloadPlan is the machine-independent compiled form of a workload: the
// kernel circuit the engines evaluate and its dependency DAG, plus a memo
// of list-scheduled makespans per block budget. Adder and modexp workloads
// share the carry-lookahead adder kernel (the paper evaluates modular
// exponentiation as repeated additions), so their plans are
// interchangeable at equal width; every other kind — the registry kernels
// and custom circuits from circuit.Parse — compiles to its own DAG.
//
// A plan is immutable apart from its schedule memo, which is lock-guarded;
// it is safe for concurrent use and intended to be shared — the explore
// runner compiles each (kernel, bits) pair once per sweep and binds the
// one plan to every machine that evaluates it.
type WorkloadPlan struct {
	kind Kind
	name string // custom circuit name; "" for built-in kinds
	bits int

	// adder is set for adder/modexp workloads; its DAG and schedule memo
	// are shared with the analytic model via Machine.UseAdderPlan.
	adder *cqla.AdderPlan

	// dag is set for every other kernel, with its own schedule memo.
	dag *circuit.DAG
	ms  memo.Map[int, int]
}

// PlanWorkload compiles the kernel circuit and dependency DAG for w. The
// result is machine-independent: bind it to a machine with
// Machine.CompileWith (or let Machine.Compile do both steps). Custom
// workloads carry their own circuit and are compiled with PlanCircuit
// instead.
func PlanWorkload(w Workload) (*WorkloadPlan, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	p := &WorkloadPlan{kind: w.Kind, bits: w.Bits}
	switch w.Kind {
	case KindAdder, KindModExp:
		p.adder = cqla.NewAdderPlan(w.Bits)
	case KindCustom:
		return nil, fmt.Errorf("arch: custom workload %q has no registered kernel; compile its circuit with PlanCircuit", w.Name)
	default:
		build, ok := kernelCircuits[w.Kind]
		if !ok {
			return nil, fmt.Errorf("arch: no kernel builder for workload kind %q", w.Kind)
		}
		p.dag = circuit.BuildDAG(build(w.Bits))
	}
	return p, nil
}

// PlanCircuit compiles a user-supplied circuit (typically from
// circuit.Parse) into a workload plan under the given name. The resulting
// plan behaves exactly like a registry kernel's: bind it to machines with
// Machine.CompileWith and evaluate on either engine.
func PlanCircuit(name string, c *circuit.Circuit) (*WorkloadPlan, error) {
	if name == "" {
		return nil, fmt.Errorf("arch: custom circuit needs a name")
	}
	if c == nil || c.Len() == 0 {
		return nil, fmt.Errorf("arch: custom circuit %q is empty", name)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("arch: custom circuit %q: %w", name, err)
	}
	return &WorkloadPlan{
		kind: KindCustom,
		name: name,
		bits: c.NumQubits(),
		dag:  circuit.BuildDAG(c),
	}, nil
}

// Bits returns the problem width the plan was compiled for.
func (p *WorkloadPlan) Bits() int { return p.bits }

// Workload returns the canonical workload description the plan compiles:
// for custom plans this is the KindCustom workload carrying the circuit's
// name and register width.
func (p *WorkloadPlan) Workload() Workload {
	return Workload{Kind: p.kind, Bits: p.bits, Name: p.name}
}

// Kernel returns the plan's kernel identity — the cache key under which
// plans are shareable; it matches Workload.Kernel for every workload the
// plan is compatible with.
func (p *WorkloadPlan) Kernel() string { return p.Workload().Kernel() }

// DAG returns the compiled kernel dependency graph (shared storage; treat
// it as read-only).
func (p *WorkloadPlan) DAG() *circuit.DAG {
	if p.adder != nil {
		return p.adder.DAG()
	}
	return p.dag
}

// compatible reports whether the plan can evaluate w.
func (p *WorkloadPlan) compatible(w Workload) bool {
	if p.bits != w.Bits {
		return false
	}
	switch w.Kind {
	case KindAdder, KindModExp:
		return p.adder != nil
	case KindCustom:
		return p.kind == KindCustom && p.name == w.Name && p.dag != nil
	default:
		return p.kind == w.Kind && p.dag != nil
	}
}

// makespan returns the kernel's list-scheduled makespan at the given block
// budget, memoized per plan (per shared adder plan for adder kernels).
func (p *WorkloadPlan) makespan(blocks int) int {
	if p.adder != nil {
		return p.adder.Makespan(blocks)
	}
	return p.ms.Get(blocks, func() int {
		return sched.ListSchedule(p.dag, blocks).MakespanSlots
	})
}

// CompiledWorkload binds a workload plan to one machine: the validated
// workload, the shared kernel plan, and the derived discrete-event machine
// description. Compiling once and evaluating many times is the intended
// hot-loop shape — Engine.Evaluate skips every per-evaluation setup cost
// (circuit generation, DAG construction, scheduling already memoized in
// the plan), and on the des engine also reuses the caller's result buffer
// and a pooled simulation arena, so a steady-state des evaluation performs
// no allocations at all.
type CompiledWorkload struct {
	m      *Machine
	w      Workload
	plan   *WorkloadPlan
	desCfg des.Config

	// runners pools des.Runner arenas for this (DAG, config) pair so
	// concurrent evaluations each replay the event loop on a private,
	// allocation-free arena. The first arena is built on first des use:
	// analytic-only evaluation never pays for one.
	runners sync.Pool

	// Modular-exponentiation constants for the adder/modexp metric decode,
	// precomputed so the evaluation hot loop never rebuilds gen.ModExp.
	adderQubits      int
	adderCalls       int
	concurrentAdders int
}

// runner takes a simulation arena from the pool, building a fresh one when
// the pool is empty. CompileWith validated the config, so construction
// here cannot fail.
func (cw *CompiledWorkload) runner() *des.Runner {
	if r, ok := cw.runners.Get().(*des.Runner); ok {
		return r
	}
	r, err := des.NewRunner(cw.plan.DAG(), cw.desCfg)
	if err != nil {
		panic("arch: compiled workload holds an invalid simulator config: " + err.Error())
	}
	return r
}

// Machine returns the machine the workload was compiled for.
func (cw *CompiledWorkload) Machine() *Machine { return cw.m }

// Compile validates w, compiles its kernel plan and binds it to the
// machine. For repeated evaluations of one workload family across many
// machines, compile the plan once with PlanWorkload and bind it to each
// machine with CompileWith instead. Custom workloads carry their own
// circuit: compile it with PlanCircuit and bind it with CompileWith.
func (m *Machine) Compile(w Workload) (*CompiledWorkload, error) {
	plan, err := PlanWorkload(w)
	if err != nil {
		return nil, err
	}
	return m.CompileWith(w, plan)
}

// CompileWith binds a precompiled plan to this machine. The plan's adder
// kernel (when present) also seeds the analytic model's schedule memo, so
// both engines evaluate from the one shared DAG.
func (m *Machine) CompileWith(w Workload, plan *WorkloadPlan) (*CompiledWorkload, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if plan == nil || !plan.compatible(w) {
		return nil, fmt.Errorf("arch: plan does not match workload %s/%d bits", w.Kind, w.Bits)
	}
	if plan.adder != nil {
		m.cq.UseAdderPlan(plan.adder)
	}
	cw := &CompiledWorkload{m: m, w: w, plan: plan, desCfg: m.desConfig()}
	// An invalid derived simulator config surfaces at compile time, not
	// mid-evaluation.
	if err := cw.desCfg.Validate(); err != nil {
		return nil, fmt.Errorf("arch: workload %s/%d bits: %w", w.Kind, w.Bits, err)
	}
	if w.Kind == KindAdder || w.Kind == KindModExp {
		me := gen.NewModExp(w.Bits)
		cw.adderQubits = me.LogicalQubits()
		cw.adderCalls = me.AdderCalls()
		cw.concurrentAdders = me.ConcurrentAdders()
	}
	return cw, nil
}

// computeOnly returns the compute-only lower bound of the compiled kernel:
// the list-scheduled makespan at the machine's block count with
// communication free. It anchors the communication-hidden metric.
func (cw *CompiledWorkload) computeOnly() time.Duration {
	return time.Duration(cw.plan.makespan(cw.desCfg.Blocks)) * cw.desCfg.SlotTime
}
