package arch

import (
	"context"
	"strconv"
	"time"

	"repro/internal/obs"
)

// analyticEngine evaluates workloads with the paper's closed-form model:
// list-scheduled makespans times error-correction slot costs for time, the
// tile model for area, the QLA of internal/qla as the normalization
// baseline. It is exact, fast, and blind to dynamic effects — the des
// engine exists to check it.
type analyticEngine struct{ m *Machine }

func (analyticEngine) Name() string { return EngineAnalytic }

// Evaluate evaluates a compiled workload into out. The paper's kinds
// (adder, modexp, qft) use their closed forms — compilation seeds the
// machine's adder-schedule memo with the plan's shared DAG, so the speedup
// terms read a sweep-wide memo instead of rebuilding the kernel per
// machine. Every other kind, including custom circuits, is costed directly
// from the compiled plan's schedule. The closed forms are microseconds per
// call, so each evaluation allocates a fresh metric list.
func (e analyticEngine) Evaluate(ctx context.Context, cw *CompiledWorkload, out *Result) error {
	if cw == nil || cw.m != e.m {
		return errForeignCompile
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// With a tracer in ctx the closed-form evaluation is one span; without
	// one this line is a no-op.
	_, sp := obs.StartSpan(ctx, "analytic-eval")
	defer sp.End()
	w := cw.w
	if sp != nil {
		sp.Annotate("kind", string(w.Kind))
		sp.Annotate("bits", strconv.Itoa(w.Bits))
	}
	cm := e.m.cq
	n := w.Bits
	var metrics []Metric
	switch w.Kind {
	case KindAdder:
		// The addition is the kernel of an n-bit modular exponentiation,
		// whose logical-qubit footprint sets the memory size.
		q := cw.adderQubits
		area := cm.AreaReduction(q, w.Hierarchy)
		l2 := cm.SpeedupL2(n)
		metrics = []Metric{
			{"area_reduction", area},
			{"l2_speedup", l2},
		}
		if w.Hierarchy {
			metrics = append(metrics,
				Metric{"l1_speedup", cm.SpeedupL1(n)},
				Metric{"adder_speedup", cm.AdderSpeedup(n)},
				Metric{"gain_product", cm.GainProduct(n, q, true)},
				Metric{"stall_s", cm.TransferStall().Seconds()},
				Metric{"l1_time_s", cm.AdderTimeL1(n).Seconds()},
			)
		} else {
			metrics = append(metrics, Metric{"gain_product", area * l2})
		}
		metrics = append(metrics,
			Metric{"l2_time_s", cm.AdderTimeL2(n).Seconds()},
			Metric{"qla_time_s", cm.QLAAdderTime(n).Seconds()},
		)
	case KindModExp:
		t := cm.ModExpTimes(n)
		metrics = []Metric{
			{"computation_s", t.Computation.Seconds()},
			{"communication_s", t.Communication.Seconds()},
			{"total_s", (t.Computation + t.Communication).Seconds()},
			{"area_reduction", cm.AreaReduction(cw.adderQubits, w.Hierarchy)},
		}
	case KindQFT:
		t := cm.QFTTimes(n)
		metrics = []Metric{
			{"computation_s", t.Computation.Seconds()},
			{"communication_s", t.Communication.Seconds()},
			{"total_s", (t.Computation + t.Communication).Seconds()},
		}
	default: // registry kernels and custom circuits
		metrics = e.planMetrics(cw.plan)
	}
	*out = e.m.result(EngineAnalytic, w, metrics)
	return nil
}

// planMetrics costs a compiled plan with the closed-form schedule model:
// the list-scheduled makespan at the machine's block budget, priced at the
// level-2 error-correction slot time, bracketed by the serial and
// critical-path bounds.
func (e analyticEngine) planMetrics(plan *WorkloadPlan) []Metric {
	cm := e.m.cq
	slot := cm.SlotTime(2)
	d := plan.DAG()
	makespan := plan.makespan(e.m.cfg.Blocks)
	serial := d.TotalSlots()
	speedup := 1.0
	if makespan > 0 {
		speedup = float64(serial) / float64(makespan)
	}
	return []Metric{
		{"computation_s", (time.Duration(makespan) * slot).Seconds()},
		{"critical_path_s", (time.Duration(d.Depth()) * slot).Seconds()},
		{"serial_s", (time.Duration(serial) * slot).Seconds()},
		{"parallel_speedup", speedup},
		{"makespan_slots", float64(makespan)},
	}
}
