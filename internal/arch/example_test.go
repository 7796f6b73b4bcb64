package arch_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/arch"
)

// ExampleNew evaluates the paper's best working point — the 256-bit
// Bacon-Shor CQLA with the memory hierarchy — through the analytic engine
// and reads two headline metrics from the Result envelope.
func ExampleNew() {
	m, err := arch.New(
		arch.WithCodeName("bacon-shor"),
		arch.WithBlocks(36),
		arch.WithTransfers(10),
	)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := m.Engine(arch.EngineAnalytic)
	if err != nil {
		log.Fatal(err)
	}
	cw, err := m.Compile(arch.NewAdder(256, true))
	if err != nil {
		log.Fatal(err)
	}
	var res arch.Result
	if err := eng.Evaluate(context.Background(), cw, &res); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s v%d: area x%.1f, adder speedup x%.1f\n",
		res.Engine, res.SchemaVersion,
		res.MustMetric("area_reduction"), res.MustMetric("adder_speedup"))
	// Output: analytic v1: area x7.8, adder speedup x7.6
}

// ExamplePlanWorkload compiles a registry kernel into its
// machine-independent plan: the circuit's dependency DAG, shared by every
// machine that later binds it. Adder and modexp plans are interchangeable
// (same carry-lookahead kernel); every other kind owns its DAG.
func ExamplePlanWorkload() {
	plan, err := arch.PlanWorkload(arch.NewQFT(8))
	if err != nil {
		log.Fatal(err)
	}
	d := plan.DAG()
	fmt.Printf("kernel %s at %d bits: %d serial slots, critical path %d\n",
		plan.Kernel(), plan.Bits(), d.TotalSlots(), d.Depth())
	// Output: kernel qft at 8 bits: 36 serial slots, critical path 15
}

// ExampleMachine_Compile is the intended hot-loop shape: compile a
// workload once, then evaluate the compiled form many times. Evaluate
// skips circuit generation, DAG construction and scheduling on every call.
func ExampleMachine_Compile() {
	m, err := arch.New(
		arch.WithCodeName("bacon-shor"),
		arch.WithBlocks(36),
		arch.WithTransfers(10),
	)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := m.Engine(arch.EngineAnalytic)
	if err != nil {
		log.Fatal(err)
	}
	cw, err := m.Compile(arch.NewKind(arch.KindQFTComm, 64))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	var again, res arch.Result
	_ = eng.Evaluate(ctx, cw, &again)
	if err := eng.Evaluate(ctx, cw, &res); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %.0f slots, speedup x%.2f, repeatable %v\n",
		res.Workload.Kind, res.MustMetric("makespan_slots"),
		res.MustMetric("parallel_speedup"),
		res.MustMetric("makespan_slots") == again.MustMetric("makespan_slots"))
	// Output: qftcomm: 130 slots, speedup x16.74, repeatable true
}
