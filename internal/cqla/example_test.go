package cqla_test

import (
	"fmt"

	"repro/internal/cqla"
	"repro/internal/ecc"
	"repro/internal/gen"
	"repro/internal/phys"
)

// Example sizes the paper's best configuration — Bacon-Shor [[9,1,3]]
// regions, 36 compute blocks, ten parallel memory<->cache transfers — for
// a 256-bit workload and prints its headline figures of merit.
func Example() {
	machine := cqla.New(cqla.Config{
		Code:              ecc.BaconShor(),
		Params:            phys.Projected(),
		ComputeBlocks:     36,
		ParallelTransfers: 10,
	})
	qubits := gen.NewModExp(256).LogicalQubits()
	fmt.Printf("area reduction: %.1fx\n", machine.AreaReduction(qubits, false))
	fmt.Printf("L2 speedup:     %.2fx\n", machine.SpeedupL2(256))
	fmt.Printf("gain product:   %.1f\n", machine.GainProduct(256, qubits, false))
	// Output:
	// area reduction: 8.3x
	// L2 speedup:     1.92x
	// gain product:   16.0
}
