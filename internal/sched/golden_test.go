package sched

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/shor"
)

// startHash is the FNV-64a hash of a schedule's start slots, each written
// as a little-endian uint64.
func startHash(start []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range start {
		binary.LittleEndian.PutUint64(b[:], uint64(s))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestListScheduleGolden pins every schedule the paper kernels produce at
// the block budgets the figures use. The ready and running queues are
// ordered by strict total orders, so any change to the queue
// implementation must reproduce these start slots exactly.
func TestListScheduleGolden(t *testing.T) {
	circuits := map[string]*circuit.Circuit{
		"adder-32":      gen.CarryLookahead(32).Circuit,
		"adder-64":      gen.CarryLookahead(64).Circuit,
		"adder-256":     gen.CarryLookahead(256).Circuit,
		"qft-64":        gen.QFT(64, false),
		"shor-stage-32": shor.StageCircuit(32),
	}
	dags := make(map[string]*circuit.DAG, len(circuits))
	for name, c := range circuits {
		dags[name] = circuit.BuildDAG(c)
	}
	for _, g := range []struct {
		circuit        string
		blocks         int
		makespan, busy int
		startHash      uint64
	}{
		{"adder-32", 0, 428, 3916, 0xad926b5bd7c70f12},
		{"adder-32", 1, 3916, 3916, 0x5037509e4d43718},
		{"adder-32", 2, 1958, 3916, 0xac4100cb48a546c1},
		{"adder-32", 3, 1306, 3916, 0x68b81ca0cd4332f0},
		{"adder-32", 15, 428, 3916, 0x4446a5375d8b6355},
		{"adder-32", 36, 428, 3916, 0xdbd6ca62b3e7e0d2},
		{"adder-32", 100, 428, 3916, 0xad926b5bd7c70f12},
		{"adder-64", 0, 518, 8046, 0x2e05748d2554282f},
		{"adder-64", 1, 8046, 8046, 0x201efc7f69ffe67f},
		{"adder-64", 2, 4023, 8046, 0x1308b238085e5ce0},
		{"adder-64", 3, 2682, 8046, 0xc0d4d800dacf22ca},
		{"adder-64", 15, 650, 8046, 0x34192728d0f3bfcd},
		{"adder-64", 36, 518, 8046, 0xddf79cd6018de4da},
		{"adder-64", 100, 518, 8046, 0x2e05748d2554282f},
		{"adder-256", 0, 698, 32946, 0xf5699deffa2c7f},
		{"adder-256", 1, 32946, 32946, 0x4971574859173be7},
		{"adder-256", 2, 16473, 32946, 0x4c7e5b096d3fe37a},
		{"adder-256", 3, 10982, 32946, 0x9abe28ad37cdf84e},
		{"adder-256", 15, 2201, 32946, 0x80024d3470f33be5},
		{"adder-256", 36, 1071, 32946, 0x72d68bc70309755a},
		{"adder-256", 100, 699, 32946, 0x5a4e79abf3284c3b},
		{"qft-64", 0, 127, 2080, 0x3fec6a8ba61a3b25},
		{"qft-64", 1, 2080, 2080, 0x3c9a5e5d3e2e0709},
		{"qft-64", 2, 1042, 2080, 0xd5a6928f68191bb1},
		{"qft-64", 3, 698, 2080, 0x3688a366b94c0799},
		{"qft-64", 15, 167, 2080, 0x6533e84f63ed6a05},
		{"qft-64", 36, 127, 2080, 0x3fec6a8ba61a3b25},
		{"qft-64", 100, 127, 2080, 0x3fec6a8ba61a3b25},
		{"shor-stage-32", 0, 576, 4820, 0x1fadbdce22e041b2},
		{"shor-stage-32", 1, 4820, 4820, 0x292d203c383fb57d},
		{"shor-stage-32", 2, 2410, 4820, 0xd3a68a91c98a94da},
		{"shor-stage-32", 3, 1607, 4820, 0x8475e87fd627cdae},
		{"shor-stage-32", 15, 576, 4820, 0x21990d2c1d4ffbf9},
		{"shor-stage-32", 36, 576, 4820, 0x50cb0eca4f8bbbd2},
		{"shor-stage-32", 100, 576, 4820, 0x1fadbdce22e041b2},
	} {
		r := ListSchedule(dags[g.circuit], g.blocks)
		if r.MakespanSlots != g.makespan || r.BusySlots != g.busy {
			t.Errorf("%s at %d blocks: makespan %d busy %d, want %d and %d",
				g.circuit, g.blocks, r.MakespanSlots, r.BusySlots, g.makespan, g.busy)
		}
		if h := startHash(r.Start); h != g.startHash {
			t.Errorf("%s at %d blocks: start-slot hash %#x, want %#x", g.circuit, g.blocks, h, g.startHash)
		}
	}
}

// TestListScheduleAllocations bounds the scheduler's heap traffic to a
// constant per call: the start slots, the dependency counters, the
// priorities, the ready heap's arena and the finish ring's links (next
// and head in one slice), with no per-entry boxing.
func TestListScheduleAllocations(t *testing.T) {
	d := circuit.BuildDAG(gen.CarryLookahead(256).Circuit)
	if avg := testing.AllocsPerRun(20, func() { ListSchedule(d, 36) }); avg > 5 {
		t.Errorf("ListSchedule allocates %.1f times per call, want at most 5", avg)
	}
}
