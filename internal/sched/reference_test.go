package sched

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/heapq"
)

// referenceListSchedule is the earlier ListSchedule, kept verbatim with its
// helpers as the oracle of TestListScheduleMatchesReference: both queues
// are binary heaps, the ready one ordered by (priority desc, index) through
// a comparator closure, the running one by (end, instruction).
func referenceListSchedule(d *circuit.DAG, blocks int) Result {
	c := d.Circuit()
	n := c.Len()
	res := Result{Blocks: blocks, Start: make([]int, n)}
	for _, in := range c.Instrs() {
		res.BusySlots += in.Slots()
	}
	if n == 0 {
		return res
	}
	if blocks <= 0 {
		// Unlimited resources: ASAP.
		res.Blocks = 0
		for i := range res.Start {
			res.Start[i] = d.ASAPStart(i)
			if end := res.Start[i] + c.Instr(i).Slots(); end > res.MakespanSlots {
				res.MakespanSlots = end
			}
		}
		return res
	}

	prio := criticalPathPriority(d)
	remainingDeps := make([]int, n)
	// Ready instructions pop longest remaining path first and running ones
	// earliest finish first, the instruction index breaking ties in both:
	// strict total orders, so the schedule is deterministic.
	ready := heapq.New(n, func(a, b int) bool {
		if prio[a] != prio[b] {
			return prio[a] > prio[b]
		}
		return a < b
	})
	for i := 0; i < n; i++ {
		remainingDeps[i] = len(d.Deps(i))
		if remainingDeps[i] == 0 {
			ready.Push(i)
		}
	}

	running := heapq.New(min(blocks, n), finishLess)
	now := 0
	free := blocks
	scheduled := 0
	for scheduled < n {
		// Dispatch as many ready instructions as blocks allow.
		for free > 0 && ready.Len() > 0 {
			i := ready.Pop()
			res.Start[i] = now
			end := now + c.Instr(i).Slots()
			running.Push(finishEntry{end, i})
			free--
			scheduled++
			if end > res.MakespanSlots {
				res.MakespanSlots = end
			}
		}
		if running.Len() == 0 {
			if ready.Len() == 0 && scheduled < n {
				panic("sched: deadlock — dependency cycle in DAG")
			}
			continue
		}
		// Advance to the next completion and release its successors.
		now = running.Min().end
		for running.Len() > 0 && running.Min().end == now {
			e := running.Pop()
			free++
			for _, s := range d.Succs(e.instr) {
				remainingDeps[s]--
				if remainingDeps[s] == 0 {
					ready.Push(s)
				}
			}
		}
	}
	return res
}

// criticalPathPriority computes, for every instruction, the length in slots
// of the longest dependent chain starting at it (inclusive).
func criticalPathPriority(d *circuit.DAG) []int {
	c := d.Circuit()
	n := c.Len()
	prio := make([]int, n)
	// Instructions are appended in topological order, so a reverse sweep
	// sees all successors first.
	for i := n - 1; i >= 0; i-- {
		longest := 0
		for _, s := range d.Succs(i) {
			if prio[s] > longest {
				longest = prio[s]
			}
		}
		prio[i] = longest + c.Instr(i).Slots()
	}
	return prio
}

type finishEntry struct {
	end   int
	instr int
}

func finishLess(a, b finishEntry) bool {
	if a.end != b.end {
		return a.end < b.end
	}
	return a.instr < b.instr
}

// randomCircuit draws a circuit over every instruction kind, Toffoli and
// Measure included. Narrow registers (1–4 qubits) make long dependency
// chains; wide ones (16–63 qubits) make many gates ready at once.
func randomCircuit(rng *rand.Rand) *circuit.Circuit {
	width := 1 + rng.Intn(4)
	if rng.Intn(2) == 0 {
		width = 16 + rng.Intn(48)
	}
	c := circuit.New(width)
	for g := rng.Intn(400); g > 0; g-- {
		k := circuit.Kind(rng.Intn(int(circuit.Measure) + 1))
		if k.Arity() > width {
			continue
		}
		qs := rng.Perm(width)[:k.Arity()]
		in := circuit.NewInstr(k, qs...)
		if k == circuit.CPhase {
			in.Angle = rng.Float64()
		}
		c.Append(in)
	}
	return c
}

// TestListScheduleMatchesReference checks the finish-slot ring and packed
// ready keys against the two-heap reference scheduler, start slot by
// start slot, over seeded random circuits and the budgets the sweeps use
// plus the degenerate ones (one block, as many blocks as gates, unlimited).
func TestListScheduleMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		c := randomCircuit(rand.New(rand.NewSource(seed)))
		d := circuit.BuildDAG(c)
		for _, blocks := range []int{1, 2, 3, 7, 15, 36, 100, c.Len(), 0} {
			got, want := ListSchedule(d, blocks), referenceListSchedule(d, blocks)
			if got.Blocks != want.Blocks || got.MakespanSlots != want.MakespanSlots || got.BusySlots != want.BusySlots {
				t.Fatalf("seed %d, %d gates on %d qubits, %d blocks: got blocks %d makespan %d busy %d, want %d, %d, %d",
					seed, c.Len(), c.NumQubits(), blocks, got.Blocks, got.MakespanSlots, got.BusySlots,
					want.Blocks, want.MakespanSlots, want.BusySlots)
			}
			for i := range want.Start {
				if got.Start[i] != want.Start[i] {
					t.Fatalf("seed %d, %d gates on %d qubits, %d blocks: gate %d (%v) starts at %d, want %d",
						seed, c.Len(), c.NumQubits(), blocks, i, c.Instr(i), got.Start[i], want.Start[i])
				}
			}
		}
	}
}
