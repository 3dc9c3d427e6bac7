package power

import "fmt"

// Budget tracks the split of the SoC thermal design power across the
// three domains (§1, §4.3). The PMU's power-budget-management algorithm
// (PBM) owns an instance: the IO and memory domains receive allocations
// sized to their operating point, and whatever remains belongs to the
// compute domain. SysScale's redistribution step is exactly a call to
// SetIOMemory with a smaller allocation, which grows Compute().
type Budget struct {
	tdp    Watt
	io     Watt
	memory Watt
	uncore Watt // fixed uncore/other allocation (fabric misc, PLLs)
}

// NewBudget creates a budget for a given TDP with an initial worst-case
// IO and memory allocation (Observation 1: current systems pin these
// at worst case) and a fixed uncore reserve.
func NewBudget(tdp, io, memory, uncore Watt) (*Budget, error) {
	b := &Budget{tdp: tdp, uncore: uncore}
	if err := b.SetIOMemory(io, memory); err != nil {
		return nil, err
	}
	return b, nil
}

// TDP returns the package thermal design power.
func (b *Budget) TDP() Watt { return b.tdp }

// IO returns the IO domain's current allocation.
func (b *Budget) IO() Watt { return b.io }

// Memory returns the memory domain's current allocation.
func (b *Budget) Memory() Watt { return b.memory }

// Uncore returns the fixed uncore reserve.
func (b *Budget) Uncore() Watt { return b.uncore }

// Compute returns the compute domain's allocation: everything the
// other domains do not hold.
func (b *Budget) Compute() Watt {
	c := b.tdp - b.io - b.memory - b.uncore
	if c < 0 {
		return 0
	}
	return c
}

// SetIOMemory reassigns the IO and memory allocations, implicitly
// resizing the compute budget. It rejects splits that leave the compute
// domain with nothing (the SoC could not retire work at all).
func (b *Budget) SetIOMemory(io, memory Watt) error {
	if io < 0 || memory < 0 {
		return fmt.Errorf("power: negative budget (io=%.3f, mem=%.3f)", io, memory)
	}
	if io+memory+b.uncore >= b.tdp {
		return fmt.Errorf("power: io+memory+uncore (%.3fW) exhausts TDP %.3fW", io+memory+b.uncore, b.tdp)
	}
	b.io, b.memory = io, memory
	return nil
}

// Reset reprograms the budget to a fresh TDP/reservation assignment. A
// reset budget is indistinguishable from NewBudget(tdp, io, memory,
// uncore), so a pooled platform reuses its Budget across runs. The
// split is validated before anything is mutated, so a failed Reset
// leaves the budget unchanged.
func (b *Budget) Reset(tdp, io, memory, uncore Watt) error {
	if io < 0 || memory < 0 {
		return fmt.Errorf("power: negative budget (io=%.3f, mem=%.3f)", io, memory)
	}
	if io+memory+uncore >= tdp {
		return fmt.Errorf("power: io+memory+uncore (%.3fW) exhausts TDP %.3fW", io+memory+uncore, tdp)
	}
	b.tdp, b.uncore = tdp, uncore
	return b.SetIOMemory(io, memory)
}

func (b *Budget) String() string {
	return fmt.Sprintf("TDP %.2fW = compute %.2fW + io %.2fW + mem %.2fW + uncore %.2fW",
		b.tdp, b.Compute(), b.io, b.memory, b.uncore)
}
