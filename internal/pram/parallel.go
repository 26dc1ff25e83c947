package pram

// ParallelDo composes len(procs) independent sub-computations that the
// simulated machine executes simultaneously on disjoint processor groups:
// branch b runs on a child machine declaring procs[b] processors. The
// parent is charged the MAXIMUM child time (the groups run side by side)
// and the SUM of child work. This realizes the paper's processor-allocation
// arguments ("assign s + v_i processors to the i-th region") without a
// global renumbering step; the closed-form offsets that a real PRAM would
// compute are O(1) arithmetic per group.
//
// Branch bodies must allocate the arrays they write on the child machine
// they receive (reading parent arrays is fine: concurrent reads are free in
// both CREW and CRCW). Branches are executed sequentially in real time,
// which keeps the simulation deterministic; only the accounting is
// parallel. Child machines are created through the runtime (child), which
// hands them the parent's worker pool and observability handles, so
// recursive subproblems can neither fall back to a default pool nor
// disappear from the trace.
func (m *Machine) ParallelDo(procs []int, body func(b int, sub *Machine)) {
	var maxTime, maxSteps, sumWork int64
	for b := range procs {
		sub := m.child(procs[b])
		body(b, sub)
		if sub.time > maxTime {
			maxTime = sub.time
		}
		if sub.steps > maxSteps {
			maxSteps = sub.steps
		}
		sumWork += sub.work
		m.releaseChild(sub)
	}
	m.time += maxTime
	m.steps += maxSteps
	m.work += sumWork
}

// EvenSplit returns a processor vector assigning ceil(total/branches)
// processors to each of the branches.
func EvenSplit(total, branches int) []int {
	if branches <= 0 {
		return nil
	}
	per := (total + branches - 1) / branches
	if per < 1 {
		per = 1
	}
	out := make([]int, branches)
	for i := range out {
		out[i] = per
	}
	return out
}
