package pram

import "monge/internal/exec"

// ParallelDo composes len(procs) independent sub-computations that the
// simulated machine executes simultaneously on disjoint processor groups:
// branch b runs on a child machine declaring procs[b] processors. The
// parent is charged the MAXIMUM child time and step count (the groups run
// side by side) and the SUM of child work (exec.ParallelDo). This
// realizes the paper's processor-allocation arguments ("assign s + v_i
// processors to the i-th region") without a global renumbering step; the
// closed-form offsets that a real PRAM would compute are O(1) arithmetic
// per group.
//
// Branch bodies must allocate the arrays they write on the child machine
// they receive (reading parent arrays is fine: concurrent reads are free in
// both CREW and CRCW). Branches are executed sequentially in real time,
// which keeps the simulation deterministic; only the accounting is
// parallel.
func (m *Machine) ParallelDo(procs []int, body func(b int, sub *Machine)) {
	var maxSteps int64
	exec.ParallelDo(&m.Sim, len(procs),
		func(b int) *Machine { return m.child(procs[b]) },
		func(b int, sub *Machine) {
			body(b, sub)
			maxSteps = max(maxSteps, sub.steps)
		})
	m.steps += maxSteps
}
