package core

import "srmcoll/internal/sim"

// Every collective has exactly one body, written for the Task engine in
// continuation-passing style. Task callers (TComm, the request streams)
// call the *T entry points directly; goroutine Proc callers (Cluster.Run
// SPMD bodies, the fault-tolerant and non-blocking wrappers, baselines and
// experiments) call the Proc entry points, each a one-line bridge that runs
// the same body through sim.Proc.Await. The bridge adds no event-loop
// items, so a collective costs the same events, reaches the same virtual
// instants and records the same Stats from either kind of caller.
//
// CPS conventions (see DESIGN.md §15): every body takes its continuation as
// the last parameter and calls it exactly once, as the final action of the
// step that completes the operation; loops become tail-recursive step
// functions; state a goroutine would restore with defer is restored in the
// final continuation and, for interrupted or killed callers, by an
// unwind-stack entry (armed under fault-tolerant execution and always for
// a Proc's hosted task).

// opDone builds the final continuation of a collective entry: it retires
// the member from the operation's entry, and the entry's unwind rides the
// unwind stack, so an interrupted operation still retires it.
func opDone(t *sim.Task, e *opEntry, kont func()) func() {
	t.PushUnwind(e.abort)
	return func() {
		t.PopUnwind()
		e.leave()
		kont()
	}
}

// combineCharge charges the cost of one elementwise combine over n bytes,
// then runs k.
func (s *SRM) combineCharge(t *sim.Task, n, elemSize int, k func()) {
	t.SleepThen(s.m.CombineTime(n), func() {
		s.m.Stats.AddReduce(n / max(1, elemSize))
		k()
	})
}
