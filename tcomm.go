package srmcoll

// Task-engine execution of SPMD bodies. The goroutine engine behind Run
// spawns one sim.Proc per rank; at hundreds of thousands of ranks the
// goroutine stacks and channel handoffs dominate the host cost. The Task
// engine instead drives every rank as a resumable state machine on the
// event loop (see internal/sim Task and DESIGN.md §15): RunT executes a
// continuation-passing body on every rank, selected by Cluster.SetEngine.
//
// The same body runs on either engine. Under EngineProcs every TComm
// method delegates to the blocking Comm call and invokes its continuation
// synchronously before returning; under EngineTasks the methods call the
// collective bodies in internal/core directly. Both reach the same
// bodies — a Comm call runs them through the zero-item sim.Proc.Await
// bridge — so the two engines are bit-identical: same Result.Time,
// PerRank, Stats, Events, buffer contents, and trace timings. The request
// stream (request.go), the fault-tolerance runtime (ft.go) and the run
// harness (Cluster.runRanks) are shared the same way; RunT supplies only
// how a rank task is spawned, killed and interrupted.

import (
	"fmt"

	"srmcoll/internal/core"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// Engine selects how Run/RunT execute rank bodies.
type Engine int

const (
	// EngineProcs runs each rank as a goroutine process — the reference
	// engine, and the default.
	EngineProcs Engine = iota
	// EngineTasks steps each rank as a resumable state machine on the
	// event loop: no goroutine or stack per rank, so million-rank runs fit
	// in ordinary host memory. Requires the CPS body form of RunT.
	EngineTasks
)

// String returns the engine name used in reports.
func (e Engine) String() string {
	switch e {
	case EngineProcs:
		return "procs"
	case EngineTasks:
		return "tasks"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// SetEngine selects the execution engine for subsequent RunT calls.
// Run always uses the goroutine engine regardless of this setting.
func (cl *Cluster) SetEngine(e Engine) { cl.engine = e }

// Engine returns the cluster's current execution engine.
func (cl *Cluster) Engine() Engine { return cl.engine }

// TComm is the continuation-passing counterpart of Comm, handed to RunT
// bodies. Every operation takes its success continuation as the final
// argument; the continuation runs exactly once, after the operation
// completes (synchronously under EngineProcs, as a later event-loop step
// under EngineTasks). Identity accessors (Rank, Size, ...) are plain calls.
type TComm struct {
	c *Comm
	t *sim.Task   // nil under EngineProcs
	g *core.Group // the communicator's SRM group (nil for the MPI baselines)
}

// newTComm wraps c for a RunT body running on t (nil under EngineProcs).
func newTComm(c *Comm, t *sim.Task) *TComm {
	g, _ := c.coll.collOps.(*core.Group)
	return &TComm{c: c, t: t, g: g}
}

// Rank returns this task's global rank.
func (tc *TComm) Rank() int { return tc.c.rank }

// Size returns the number of ranks in this communicator.
func (tc *TComm) Size() int { return tc.c.size }

// Node returns the SMP node hosting this rank.
func (tc *TComm) Node() int { return tc.c.m.NodeOf(tc.c.rank) }

// LocalRank returns this rank's index within its node.
func (tc *TComm) LocalRank() int { return tc.c.m.LocalRank(tc.c.rank) }

// Members returns the communicator's global ranks in member order.
func (tc *TComm) Members() []int { return tc.c.Members() }

// FailedRanks returns the communicator members declared failed so far.
func (tc *TComm) FailedRanks() []int { return tc.c.FailedRanks() }

// Now returns the current virtual time in microseconds.
func (tc *TComm) Now() float64 { return tc.c.rs.env.Now() }

// Compute advances this rank's virtual clock by us microseconds, then runs k.
func (tc *TComm) Compute(us float64, k func()) {
	if tc.t == nil {
		tc.c.p.Sleep(us)
		k()
		return
	}
	tc.t.SleepThen(sim.Time(us), k)
}

// Sub returns a communicator over the given subset of global ranks; see
// Comm.Sub for the membership and call-matching rules.
func (tc *TComm) Sub(members []int) *TComm { return newTComm(tc.c.Sub(members), tc.t) }

// opT wraps a Task-engine collective entry: request-stream quiesce, the
// root trace span, and fault-tolerant execution, mirroring the blocking
// Comm methods (Comm.op) step for step.
func (tc *TComm) opT(name string, bytes int64, run func(t *sim.Task, fin func()), k func(error)) {
	c := tc.c
	c.quiesceT(tc.t, func() {
		id := c.tr.Begin(tc.t.Track(), trace.ClassOp, name, bytes)
		c.ftRunT(name, tc.t, func(fin func()) { run(tc.t, fin) }, func(err error) {
			c.tr.End(id)
			k(err)
		})
	})
}

// Barrier blocks until every rank has entered it, then runs k.
func (tc *TComm) Barrier(k func(error)) {
	if tc.t == nil {
		k(tc.c.Barrier())
		return
	}
	tc.opT("barrier", 0, func(t *sim.Task, fin func()) {
		tc.g.BarrierT(t, tc.c.rank, fin)
	}, k)
}

// Bcast broadcasts buf from root; see Comm.Bcast.
func (tc *TComm) Bcast(buf []byte, root int, k func(error)) {
	if tc.t == nil {
		k(tc.c.Bcast(buf, root))
		return
	}
	tc.opT("bcast", int64(len(buf)), func(t *sim.Task, fin func()) {
		tc.g.BcastT(t, tc.c.rank, buf, root, fin)
	}, k)
}

// Reduce combines send across ranks into recv at root; see Comm.Reduce.
func (tc *TComm) Reduce(send, recv []byte, dt Datatype, op Op, root int, k func(error)) {
	if tc.t == nil {
		k(tc.c.Reduce(send, recv, dt, op, root))
		return
	}
	tc.opT("reduce", int64(len(send)), func(t *sim.Task, fin func()) {
		tc.g.ReduceT(t, tc.c.rank, send, recv, dt, op, root, fin)
	}, k)
}

// Allreduce combines send across ranks into every rank's recv.
func (tc *TComm) Allreduce(send, recv []byte, dt Datatype, op Op, k func(error)) {
	if tc.t == nil {
		k(tc.c.Allreduce(send, recv, dt, op))
		return
	}
	tc.opT("allreduce", int64(len(send)), func(t *sim.Task, fin func()) {
		tc.g.AllreduceT(t, tc.c.rank, send, recv, dt, op, fin)
	}, k)
}

// Gather collects every rank's send block into recv at root.
func (tc *TComm) Gather(send, recv []byte, root int, k func(error)) {
	if tc.t == nil {
		k(tc.c.Gather(send, recv, root))
		return
	}
	tc.opT("gather", int64(len(send)), func(t *sim.Task, fin func()) {
		tc.g.GatherT(t, tc.c.rank, send, recv, root, fin)
	}, k)
}

// Scatter distributes root's send so each rank receives its block in recv.
func (tc *TComm) Scatter(send, recv []byte, root int, k func(error)) {
	if tc.t == nil {
		k(tc.c.Scatter(send, recv, root))
		return
	}
	tc.opT("scatter", int64(len(recv)), func(t *sim.Task, fin func()) {
		tc.g.ScatterT(t, tc.c.rank, send, recv, root, fin)
	}, k)
}

// Allgather concatenates every rank's send block into every rank's recv.
func (tc *TComm) Allgather(send, recv []byte, k func(error)) {
	if tc.t == nil {
		k(tc.c.Allgather(send, recv))
		return
	}
	tc.opT("allgather", int64(len(send)), func(t *sim.Task, fin func()) {
		tc.g.AllgatherT(t, tc.c.rank, send, recv, fin)
	}, k)
}

// Alltoall exchanges per-rank blocks; see Comm.Alltoall.
func (tc *TComm) Alltoall(send, recv []byte, k func(error)) {
	if tc.t == nil {
		k(tc.c.Alltoall(send, recv))
		return
	}
	tc.opT("alltoall", int64(len(send)), func(t *sim.Task, fin func()) {
		tc.g.AlltoallT(t, tc.c.rank, send, recv, fin)
	}, k)
}

// ReduceScatter combines send vectors elementwise and scatters the blocks.
func (tc *TComm) ReduceScatter(send, recv []byte, dt Datatype, op Op, k func(error)) {
	if tc.t == nil {
		k(tc.c.ReduceScatter(send, recv, dt, op))
		return
	}
	tc.opT("reducescatter", int64(len(send)), func(t *sim.Task, fin func()) {
		tc.g.ReduceScatterT(t, tc.c.rank, send, recv, dt, op, fin)
	}, k)
}

// Scan leaves the inclusive prefix reduction in recv.
func (tc *TComm) Scan(send, recv []byte, dt Datatype, op Op, k func(error)) {
	if tc.t == nil {
		k(tc.c.Scan(send, recv, dt, op))
		return
	}
	tc.opT("scan", int64(len(send)), func(t *sim.Task, fin func()) {
		tc.g.ScanT(t, tc.c.rank, send, recv, dt, op, fin)
	}, k)
}

// Exscan is the exclusive prefix reduction; rank 0's recv is zeroed.
func (tc *TComm) Exscan(send, recv []byte, dt Datatype, op Op, k func(error)) {
	if tc.t == nil {
		k(tc.c.Exscan(send, recv, dt, op))
		return
	}
	tc.opT("exscan", int64(len(send)), func(t *sim.Task, fin func()) {
		tc.g.ExscanT(t, tc.c.rank, send, recv, dt, op, fin)
	}, k)
}

// RunT executes a continuation-passing body on every rank of a fresh
// simulation, on the engine selected by SetEngine. The body must call done
// exactly once, after its last operation completed; done marks the rank
// finished (the CPS analogue of returning from a Run body).
//
// Under EngineProcs this delegates to Run — every TComm method completes
// synchronously — making it the conformance reference the Task engine is
// asserted bit-identical against. Error reporting matches Run.
func (cl *Cluster) RunT(impl Impl, body func(tc *TComm, done func())) (*Result, error) {
	if cl.engine == EngineProcs {
		return cl.Run(impl, func(c *Comm) {
			body(newTComm(c, nil), func() {})
		})
	}
	if impl != SRM {
		return nil, fmt.Errorf("srmcoll: the Tasks engine supports only the SRM implementation (got %s); use EngineProcs for baselines", impl)
	}
	return cl.runRanks(impl, rankEngine{
		spawn: func(env *sim.Env, c *Comm) proc {
			return env.SpawnTask("rank", c.rank, func(t *sim.Task) { body(newTComm(c, t), c.finish) })
		},
		kill:      func(env *sim.Env, p proc, reason string) { env.KillTask(p.(*sim.Task), reason) },
		interrupt: func(env *sim.Env, p proc, payload any) { env.InterruptTask(p.(*sim.Task), payload) },
	})
}
