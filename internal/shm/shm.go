// Package shm models the intra-node shared-memory domain of an SMP node:
// byte segments that all tasks of a node can address, and synchronization
// flags (one per cache line, as in the paper §2.2) with the spin-with-yield
// policy of §2.4. Data movement is real — segments are byte slices and
// copies actually move bytes — while time is charged through the machine
// cost model, including memory-bus contention.
package shm

import (
	"fmt"
	"sync"

	"srmcoll/internal/machine"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// Flag is a synchronization word in shared memory, assumed to occupy its
// own cache line. Setting it is an ordinary store; waiters observe the new
// value after the machine's wake latency (slightly higher when the spin
// loop yields its time slice, see machine.WakeLatency).
type Flag struct {
	m     *machine.Machine
	node  int
	val   int
	cond  *sim.Cond
	bcast func() // == cond.Broadcast, bound once so Set allocates nothing
}

// NewFlag creates a flag in node's shared memory, initialized to zero.
func NewFlag(m *machine.Machine, node int) *Flag {
	f := &Flag{m: m, node: node, cond: m.Env.NewCond()}
	f.bcast = f.cond.Broadcast
	return f
}

// Load returns the current value without waiting.
func (f *Flag) Load() int { return f.val }

// Set stores v. The store itself is free for the setter; spinning waiters
// observe it after the wake latency.
func (f *Flag) Set(v int) {
	f.val = v
	f.m.Env.After(f.m.WakeLatency(), f.bcast)
}

// WaitUntil spins until pred(value) holds. While spinning the task is
// counted as a (possibly non-yielding) spinner on its node, which the RMA
// layer consults for delivery starvation. Prefer WaitGE / WaitFor on hot
// paths: they park without allocating the predicate closure.
func (f *Flag) WaitUntil(p *sim.Proc, pred func(int) bool) {
	if pred(f.val) {
		return
	}
	id := f.m.Env.Trace.Begin(p.Track(), trace.ClassWaitFlag, "wait:flag", 0)
	f.m.SpinEnter(f.node)
	// Exit the spinner set via defer: a crash or fault-tolerance interrupt
	// unwinding through the wait must not leave a phantom spinner inflating
	// the node's starvation penalty forever.
	defer func() { f.m.SpinExit(f.node); f.m.Env.Trace.End(id) }()
	for !pred(f.val) {
		f.cond.WaitOn(p, f, -1)
	}
}

// WaitGE spins until the flag value is >= v. This covers the monotone
// counter waits of the SMP collectives (§2.2) without any per-wait closure.
func (f *Flag) WaitGE(p *sim.Proc, v int) {
	if f.val >= v {
		return
	}
	id := f.m.Env.Trace.Begin(p.Track(), trace.ClassWaitFlag, "wait:flag", 0)
	f.m.SpinEnter(f.node)
	defer func() { f.m.SpinExit(f.node); f.m.Env.Trace.End(id) }()
	for f.val < v {
		f.cond.WaitOn(p, f, v)
	}
}

// flagWait is a pooled continuation frame for a parked Task-engine flag
// wait: the predicate, resume, and unwind continuations are bound to the
// frame once, when the pool first materializes it, so the hot flag waits of
// a million-rank run allocate nothing per park. A frame is live from park
// to resume (a task parks on at most one thing at a time, and the simulator
// drops stale waiters on interrupt or death, so reuse is safe — the same
// contract the task's retryFn relies on).
type flagWait struct {
	f        *Flag
	t        *sim.Task
	v        int
	eq       bool // wait for == v rather than >= v
	id       int  // open trace span
	k        func()
	predFn   func() bool
	doneFn   func()
	unwindFn func()
}

var flagWaitPool = sync.Pool{New: func() any { return new(flagWait) }}

func (fr *flagWait) pred() bool {
	if fr.eq {
		return fr.f.val == fr.v
	}
	return fr.f.val >= fr.v
}

func (fr *flagWait) done() {
	f, t, id, k := fr.f, fr.t, fr.id, fr.k
	fr.release()
	t.PopUnwind()
	f.m.SpinExit(f.node)
	f.m.Env.Trace.End(id)
	k()
}

// unwind is the frame's compensation on a fault-tolerance interrupt: the
// waiter entry is already dropped by the interrupt delivery, so the frame
// can be recycled along with exiting the spinner set.
func (fr *flagWait) unwind() {
	f, id := fr.f, fr.id
	fr.release()
	f.m.SpinExit(f.node)
	f.m.Env.Trace.End(id)
}

func (fr *flagWait) release() {
	fr.f = nil
	fr.t = nil
	fr.k = nil
	flagWaitPool.Put(fr)
}

// park arms a pooled wait frame for f and suspends t until the predicate
// holds, exactly mirroring the Proc spin (spinner set, trace span, unwind
// compensation) without allocating per wait.
func (f *Flag) park(t *sim.Task, v int, eq bool, k func()) {
	fr := flagWaitPool.Get().(*flagWait)
	if fr.predFn == nil {
		// Bound once per frame, reused across the pool for its lifetime.
		fr.predFn = fr.pred
		fr.doneFn = fr.done
		fr.unwindFn = fr.unwind
	}
	fr.f, fr.t, fr.v, fr.eq, fr.k = f, t, v, eq, k
	fr.id = f.m.Env.Trace.Begin(t.Track(), trace.ClassWaitFlag, "wait:flag", 0)
	f.m.SpinEnter(f.node)
	// The Proc path exits the spinner set (and closes the span) via defer so
	// a fault-tolerance interrupt cannot leave a phantom spinner; for tasks
	// the same compensation rides the unwind stack (a no-op unless armed).
	t.PushUnwind(fr.unwindFn)
	f.cond.WaitUntilOnT(t, f, v, fr.predFn, fr.doneFn)
}

// WaitGET is WaitGE for the Task engine: the task spins (entering the
// node's spinner set exactly like a Proc) until the flag value is >= v,
// then resumes with k. A flag already at the value runs k within the
// current step — no virtual time passes, matching the Proc fast path.
func (f *Flag) WaitGET(t *sim.Task, v int, k func()) {
	if f.val >= v {
		k()
		return
	}
	f.park(t, v, false, k)
}

// WaitForT is WaitFor for the Task engine.
func (f *Flag) WaitForT(t *sim.Task, v int, k func()) {
	if f.val == v {
		k()
		return
	}
	f.park(t, v, true, k)
}

// WaitFor spins until the flag equals v.
func (f *Flag) WaitFor(p *sim.Proc, v int) {
	if f.val == v {
		return
	}
	id := f.m.Env.Trace.Begin(p.Track(), trace.ClassWaitFlag, "wait:flag", 0)
	f.m.SpinEnter(f.node)
	defer func() { f.m.SpinExit(f.node); f.m.Env.Trace.End(id) }()
	for f.val != v {
		f.cond.WaitOn(p, f, v)
	}
}

// DescribeWait implements sim.WaitDescriber for stall reports.
func (f *Flag) DescribeWait(want int) string {
	if want >= 0 {
		return fmt.Sprintf("shm flag %s on node %d: value %d, want %d",
			f.cond.ID(), f.node, f.val, want)
	}
	return fmt.Sprintf("shm flag %s on node %d: value %d", f.cond.ID(), f.node, f.val)
}

// FlagSet is one flag per local task, as used by the SMP barrier and
// broadcast (§2.2): "each flag is located on a different cache line".
type FlagSet struct {
	flags []*Flag
}

// NewFlagSet creates n zero flags on the node.
func NewFlagSet(m *machine.Machine, node, n int) *FlagSet {
	fs := &FlagSet{flags: make([]*Flag, n)}
	for i := range fs.flags {
		fs.flags[i] = NewFlag(m, node)
	}
	return fs
}

// Len returns the number of flags.
func (fs *FlagSet) Len() int { return len(fs.flags) }

// Flag returns the i-th flag.
func (fs *FlagSet) Flag(i int) *Flag { return fs.flags[i] }

// SetAll stores v into every flag.
func (fs *FlagSet) SetAll(v int) {
	for _, f := range fs.flags {
		f.Set(v)
	}
}

// WaitAllT spins until every flag except those listed in skip equals v,
// then runs k; the flags are awaited one at a time in index order. The
// master uses it to wait for all other tasks to check in.
func (fs *FlagSet) WaitAllT(t *sim.Task, v int, k func(), skip ...int) {
	var step func(i int)
	step = func(i int) {
		for {
			if i >= len(fs.flags) {
				k()
				return
			}
			sk := false
			for _, s := range skip {
				if s == i {
					sk = true
					break
				}
			}
			if !sk {
				break
			}
			i++
		}
		fs.flags[i].WaitForT(t, v, func() { step(i + 1) })
	}
	step(0)
}

// Segment is a byte buffer in a node's shared memory.
type Segment struct {
	m    *machine.Machine
	node int
	buf  []byte
}

// NewSegment allocates a size-byte segment on the node.
func NewSegment(m *machine.Machine, node, size int) *Segment {
	return &Segment{m: m, node: node, buf: make([]byte, size)}
}

// Node returns the hosting node.
func (s *Segment) Node() int { return s.node }

// Len returns the segment size.
func (s *Segment) Len() int { return len(s.buf) }

// Bytes exposes the backing storage. Remote memory access (put) targets
// shared segments through this view; intra-node users should prefer
// CopyIn/CopyOut so copy time is charged.
func (s *Segment) Bytes() []byte { return s.buf }

// Slice returns the sub-range [off, off+n) of the segment.
func (s *Segment) Slice(off, n int) []byte {
	if off < 0 || n < 0 || off+n > len(s.buf) {
		panic(fmt.Sprintf("shm: slice [%d,%d) out of segment of %d bytes", off, off+n, len(s.buf)))
	}
	return s.buf[off : off+n]
}

// CopyIn copies src into the segment at off, charging contended copy time.
func (s *Segment) CopyIn(p *sim.Proc, off int, src []byte) {
	s.m.Memcpy(p, s.node, s.Slice(off, len(src)), src)
}

// CopyOut copies the segment range starting at off into dst.
func (s *Segment) CopyOut(p *sim.Proc, dst []byte, off int) {
	s.m.Memcpy(p, s.node, dst, s.Slice(off, len(dst)))
}

// CopyInT is CopyIn for the Task engine.
func (s *Segment) CopyInT(t *sim.Task, off int, src []byte, k func()) {
	s.m.MemcpyT(t, s.node, s.Slice(off, len(src)), src, k)
}

// CopyOutT is CopyOut for the Task engine.
func (s *Segment) CopyOutT(t *sim.Task, dst []byte, off int, k func()) {
	s.m.MemcpyT(t, s.node, dst, s.Slice(off, len(dst)), k)
}
