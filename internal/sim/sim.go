// Package sim implements a small deterministic discrete-event simulation
// (DES) engine. Simulated entities are cooperative processes backed by
// goroutines: exactly one process runs at a time, handing control back to
// the scheduler whenever it blocks (Sleep, WaitEvent, ...). Because of this
// strict alternation, simulation state needs no locking and every run is
// fully deterministic: events at equal timestamps fire in schedule order.
//
// Time is a float64 in microseconds by convention of this repository.
package sim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"srmcoll/internal/trace"
)

// Time is a point in (or duration of) virtual time, in microseconds.
type Time = float64

// Env is a simulation environment: a virtual clock plus an event queue.
// The zero value is not usable; call NewEnv.
type Env struct {
	// Trace, when non-nil, records timed spans of simulation activity
	// (see internal/trace). Hooks throughout the machine/rma/core layers
	// call its nil-safe methods, so leaving it nil disables tracing with
	// no allocation or branch cost beyond the nil checks.
	Trace *trace.Trace

	now       Time
	queue     *calQueue
	seq       uint64
	live      int            // spawned processes and tasks that have not finished
	parked    map[*Proc]bool // processes blocked with no scheduled wake-up
	tparked   map[*Task]bool // tasks blocked with no scheduled wake-up
	yield     chan struct{}  // running process -> scheduler handoff
	cur       *Proc
	stopped   bool
	resSeq    int           // id source for conds/events (stall reports)
	failures  []ProcFailure // processes that panicked (recovered)
	free      []*item       // recycled queue items (steady state allocates none)
	processed uint64        // queue items executed so far

	// OnFailure, when non-nil, is called immediately after a process
	// failure is recorded (from the failing goroutine, before control
	// returns to the scheduler). Fault-tolerance layers use it to classify
	// deaths and schedule detection. The hook must not block or park; it
	// may schedule callbacks via At/After and inspect simulation state.
	OnFailure func(p *Proc, f ProcFailure)

	// OnTaskFailure is the Task-engine counterpart of OnFailure, called when
	// a task step panics, is killed, or takes an unhandled interrupt.
	OnTaskFailure func(t *Task, f ProcFailure)
}

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env {
	return &Env{
		queue:   newCalQueue(),
		parked:  make(map[*Proc]bool),
		tparked: make(map[*Task]bool),
		// Buffered so the handoff sends never block: the sender continues to
		// its own receive (or exit) without a cross-goroutine rendezvous,
		// halving scheduler wake-ups per process switch. Alternation is
		// still strict — the scheduler does not proceed past wake() until it
		// has received the process's yield.
		yield: make(chan struct{}, 1),
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Events returns the number of queue items (callbacks and process wake-ups)
// executed so far. Perf harnesses use it to derive events/sec.
func (e *Env) Events() uint64 { return e.processed }

// item is one scheduled occurrence: a callback, a process wake-up, or a
// task resume.
type item struct {
	t   Time
	seq uint64
	fn  func()
	p   *Proc
	tk  *Task
}

// eventHeap is a (t, seq)-ordered binary min-heap of items, manipulated
// through the shared heapPush/heapPop primitives in calqueue.go. The
// calendar queue uses it as the far-future overflow store; the calendar
// property tests use it as the reference ordering.
type eventHeap []*item

// pushItem schedules one occurrence, reusing a recycled item if available.
func (e *Env) pushItem(t Time, fn func(), p *Proc) {
	var it *item
	if n := len(e.free); n > 0 {
		it = e.free[n-1]
		e.free = e.free[:n-1]
		it.t, it.fn, it.p = t, fn, p
	} else {
		it = &item{t: t, fn: fn, p: p}
	}
	it.seq = e.seq
	e.seq++
	e.queue.push(it)
}

// pushTask schedules a task resume, reusing a recycled item if available.
func (e *Env) pushTask(t Time, tk *Task) {
	var it *item
	if n := len(e.free); n > 0 {
		it = e.free[n-1]
		e.free = e.free[:n-1]
		it.t = t
	} else {
		it = &item{t: t}
	}
	it.tk = tk
	it.seq = e.seq
	e.seq++
	e.queue.push(it)
}

// recycle returns an executed item to the free list.
func (e *Env) recycle(it *item) {
	it.fn = nil
	it.p = nil
	it.tk = nil
	e.free = append(e.free, it)
}

func (e *Env) schedule(t Time, f func()) {
	if t < e.now {
		t = e.now
	}
	e.pushItem(t, f, nil)
}

// At schedules fn to run at absolute time t (clamped to now).
func (e *Env) At(t Time, fn func()) { e.schedule(t, fn) }

// After schedules fn to run d from now.
func (e *Env) After(d Time, fn func()) { e.schedule(e.now+d, fn) }

// WaitDescriber describes what a parked process is waiting for; the
// description is only rendered if the wait lands in a stall or deadlock
// report, so implementations may format freely. want carries the awaited
// value recorded at park time (negative: no specific value).
type WaitDescriber interface {
	DescribeWait(want int) string
}

// waitable is a synchronization resource a process can park on; waitID is
// the lazily formatted id or label used in wait-graph reports. dropWaiter
// removes a process from the resource's waiter list without waking it —
// Env.Interrupt uses it so an interrupted process does not linger as a
// stale waiter (which would cause spurious wakes or double entries when
// the process parks somewhere else).
type waitable interface {
	waitID() string
	dropWaiter(p *Proc)
}

// Proc is a simulated process. Methods on Proc must only be called from the
// process's own goroutine (i.e. inside the function passed to Spawn);
// exceptions (Env.Kill, Env.SetSlowdown) are called out explicitly.
type Proc struct {
	env    *Env
	prefix string // full name, or name prefix when num >= 0
	num    int    // index appended to prefix; -1 when prefix is the name
	name   string // cached formatted name (built on first Name call)
	resume chan struct{}
	track  int // trace track id, or -1 when the process is untracked
	done   bool
	killed string  // non-empty: injected crash reason, raised at next resume
	intr   any     // pending interrupt payload, panicked at next resume
	slow   float64 // Sleep stretch factor (stall windows); 0 or 1 = none

	// Await bridge state (await.go): the hosted task bodies run on, the
	// continuation handed to them (bound once), whether the current body
	// has completed, whether the Proc is blocked waiting for it, and a
	// panic from a hosted step waiting to be raised on this stack.
	host      *Task
	awaitK    func()
	awaitDone bool
	awaiting  bool
	hostPanic any

	// Wait context, set while the process is parked with no scheduled
	// wake-up (Event/Cond/Resource waits). Used by stall reports; nothing
	// here is formatted unless a report is actually built.
	waitOn    waitable
	waitObj   WaitDescriber
	waitWant  int
	waitDesc  func() string // optional richer description, evaluated lazily
	waitSince Time
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// SetTrack assigns the process a trace track; spans recorded on behalf of
// this process land on that timeline. Processes default to track -1
// (untracked: their spans are dropped).
func (p *Proc) SetTrack(track int) { p.track = track }

// Track returns the process's trace track (-1 when untracked).
func (p *Proc) Track() int { return p.track }

// Name returns the name given at Spawn time. For SpawnIndexed processes the
// string is formatted on first use and cached: the hot spawn path never
// allocates a name that no report will read.
func (p *Proc) Name() string {
	if p.name == "" {
		if p.num < 0 {
			p.name = p.prefix
		} else {
			p.name = p.prefix + strconv.Itoa(p.num)
		}
	}
	return p.name
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Spawn creates a process that will start running fn at the current virtual
// time (after already-scheduled events at this timestamp).
//
// A panic inside fn does not kill the host program: it is recovered,
// recorded as a ProcFailure (see Env.Failures), and the process counts as
// finished. Run surfaces recorded failures as a *CrashError.
func (e *Env) Spawn(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, -1, fn)
}

// SpawnIndexed is Spawn with the name prefix+itoa(num), formatted lazily:
// per-operation helper processes (rank bodies, isend/irecv helpers) are
// spawned on hot paths where the name is read only by failure reports.
func (e *Env) SpawnIndexed(prefix string, num int, fn func(*Proc)) *Proc {
	return e.spawn(prefix, num, fn)
}

func (e *Env) spawn(prefix string, num int, fn func(*Proc)) *Proc {
	p := &Proc{env: e, prefix: prefix, num: num, track: -1, resume: make(chan struct{}, 1)}
	e.live++
	go func() {
		<-p.resume // wait for first scheduling
		defer func() {
			if r := recover(); r != nil {
				f := ProcFailure{Proc: p.Name(), Time: e.now, Cause: r}
				e.failures = append(e.failures, f)
				if e.OnFailure != nil {
					e.OnFailure(p, f)
				}
			}
			p.done = true
			e.live--
			e.yield <- struct{}{}
		}()
		p.checkKilled()
		fn(p)
	}()
	e.pushItem(e.now, nil, p)
	return p
}

// checkKilled raises a pending injected crash on the process's own stack.
func (p *Proc) checkKilled() {
	if p.killed != "" {
		panic(Crashed{Reason: p.killed})
	}
}

// Crashed is the panic payload raised in a process killed by Env.Kill.
type Crashed struct{ Reason string }

func (c Crashed) Error() string { return "sim: process crashed: " + c.Reason }

// Kill schedules an injected crash of p: the process panics with a Crashed
// the next time it would run (immediately at the current virtual time if it
// is blocked). Killing a finished or already-killed process is a no-op.
// Unlike most process operations, Kill is called from event callbacks, not
// from p's own goroutine.
func (e *Env) Kill(p *Proc, reason string) {
	if p.done || p.killed != "" {
		return
	}
	if reason == "" {
		reason = "killed"
	}
	p.killed = reason
	if e.parked[p] {
		e.unblock(p) // deliver the crash now instead of never
	} else {
		e.deliverHosted(p)
	}
	// Otherwise the process (or the task it awaits) is sleeping, or not yet
	// started, and its queued wake-up delivers the crash.
}

// Interrupt delivers an asynchronous interrupt to p: the process panics
// with payload the next time it would run (immediately at the current
// virtual time if it is parked on an Event or Cond). Unlike Kill the
// process is expected to survive — a recover along its call stack (e.g.
// the fault-tolerant collective wrapper) turns the unwind into a
// structured error. If the process is parked, it is first removed from
// the waiter list of the resource it parked on, so no stale waiter entry
// remains. Interrupting a finished, killed, or already-interrupted
// process is a no-op, as is a nil payload. Like Kill, Interrupt is called
// from event callbacks, not from p's own goroutine.
func (e *Env) Interrupt(p *Proc, payload any) {
	if p.done || p.killed != "" || p.intr != nil || payload == nil {
		return
	}
	p.intr = payload
	if e.parked[p] {
		if p.waitOn != nil {
			p.waitOn.dropWaiter(p)
		}
		e.unblock(p)
	} else {
		e.deliverHosted(p)
	}
	// Otherwise the process (or the task it awaits) is sleeping, or running
	// to its next park, and its next resume delivers the interrupt.
}

// SetSlowdown stretches p's subsequent Sleep durations by factor, modeling
// a task that lost its CPU (stall windows in fault plans); the sleeps of a
// body p runs through Await stretch too. Factor 0 or 1 clears the stall.
// Called from event callbacks, not from p's goroutine.
func (e *Env) SetSlowdown(p *Proc, factor float64) {
	if factor < 0 {
		factor = 0
	}
	p.slow = factor
}

// ProcFailure records a process that panicked; Cause is the recovered
// panic value (a Crashed for injected crashes).
type ProcFailure struct {
	Proc  string
	Time  Time
	Cause any
}

// CrashError is returned by Run when one or more processes panicked.
type CrashError struct{ Failures []ProcFailure }

func (c *CrashError) Error() string {
	parts := make([]string, len(c.Failures))
	for i, f := range c.Failures {
		parts[i] = fmt.Sprintf("%s at t=%.3f: %v", f.Proc, f.Time, f.Cause)
	}
	return "sim: " + fmt.Sprintf("%d process(es) crashed: ", len(c.Failures)) + strings.Join(parts, "; ")
}

// Failures returns the processes that panicked so far, in crash order.
func (e *Env) Failures() []ProcFailure {
	return append([]ProcFailure(nil), e.failures...)
}

// Live returns the number of spawned processes that have not finished.
func (e *Env) Live() int { return e.live }

// wake transfers control to p and blocks until p parks or finishes.
func (e *Env) wake(p *Proc) {
	if p.done {
		return
	}
	prev := e.cur
	e.cur = p
	p.resume <- struct{}{}
	<-e.yield
	e.cur = prev
}

// park suspends the calling process until the scheduler resumes it.
//
// The yield send never blocks (the channel is buffered and the scheduler is
// the sole receiver, waiting in wake); between the send and the resume
// receive the process touches no simulation state, so the scheduler may
// safely start running before this goroutine reaches the receive.
func (p *Proc) park() {
	p.env.yield <- struct{}{}
	<-p.resume
	p.checkKilled()
	p.checkInterrupt()
}

// checkInterrupt raises a pending interrupt on the process's own stack. An
// injected crash (checkKilled) takes precedence: a dead process does not
// observe interrupts.
func (p *Proc) checkInterrupt() {
	if p.intr != nil {
		v := p.intr
		p.intr = nil
		panic(v)
	}
}

// Sleep advances the process by d virtual time (negative d counts as zero).
// An active slowdown (Env.SetSlowdown) stretches d.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	if p.slow > 1 {
		d *= p.slow
	}
	p.env.pushItem(p.env.now+d, nil, p)
	p.park()
}

// Yield reschedules the process at the current time, letting other
// already-scheduled work at this timestamp run first.
func (p *Proc) Yield() { p.Sleep(0) }

// parkOn blocks the process indefinitely on a waitable; something else must
// hold a reference and wake it via an Event or Cond. obj/want or desc
// (mutually optional) enrich stall reports; nothing is formatted here.
func (p *Proc) parkOn(on waitable, obj WaitDescriber, want int, desc func() string) {
	p.env.parked[p] = true
	p.waitOn = on
	p.waitObj = obj
	p.waitWant = want
	p.waitDesc = desc
	p.waitSince = p.env.now
	p.park()
	p.waitOn = nil
	p.waitObj = nil
	p.waitDesc = nil
}

func (e *Env) unblock(p *Proc) {
	if !e.parked[p] {
		if p.done || p.killed != "" {
			// Stale waiter entry: the process crashed or was killed while
			// on a waiters list. Nothing to wake.
			return
		}
		panic("sim: unblock of process that is not parked: " + p.Name())
	}
	delete(e.parked, p)
	e.pushItem(e.now, nil, p)
}

// BlockedProc is a snapshot of one process blocked with no scheduled
// wake-up: its name, when it parked, and what it waits on.
type BlockedProc struct {
	Name     string
	Since    Time   // virtual time the process parked
	Resource string // id or label of the cond/event/resource waited on
	Waiting  string // human-readable wait context
}

// Blocked returns a snapshot of every parked process and task, sorted by
// name. It is valid at any point the scheduler is in control (between
// events, after Run or RunUntil return) and backs stall and deadlock
// reports.
func (e *Env) Blocked() []BlockedProc {
	out := make([]BlockedProc, 0, len(e.parked)+len(e.tparked))
	for p := range e.parked {
		b := BlockedProc{Name: p.Name(), Since: p.waitSince}
		if p.waitOn != nil {
			b.Resource = p.waitOn.waitID()
		}
		switch {
		case p.waitDesc != nil:
			b.Waiting = p.waitDesc()
		case p.waitObj != nil:
			b.Waiting = p.waitObj.DescribeWait(p.waitWant)
		default:
			b.Waiting = b.Resource
		}
		out = append(out, b)
	}
	for t := range e.tparked {
		b := BlockedProc{Name: t.Name(), Since: t.waitSince}
		if t.waitOn != nil {
			b.Resource = t.waitOn.waitID()
		}
		if t.waitObj != nil {
			b.Waiting = t.waitObj.DescribeWait(t.waitWant)
		} else {
			b.Waiting = b.Resource
		}
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// nextResNum assigns a deterministic sequence number to a synchronization
// resource; the "kind#N" id string is only formatted if a report asks.
func (e *Env) nextResNum() int {
	e.resSeq++
	return e.resSeq
}

// Event is a one-shot occurrence processes can wait on. After Trigger,
// waiting is a no-op. The zero value is not usable; use Env.NewEvent.
type Event struct {
	env      *Env
	num      int    // sequence for the default id
	id       string // label from Named, or cached formatted id
	done     bool
	waiters  []*Proc
	twaiters []*Task
}

// NewEvent returns an untriggered event.
func (e *Env) NewEvent() *Event { return &Event{env: e, num: e.nextResNum()} }

// Named sets a human-readable label used in stall reports and returns ev.
func (ev *Event) Named(name string) *Event { ev.id = name; return ev }

// ID returns the event's id or label.
func (ev *Event) ID() string {
	if ev.id == "" {
		ev.id = "event#" + strconv.Itoa(ev.num)
	}
	return ev.id
}

func (ev *Event) waitID() string { return ev.ID() }

func (ev *Event) dropWaiter(p *Proc) {
	for i, w := range ev.waiters {
		if w == p {
			ev.waiters = append(ev.waiters[:i], ev.waiters[i+1:]...)
			return
		}
	}
}

func (ev *Event) dropTaskWaiter(t *Task) {
	for i, w := range ev.twaiters {
		if w == t {
			ev.twaiters = append(ev.twaiters[:i], ev.twaiters[i+1:]...)
			return
		}
	}
}

// Done reports whether the event has been triggered.
func (ev *Event) Done() bool { return ev.done }

// Trigger fires the event at the current virtual time, waking all waiters.
// Triggering an already-done event is a no-op.
func (ev *Event) Trigger() {
	if ev.done {
		return
	}
	ev.done = true
	for _, p := range ev.waiters {
		ev.env.unblock(p)
	}
	ev.waiters = nil
	for _, t := range ev.twaiters {
		ev.env.unblockTask(t)
	}
	ev.twaiters = nil
}

// TriggerAfter schedules the event to fire d from now.
func (ev *Event) TriggerAfter(d Time) { ev.env.After(d, ev.Trigger) }

// Wait blocks the process until the event has been triggered.
func (p *Proc) Wait(ev *Event) {
	if ev.done {
		return
	}
	ev.waiters = append(ev.waiters, p)
	p.parkOn(ev, nil, -1, nil)
}

// WaitAll blocks until every event has been triggered.
func (p *Proc) WaitAll(evs ...*Event) {
	for _, ev := range evs {
		p.Wait(ev)
	}
}

// Cond is a broadcast-style condition: Wait blocks until the next Broadcast.
// Unlike Event it can be signalled repeatedly.
type Cond struct {
	env      *Env
	num      int    // sequence for the default id
	id       string // label from Named, or cached formatted id
	waiters  []*Proc
	twaiters []*Task
}

// NewCond returns a condition bound to the environment.
func (e *Env) NewCond() *Cond { return &Cond{env: e, num: e.nextResNum()} }

// Named sets a human-readable label used in stall reports and returns c.
func (c *Cond) Named(name string) *Cond { c.id = name; return c }

// ID returns the condition's id or label.
func (c *Cond) ID() string {
	if c.id == "" {
		c.id = "cond#" + strconv.Itoa(c.num)
	}
	return c.id
}

func (c *Cond) waitID() string { return c.ID() }

func (c *Cond) dropWaiter(p *Proc) {
	for i, w := range c.waiters {
		if w == p {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

func (c *Cond) dropTaskWaiter(t *Task) {
	for i, w := range c.twaiters {
		if w == t {
			c.twaiters = append(c.twaiters[:i], c.twaiters[i+1:]...)
			return
		}
	}
}

// Wait blocks the process until the next Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.parkOn(c, nil, -1, nil)
}

// WaitReason is Wait with a description of what the process waits for,
// evaluated lazily if the wait ends up in a stall or deadlock report.
func (c *Cond) WaitReason(p *Proc, desc func() string) {
	c.waiters = append(c.waiters, p)
	p.parkOn(c, nil, -1, desc)
}

// WaitOn is the allocation-free flavor of WaitReason: instead of a closure
// it records a WaitDescriber plus the awaited value, formatted only if the
// wait lands in a stall or deadlock report. Hot synchronization paths (shm
// flags, RMA counters) use it so a park sets up no heap state at all.
func (c *Cond) WaitOn(p *Proc, obj WaitDescriber, want int) {
	c.waiters = append(c.waiters, p)
	p.parkOn(c, obj, want, nil)
}

// Broadcast wakes every currently waiting process and task at the current
// time. Process waiters wake before task waiters; within each engine the
// wake order is the wait order. (The two engines never share a condition in
// practice — protocol objects are waited on from one engine per run.)
func (c *Cond) Broadcast() {
	for _, p := range c.waiters {
		c.env.unblock(p)
	}
	c.waiters = c.waiters[:0]
	// Waking a task only schedules its resume item — no task code runs
	// inside this loop — so draining in place is safe, as for Procs.
	for _, t := range c.twaiters {
		c.env.unblockTask(t)
	}
	c.twaiters = c.twaiters[:0]
}

// WaitUntil blocks the process until pred() holds, re-checking after every
// Broadcast of c. It evaluates pred immediately first.
func (c *Cond) WaitUntil(p *Proc, pred func() bool) {
	for !pred() {
		c.Wait(p)
	}
}

// DeadlockError is returned by Run when processes remain blocked after the
// event queue drains. Beyond the blocked names it carries per-process wait
// context (Procs) and a wait-graph snapshot mapping each resource to the
// processes parked on it, so a silent hang reads as a structured report.
type DeadlockError struct {
	Time      Time
	Blocked   []string            // blocked process names, sorted
	Procs     []BlockedProc       // per-process wait context, sorted by name
	WaitGraph map[string][]string // resource id/label -> waiting process names
}

func (d *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock at t=%.3f: %d blocked: %s",
		d.Time, len(d.Blocked), strings.Join(d.Blocked, ", "))
	for _, p := range d.Procs {
		fmt.Fprintf(&b, "\n  %s: waiting on %s (blocked since t=%.3f)", p.Name, p.Waiting, p.Since)
	}
	return b.String()
}

// deadlock builds the structured report from the current parked set.
func (e *Env) deadlock() *DeadlockError {
	procs := e.Blocked()
	d := &DeadlockError{Time: e.now, Procs: procs, WaitGraph: make(map[string][]string)}
	for _, p := range procs {
		d.Blocked = append(d.Blocked, p.Name)
		res := p.Resource
		if res == "" {
			res = "(unknown)"
		}
		d.WaitGraph[res] = append(d.WaitGraph[res], p.Name)
	}
	return d
}

// Run executes events until the queue is empty. If any process panicked it
// returns a *CrashError; otherwise, if live processes remain blocked, a
// *DeadlockError naming them.
func (e *Env) Run() error { return e.RunUntil(-1) }

// RunUntil executes events with timestamps <= limit (limit < 0 means no
// limit).
//
// Limit semantics: when the limit stops the run early, RunUntil normally
// returns nil — events beyond the limit may still make progress, and the
// caller can resume with another RunUntil or Run call, or inspect parked
// processes via Blocked. However, if every remaining queued event is
// impotent (a wake-up of an already-finished process) while live processes
// remain blocked, no amount of further running can wake them, and RunUntil
// returns a *DeadlockError instead of nil. Pending callbacks are
// conservatively treated as able to make progress, since they may trigger
// events or broadcast conditions.
//
// Process panics recovered during the run surface as a *CrashError, which
// takes precedence over deadlock reporting (the crash is the root cause).
func (e *Env) RunUntil(limit Time) error {
	for e.queue.Len() > 0 {
		it := e.queue.peek()
		if limit >= 0 && it.t > limit {
			if len(e.failures) > 0 {
				return &CrashError{Failures: e.Failures()}
			}
			if e.live > 0 && !e.anyPotentialProgress() {
				return e.deadlock()
			}
			return nil
		}
		e.queue.pop()
		e.now = it.t
		e.processed++
		// Recycle before executing so callbacks can reuse the slot; the
		// fields are copied out first.
		fn, p, tk := it.fn, it.p, it.tk
		e.recycle(it)
		if fn != nil {
			fn()
			continue
		}
		if tk != nil {
			e.runTask(tk)
			continue
		}
		e.wake(p)
	}
	if len(e.failures) > 0 {
		return &CrashError{Failures: e.Failures()}
	}
	if e.live > 0 {
		return e.deadlock()
	}
	return nil
}

// DeadlockReport builds a structured report of the currently blocked
// processes, or nil when no live processes remain. Fault-tolerant drivers
// use it after filtering expected crashes out of a *CrashError to decide
// whether the survivors actually deadlocked.
func (e *Env) DeadlockReport() *DeadlockError {
	if e.live == 0 {
		return nil
	}
	return e.deadlock()
}

// Idle reports whether no queued event can still change simulation state
// (every remaining item is a wake-up of an already-finished process).
func (e *Env) Idle() bool { return !e.anyPotentialProgress() }

// anyPotentialProgress reports whether any queued event could still change
// simulation state: a callback (opaque, assumed potent) or a wake-up of a
// process that has not finished.
func (e *Env) anyPotentialProgress() bool {
	potent := false
	e.queue.forEach(func(it *item) bool {
		if it.fn != nil || (it.p != nil && !it.p.done) || (it.tk != nil && !it.tk.done) {
			potent = true
			return false
		}
		return true
	})
	return potent
}
