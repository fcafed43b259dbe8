package sim

import "strconv"

// Task is the scheduler's second process engine: a resumable state machine
// driven directly by the event loop. A Proc costs a goroutine stack plus a
// channel rendezvous per scheduler switch; a Task costs one small struct,
// and suspending it is a pointer store. Protocol hot loops (RMA put/ack,
// SMP flag synchronization, request streams) run as Tasks so simulations
// scale to tens of thousands of ranks; user compute callbacks and the
// chaos/fault-tolerance paths keep the Proc API and run Task protocol
// bodies through Proc.Await (await.go).
//
// A Task is written in continuation-passing style. Each step runs to
// completion inside the event loop and must end in exactly one of three
// ways: suspend by calling a blocking primitive (SleepThen, YieldThen,
// Cond.WaitOnT, Event.WaitT, ...) as its final action, or fall off the end,
// which finishes the task. Blocking primitives take the continuation to run
// on resume; calling one anywhere but the tail of a step is a bug (the rest
// of the step would run before the wait completes in virtual time).
//
// Determinism is shared with Procs: a resumed Task is an ordinary queue
// item, ordered by (time, sequence number) like every other occurrence.
type Task struct {
	env    *Env
	prefix string      // full name, or name prefix when num >= 0
	num    int         // index appended to prefix; -1 when prefix is the name
	name   string      // cached formatted name (built on first Name call)
	track  int         // trace track id, or -1 when untracked
	k      func()      // continuation to run at the next resume
	start  func(*Task) // first step, held directly so spawning allocates no closure
	parked bool        // suspended on a waitable with no scheduled wake-up
	done   bool
	killed string // non-empty: injected crash reason, raised at next resume
	intr   any    // pending interrupt payload, delivered at next resume

	// OnInterrupt, when non-nil, handles an Env.InterruptTask delivery: the
	// pending continuation is discarded and the handler runs as a step (it
	// may re-arm waits or reschedule to survive, the CPS analogue of a
	// recover along a Proc's stack). A task without a handler dies with the
	// payload recorded as its failure cause.
	OnInterrupt func(payload any)

	// Wait context while parked, mirroring Proc's; read by stall reports.
	waitOn    taskParkable
	waitObj   WaitDescriber
	waitWant  int
	waitSince Time

	// Struct-held predicate-wait frame. waitUntilT re-arms through retryFn —
	// allocated once per task — instead of building a fresh recursive closure
	// per wait, so the hottest protocol loops (flag spins, counter waits)
	// park and retry without CPS garbage.
	waitPred func() bool
	waitK    func()
	predCond *Cond
	predObj  WaitDescriber
	predWant int
	retryFn  func()

	// Unwind stack, armed inside fault-sensitive operations and always on
	// a Proc's hosted task: blocking primitives that would restore state
	// via defer on the Proc engine (dispatcher inCall, spinner counts, open
	// trace spans) push a compensation here instead, and an interrupt or
	// failure delivery runs the stack LIFO. Disarmed (the default for
	// spawned tasks), Push/Pop are no-ops so the fault-free hot paths pay a
	// single bool check.
	unwinds     []func()
	unwindArmed bool

	// host is the Proc this task runs bodies for via Proc.Await (nil for
	// spawned tasks). A hosted task takes its name, stall stretch, and kill
	// and interrupt deliveries from the host, and is not counted in Live.
	host *Proc
}

// taskParkable is a synchronization resource a Task can park on — the Task
// counterpart of waitable. dropTaskWaiter removes a task from the waiter
// list without waking it; Env.InterruptTask and failure teardown use it so
// an interrupted state machine does not linger as a stale waiter, exactly
// like a parked Proc.
type taskParkable interface {
	waitID() string
	dropTaskWaiter(t *Task)
}

// SpawnTask creates a task that will start running fn at the current
// virtual time (after already-scheduled events at this timestamp). The name
// is prefix+itoa(num), formatted lazily; pass num < 0 to use prefix alone.
//
// A panic inside a task step is recovered, recorded as a ProcFailure (see
// Env.Failures), and finishes the task, like a Proc panic.
func (e *Env) SpawnTask(prefix string, num int, fn func(*Task)) *Task {
	t := &Task{env: e, prefix: prefix, num: num, track: -1, start: fn}
	e.live++
	e.pushTask(e.now, t)
	return t
}

// Env returns the environment the task runs in.
func (t *Task) Env() *Env { return t.env }

// Now returns the current virtual time.
func (t *Task) Now() Time { return t.env.now }

// SetTrack assigns the task a trace track (see Proc.SetTrack).
func (t *Task) SetTrack(track int) { t.track = track }

// Track returns the task's trace track (-1 when untracked).
func (t *Task) Track() int { return t.track }

// Num returns the index passed to SpawnTask (-1 when the prefix alone names
// the task). Spawn loops use it to share one start function across every
// task instead of capturing the index in a per-task closure.
func (t *Task) Num() int { return t.num }

// Name returns the task's name, formatted on first use like Proc.Name.
func (t *Task) Name() string {
	if t.host != nil {
		return t.host.Name()
	}
	if t.name == "" {
		if t.num < 0 {
			t.name = t.prefix
		} else {
			t.name = t.prefix + strconv.Itoa(t.num)
		}
	}
	return t.name
}

// Done reports whether the task has finished (or died).
func (t *Task) Done() bool { return t.done }

// SleepThen suspends the task for d virtual time (negative counts as zero)
// and resumes with k. Must be the final action of the current step. A
// hosted task's sleeps stretch with its host's slowdown (Env.SetSlowdown).
func (t *Task) SleepThen(d Time, k func()) {
	if d < 0 {
		d = 0
	}
	if h := t.host; h != nil && h.slow > 1 {
		d *= h.slow
	}
	t.k = k
	t.env.pushTask(t.env.now+d, t)
}

// YieldThen reschedules the task at the current time, letting other
// already-scheduled work at this timestamp run first, then resumes with k.
func (t *Task) YieldThen(k func()) { t.SleepThen(0, k) }

// parkOnT suspends the task indefinitely on a waitable; something else must
// hold a reference and wake it via an Event or Cond. k runs on wake.
func (t *Task) parkOnT(on taskParkable, obj WaitDescriber, want int, k func()) {
	e := t.env
	e.tparked[t] = true
	t.parked = true
	t.k = k
	t.waitOn = on
	t.waitObj = obj
	t.waitWant = want
	t.waitSince = e.now
}

// unblockTask wakes a parked task at the current time.
func (e *Env) unblockTask(t *Task) {
	if !t.parked {
		if t.done || t.killed != "" {
			return // stale waiter entry: the task died while on a waiters list
		}
		panic("sim: unblock of task that is not parked: " + t.Name())
	}
	t.parked = false
	t.waitOn = nil
	t.waitObj = nil
	delete(e.tparked, t)
	e.pushTask(e.now, t)
}

// KillTask schedules an injected crash of t, mirroring Env.Kill: the task
// dies with a Crashed failure the next time it would run (immediately at
// the current virtual time if it is parked). No-op on finished or
// already-killed tasks. Called from event callbacks.
func (e *Env) KillTask(t *Task, reason string) {
	if t.done || t.killed != "" {
		return
	}
	if reason == "" {
		reason = "killed"
	}
	t.killed = reason
	if t.parked {
		e.unparkForDelivery(t)
	}
	// Otherwise the task is sleeping (or starting) and its queued resume
	// delivers the crash.
}

// InterruptTask delivers an asynchronous interrupt to t, mirroring
// Env.Interrupt: the pending continuation is abandoned and the task's
// OnInterrupt handler (or its death, absent one) happens the next time the
// task would run — immediately at the current virtual time if it is parked,
// in which case it is first removed from the waiter list of the resource it
// parked on so no stale entry remains. No-op on finished, killed, or
// already-interrupted tasks, and for nil payloads.
func (e *Env) InterruptTask(t *Task, payload any) {
	if t.done || t.killed != "" || t.intr != nil || payload == nil {
		return
	}
	t.intr = payload
	if t.parked {
		e.unparkForDelivery(t)
	}
	// Otherwise the task is sleeping (or running to its next park) and its
	// next resume delivers the interrupt.
}

// unparkForDelivery cuts a parked task loose and schedules it so a pending
// kill or interrupt is delivered by runTask.
func (e *Env) unparkForDelivery(t *Task) {
	e.leaveWait(t)
	e.pushTask(e.now, t)
}

// leaveWait removes a parked task from the waiter list of the resource it
// parked on and from the parked set, without resuming it, so the resource
// is not left with a stale entry.
func (e *Env) leaveWait(t *Task) {
	if t.waitOn != nil {
		t.waitOn.dropTaskWaiter(t)
	}
	t.parked = false
	t.waitOn = nil
	t.waitObj = nil
	delete(e.tparked, t)
}

// runTask resumes a task from the event loop: it delivers any pending kill
// or interrupt, otherwise runs the stored continuation as one step.
func (e *Env) runTask(t *Task) {
	if t.done {
		return // stale resume of a task torn down by a failure
	}
	if t.host != nil {
		e.runHosted(t)
		return
	}
	if t.killed != "" {
		t.k = nil
		t.start = nil
		e.failTask(t, Crashed{Reason: t.killed})
		return
	}
	if v := t.intr; v != nil {
		t.intr = nil
		t.k = nil // the interrupted wait's continuation must not run
		t.start = nil
		t.clearPredWait()
		if h := t.OnInterrupt; h != nil {
			e.stepTask(t, func() { h(v) })
		} else {
			e.failTask(t, v)
		}
		return
	}
	if fn := t.start; fn != nil {
		t.start = nil
		e.stepTaskStart(t, fn)
		return
	}
	k := t.k
	t.k = nil
	e.stepTask(t, k)
}

// stepTaskStart runs the spawn function as the task's first step, with the
// same recovery and fall-off-the-end handling as stepTask.
func (e *Env) stepTaskStart(t *Task, fn func(*Task)) {
	defer func() {
		if r := recover(); r != nil {
			e.failTask(t, r)
		}
		if !t.done && t.k == nil && !t.parked {
			t.done = true
			e.live--
		}
	}()
	fn(t)
}

// stepTask runs one continuation. A step that neither suspended nor
// rescheduled has fallen off its end, finishing the task; a panic is
// recovered and recorded like a Proc failure.
func (e *Env) stepTask(t *Task, k func()) {
	defer func() {
		if r := recover(); r != nil {
			e.failTask(t, r)
		}
		if !t.done && t.k == nil && !t.parked {
			t.done = true
			e.live--
		}
	}()
	k()
}

// failTask records a task death and tears down any park state, dropping the
// task from its waiter list so the resource is not left with a dead entry.
func (e *Env) failTask(t *Task, cause any) {
	if t.done {
		return
	}
	if t.parked {
		e.leaveWait(t)
	}
	if t.unwindArmed {
		// Restore protocol state the dead task was holding (dispatcher
		// inCall, spinner counts), as the panic unwind of a Proc would.
		t.RunUnwinds()
		t.unwindArmed = false
	}
	t.clearPredWait()
	t.k = nil
	t.done = true
	e.live--
	f := ProcFailure{Proc: t.Name(), Time: e.now, Cause: cause}
	e.failures = append(e.failures, f)
	if e.OnTaskFailure != nil {
		e.OnTaskFailure(t, f)
	}
}

// WaitT suspends the task until the event has been triggered, then resumes
// with k. Must be the final action of the current step.
func (ev *Event) WaitT(t *Task, k func()) {
	if ev.done {
		// Triggered already: continue within the same step, zero cost, the
		// exact analogue of Proc.Wait returning without parking.
		k()
		return
	}
	ev.twaiters = append(ev.twaiters, t)
	t.parkOnT(ev, nil, -1, k)
}

// WaitT suspends the task until the next Broadcast, then resumes with k.
func (c *Cond) WaitT(t *Task, k func()) {
	c.twaiters = append(c.twaiters, t)
	t.parkOnT(c, nil, -1, k)
}

// WaitOnT is Cond.WaitOn for tasks: the WaitDescriber and awaited value are
// recorded for stall reports and formatted only if a report is built.
func (c *Cond) WaitOnT(t *Task, obj WaitDescriber, want int, k func()) {
	c.twaiters = append(c.twaiters, t)
	t.parkOnT(c, obj, want, k)
}

// WaitUntilT suspends the task until pred() holds, re-checking after every
// Broadcast of c, then resumes with k. pred is evaluated immediately first;
// if it already holds, k runs within the current step (no virtual time
// passes), matching Cond.WaitUntil for Procs.
func (c *Cond) WaitUntilT(t *Task, pred func() bool, k func()) {
	c.waitUntilT(t, nil, -1, pred, k)
}

// WaitUntilOnT is WaitUntilT with stall-report context, the task analogue
// of looping Cond.WaitOn until a predicate holds.
func (c *Cond) WaitUntilOnT(t *Task, obj WaitDescriber, want int, pred func() bool, k func()) {
	c.waitUntilT(t, obj, want, pred, k)
}

func (c *Cond) waitUntilT(t *Task, obj WaitDescriber, want int, pred func() bool, k func()) {
	if pred() {
		k()
		return
	}
	// Hold the predicate-wait frame in the task itself. Re-parking goes
	// through retryFn, built once for the task's lifetime, rather than a
	// recursive closure allocated per wait: a million-rank run re-checks
	// these predicates billions of times.
	t.waitPred = pred
	t.waitK = k
	t.predCond = c
	t.predObj = obj
	t.predWant = want
	if t.retryFn == nil {
		t.retryFn = t.retryWait
	}
	c.twaiters = append(c.twaiters, t)
	t.parkOnT(c, obj, want, t.retryFn)
}

// retryWait is the shared resume continuation for waitUntilT parks: it
// re-evaluates the stored predicate and either releases the stored
// continuation or parks again on the same Cond.
func (t *Task) retryWait() {
	if t.waitPred() {
		k := t.waitK
		t.clearPredWait()
		k()
		return
	}
	c := t.predCond
	c.twaiters = append(c.twaiters, t)
	t.parkOnT(c, t.predObj, t.predWant, t.retryFn)
}

// clearPredWait drops the predicate-wait frame so the closures it holds can
// be collected; called when the wait completes or the task is torn down.
func (t *Task) clearPredWait() {
	t.waitPred = nil
	t.waitK = nil
	t.predCond = nil
	t.predObj = nil
}

// SetUnwindArmed enables (or disables and clears) the task's unwind stack.
// Fault-tolerant execution arms it for the duration of a collective so
// blocking primitives can register the compensations a Proc would run via
// defer; everything else leaves it disarmed and pays nothing.
func (t *Task) SetUnwindArmed(on bool) {
	t.unwindArmed = on
	if !on {
		t.unwinds = t.unwinds[:0]
	}
}

// UnwindArmed reports whether PushUnwind currently records compensations.
func (t *Task) UnwindArmed() bool { return t.unwindArmed }

// PushUnwind records fn to run if the task is interrupted or killed before
// the matching PopUnwind. No-op while the stack is disarmed.
func (t *Task) PushUnwind(fn func()) {
	if t.unwindArmed {
		t.unwinds = append(t.unwinds, fn)
	}
}

// PopUnwind discards the most recent compensation without running it — the
// protected region completed normally. No-op while disarmed or empty.
func (t *Task) PopUnwind() {
	if n := len(t.unwinds); t.unwindArmed && n > 0 {
		t.unwinds[n-1] = nil
		t.unwinds = t.unwinds[:n-1]
	}
}

// RunUnwinds runs the recorded compensations LIFO and clears the stack,
// the CPS analogue of a panic unwinding a Proc's deferred restores.
func (t *Task) RunUnwinds() {
	for i := len(t.unwinds) - 1; i >= 0; i-- {
		fn := t.unwinds[i]
		t.unwinds[i] = nil
		t.unwinds = t.unwinds[:i]
		fn()
	}
}
