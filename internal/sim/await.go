package sim

// The Proc→Task bridge. Protocol code is written once, as Task-engine
// continuation-passing bodies; a goroutine Proc runs such a body through
// Await. The body executes on a Task bound to the Proc (its "hosted" task):
// the first step runs inline on the Proc's goroutine, later steps run from
// the event loop like any task resume, and the step that completes the body
// hands control straight back to the Proc. Because suspensions are the
// hosted task's own sleeps and parks, and the completing step wakes the
// Proc directly instead of scheduling it, hosting adds no queue items: the
// body costs exactly the events it would cost a Task, and the (time, seq)
// order of a run is the same as if the Proc had performed those waits
// itself.

// Await runs body on behalf of p and returns once body calls its
// continuation. body receives the Proc's hosted task, which carries the
// Proc's name (failure, stall and deadlock reports), its trace track and
// its SetSlowdown stretch; tasks the body spawns are independent and
// inherit none of these.
//
// If body completes within its first step, Await returns without the Proc
// yielding. Otherwise the Proc yields, and the step that calls the
// continuation resumes it in place.
//
// An Env.Kill or Env.Interrupt of p while it waits in Await goes to the
// hosted task: its pending wait is abandoned, and the crash or interrupt
// payload is raised on the Proc's stack, where the hosted task's unwind
// stack runs first (it is always armed, standing in for the deferred
// restores a Proc body would run). A panic in a later hosted step is
// re-raised on the Proc's stack the same way, so it surfaces as the
// Proc's failure.
func (p *Proc) Await(body func(t *Task, k func())) {
	h := p.host
	if h == nil {
		h = &Task{env: p.env, host: p, num: -1, unwindArmed: true}
		p.host = h
		p.awaitK = p.awaitResume
	}
	h.track = p.track
	p.awaitDone = false
	ok := false
	defer func() {
		if !ok {
			h.abandon()
		}
	}()
	body(h, p.awaitK)
	if !p.awaitDone {
		p.awaiting = true
		p.env.yield <- struct{}{}
		<-p.resume
		p.awaiting = false
		p.checkKilled()
		p.checkInterrupt()
		if v := p.hostPanic; v != nil {
			p.hostPanic = nil
			panic(v)
		}
	}
	ok = true
}

// awaitResume is the continuation Await hands its body (bound once per
// Proc). Called inline it only marks completion; called from a later step
// it switches to the waiting Proc, which runs until it next blocks.
func (p *Proc) awaitResume() {
	p.awaitDone = true
	if p.awaiting {
		p.env.wake(p)
	}
}

// abandon tears down the hosted task after its body was cut short by a
// panic on the Proc's stack (a delivered crash or interrupt, or a body
// failure): it leaves whatever it was parked on, drops its continuation,
// and runs the armed compensations LIFO, as a Proc body's defers would.
func (t *Task) abandon() {
	if t.parked {
		t.env.leaveWait(t)
	}
	t.k = nil
	t.clearPredWait()
	t.RunUnwinds()
}

// deliverHosted hands a kill or interrupt aimed at p to its hosted task: a
// parked hosted wait is cut loose and resumed now (the item a parked Proc
// would get from unblock); a sleeping one delivers at its queued resume.
func (e *Env) deliverHosted(p *Proc) {
	if h := p.host; h != nil && h.parked {
		e.unparkForDelivery(h)
	}
}

// runHosted resumes a hosted task from the event loop. A pending kill or
// interrupt of the host is raised on the host's stack; otherwise the stored
// continuation runs as one step, and a panic in it becomes the host's.
func (e *Env) runHosted(t *Task) {
	p := t.host
	if p.killed != "" || p.intr != nil {
		e.wake(p)
		return
	}
	k := t.k
	t.k = nil
	defer func() {
		if r := recover(); r != nil {
			if !p.awaiting {
				panic(r) // the step ran on after completing its body
			}
			p.hostPanic = r
			e.wake(p)
		}
	}()
	k()
}
