package sim

// Failure detection. Real SRM clusters detect task death through missed
// heartbeats: every task beats on a fixed period, and a peer that misses a
// beat is suspected and — after a suspicion timeout with no further beat —
// declared failed. Simulating per-tick heartbeat traffic would flood the
// event queue with O(ranks × time/period) items that carry no information,
// so the detector collapses the protocol analytically: a task that dies at
// time t last beat at floor(t/Period)·Period, its first missed beat is one
// period later, and the declaration lands a suspicion timeout after that.
// The collapsed form is exactly as deterministic as the explicit one and
// costs a single scheduled event per death.

// Detector turns rank deaths into deterministic failure declarations.
// Ranks are named by index, so one detector serves goroutine and Task
// ranks alike. Period is the heartbeat interval and Timeout the suspicion
// window; both are virtual microseconds. OnDeclare fires exactly once per
// notified death, at the declaration time, in event-queue order (deaths
// declared at equal times fire in notification order).
type Detector struct {
	env     *Env
	Period  Time
	Timeout Time

	// OnDeclare is invoked at declaration time with the dead rank's index
	// and the time it died. It runs as an event callback: scheduling
	// further events and interrupting other processes is allowed, parking
	// is not.
	OnDeclare func(rank int, diedAt Time)
}

// NewDetector returns a detector on env. Non-positive period or timeout
// values are clamped to zero (declaration then happens at the death time
// plus whichever components remain).
func NewDetector(env *Env, period, timeout Time) *Detector {
	if period < 0 {
		period = 0
	}
	if timeout < 0 {
		timeout = 0
	}
	return &Detector{env: env, Period: period, Timeout: timeout}
}

// DeclareTime returns the virtual time at which a death at diedAt is
// declared: the first heartbeat the dead task misses, plus the suspicion
// timeout.
func (d *Detector) DeclareTime(diedAt Time) Time {
	if d.Period <= 0 {
		return diedAt + d.Timeout
	}
	beats := float64(int64(diedAt / d.Period)) // completed heartbeats before death
	return beats*d.Period + d.Period + d.Timeout
}

// NotifyDeath schedules the declaration of rank's death at diedAt. The
// caller is responsible for notifying each death exactly once (typically
// from Env.OnFailure or Env.OnTaskFailure).
func (d *Detector) NotifyDeath(rank int, diedAt Time) {
	d.env.At(d.DeclareTime(diedAt), func() {
		if d.OnDeclare != nil {
			d.OnDeclare(rank, diedAt)
		}
	})
}
