package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// The Proc→Task bridge: a Proc running a Task body through Await must
// behave, event for event, like the Proc performing those waits itself.

func TestAwaitSynchronousCompletion(t *testing.T) {
	e := NewEnv()
	var calls int
	var at Time
	e.Spawn("p", func(p *Proc) {
		p.Sleep(1)
		before := e.Events()
		p.Await(func(tk *Task, k func()) {
			calls++
			if tk.Name() != "p" {
				t.Errorf("hosted task name = %q, want p", tk.Name())
			}
			k()
		})
		if e.Events() != before {
			t.Errorf("inline completion executed %d queue items", e.Events()-before)
		}
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || at != 1 {
		t.Errorf("body ran %d times, Await returned at %v; want 1 and 1", calls, at)
	}
	if e.Events() != 2 {
		t.Errorf("Events() = %d, want 2 (spawn and one sleep)", e.Events())
	}
}

func TestAwaitResumesFromLaterStep(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	var log []string
	e.Spawn("p", func(p *Proc) {
		p.Await(func(tk *Task, k func()) {
			tk.SleepThen(5, func() {
				log = append(log, fmt.Sprintf("slept@%v", tk.Now()))
				ev.WaitT(tk, k)
			})
		})
		log = append(log, fmt.Sprintf("back@%v", p.Now()))
		p.Sleep(1)
		log = append(log, fmt.Sprintf("done@%v", p.Now()))
	})
	e.At(8, ev.Trigger)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(log, " "); got != "slept@5 back@8 done@9" {
		t.Errorf("log = %q", got)
	}
	if e.Live() != 0 {
		t.Errorf("Live() = %d after the Proc finished", e.Live())
	}
}

// TestAwaitMatchesProcEvents runs the same schedule twice: once with the
// Proc sleeping and waiting itself, once through Await. The queue-item
// count, the finish time and the interleaving with a competing Proc at
// equal timestamps must all match.
func TestAwaitMatchesProcEvents(t *testing.T) {
	run := func(bridge bool) (uint64, string) {
		e := NewEnv()
		c := e.NewCond()
		ev := e.NewEvent()
		flag := 0
		var log []string
		note := func(s string) { log = append(log, fmt.Sprintf("%s@%v", s, e.Now())) }
		e.Spawn("a", func(p *Proc) {
			if bridge {
				p.Await(func(tk *Task, k func()) {
					tk.SleepThen(2, func() {
						note("a1")
						c.WaitUntilT(tk, func() bool { return flag >= 2 }, func() {
							note("a2")
							ev.WaitT(tk, func() {
								tk.YieldThen(k)
							})
						})
					})
				})
			} else {
				p.Sleep(2)
				note("a1")
				c.WaitUntil(p, func() bool { return flag >= 2 })
				note("a2")
				p.Wait(ev)
				p.Yield()
			}
			note("a3")
			p.Sleep(1)
			note("a4")
		})
		e.Spawn("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(2)
				flag++
				c.Broadcast()
				note("b")
			}
			ev.Trigger()
			p.Yield()
			note("b-end")
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Events(), strings.Join(log, " ")
	}
	pe, pl := run(false)
	be, bl := run(true)
	if pe != be {
		t.Errorf("Events() = %d through Await, %d on the Proc", be, pe)
	}
	if pl != bl {
		t.Errorf("interleaving differs:\n proc:  %s\n await: %s", pl, bl)
	}
}

func TestAwaitKillForwardsToHostedTask(t *testing.T) {
	for _, sleeping := range []bool{false, true} {
		e := NewEnv()
		c := e.NewCond()
		var unwound []string
		p := e.Spawn("victim", func(p *Proc) {
			p.Await(func(tk *Task, k func()) {
				tk.PushUnwind(func() { unwound = append(unwound, "outer") })
				tk.PushUnwind(func() { unwound = append(unwound, "inner") })
				if sleeping {
					tk.SleepThen(10, k)
					return
				}
				c.WaitT(tk, k)
			})
			t.Error("killed Proc returned from Await")
		})
		e.At(3, func() { e.Kill(p, "chaos") })
		var ce *CrashError
		if err := e.Run(); !errors.As(err, &ce) {
			t.Fatalf("Run() = %v, want *CrashError", err)
		}
		// A parked wait delivers at once; a sleep at its queued resume, as
		// for a Proc.
		want := Time(3)
		if sleeping {
			want = 10
		}
		f := ce.Failures[0]
		if f.Proc != "victim" || f.Time != want || f.Cause != (Crashed{Reason: "chaos"}) {
			t.Errorf("sleeping=%v: failure = %+v, want victim at %v crashed", sleeping, f, want)
		}
		if fmt.Sprint(unwound) != "[inner outer]" {
			t.Errorf("sleeping=%v: unwinds ran as %v, want [inner outer]", sleeping, unwound)
		}
		if len(c.twaiters) != 0 || len(e.tparked) != 0 {
			t.Errorf("sleeping=%v: stale hosted waiter left behind", sleeping)
		}
	}
}

func TestAwaitInterruptRaisedOnProcStack(t *testing.T) {
	e := NewEnv()
	c := e.NewCond()
	var unwound int
	var caught any
	var log []string
	p := e.Spawn("rank", func(p *Proc) {
		func() {
			defer func() { caught = recover() }()
			p.Await(func(tk *Task, k func()) {
				tk.PushUnwind(func() { unwound++ })
				c.WaitT(tk, k)
			})
		}()
		log = append(log, fmt.Sprintf("recovered@%v", p.Now()))
		// The hosted task is clean for the next body.
		p.Await(func(tk *Task, k func()) { tk.SleepThen(2, k) })
		log = append(log, fmt.Sprintf("again@%v", p.Now()))
	})
	e.At(4, func() { e.Interrupt(p, "declared") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if caught != "declared" || unwound != 1 {
		t.Errorf("recovered %v with %d unwinds, want declared and 1", caught, unwound)
	}
	if got := strings.Join(log, " "); got != "recovered@4 again@6" {
		t.Errorf("log = %q", got)
	}
	if len(c.twaiters) != 0 {
		t.Errorf("interrupted hosted wait left %d waiters", len(c.twaiters))
	}
}

func TestAwaitHostedPanicIsProcFailure(t *testing.T) {
	e := NewEnv()
	var reported []ProcFailure
	e.OnFailure = func(p *Proc, f ProcFailure) { reported = append(reported, f) }
	e.Spawn("bad", func(p *Proc) {
		p.Await(func(tk *Task, k func()) {
			tk.SleepThen(5, func() { panic("boom") })
		})
		t.Error("Await returned after its body panicked")
	})
	var ce *CrashError
	if err := e.Run(); !errors.As(err, &ce) {
		t.Fatalf("Run() = %v, want *CrashError", err)
	}
	want := ProcFailure{Proc: "bad", Time: 5, Cause: "boom"}
	if len(ce.Failures) != 1 || ce.Failures[0] != want {
		t.Errorf("failures = %+v, want [%+v]", ce.Failures, want)
	}
	if len(reported) != 1 || reported[0] != want {
		t.Errorf("OnFailure saw %+v, want the Proc failure once", reported)
	}
}

func TestAwaitStallStretchesHostSleepsOnly(t *testing.T) {
	e := NewEnv()
	var hostAt, helperAt Time
	p := e.Spawn("slow", func(p *Proc) {
		p.Await(func(tk *Task, k func()) {
			e.SpawnTask("helper", -1, func(h *Task) {
				h.SleepThen(2, func() { helperAt = h.Now() })
			})
			tk.SleepThen(2, func() {
				hostAt = tk.Now()
				k()
			})
		})
	})
	e.SetSlowdown(p, 3)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if hostAt != 6 || helperAt != 2 {
		t.Errorf("hosted sleep ended at %v, helper at %v; want 6 and 2", hostAt, helperAt)
	}
}

func TestAwaitDeadlockNamesProc(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent().Named("never")
	e.Spawn("stuck", func(p *Proc) {
		p.Sleep(1)
		p.Await(func(tk *Task, k func()) { ev.WaitT(tk, k) })
	})
	var de *DeadlockError
	if err := e.Run(); !errors.As(err, &de) {
		t.Fatalf("Run() = %v, want *DeadlockError", err)
	}
	if fmt.Sprint(de.Blocked) != "[stuck]" {
		t.Errorf("blocked = %v, want [stuck] once", de.Blocked)
	}
	if len(de.Procs) != 1 || de.Procs[0].Resource != "never" || de.Procs[0].Since != 1 {
		t.Errorf("wait context = %+v", de.Procs)
	}
	if fmt.Sprint(de.WaitGraph) != "map[never:[stuck]]" {
		t.Errorf("wait graph = %v", de.WaitGraph)
	}
}
