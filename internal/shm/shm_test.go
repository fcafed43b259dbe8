package shm

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"srmcoll/internal/machine"
	"srmcoll/internal/sim"
)

func testMachine(tpn int) (*sim.Env, *machine.Machine) {
	env := sim.NewEnv()
	return env, machine.New(env, machine.ColonySP(1, tpn))
}

func TestFlagStartsZero(t *testing.T) {
	_, m := testMachine(2)
	f := NewFlag(m, 0)
	if f.Load() != 0 {
		t.Fatalf("initial flag = %d", f.Load())
	}
}

func TestFlagSetObservedAfterWakeLatency(t *testing.T) {
	env, m := testMachine(2)
	f := NewFlag(m, 0)
	var woke sim.Time
	env.Spawn("waiter", func(p *sim.Proc) {
		f.WaitFor(p, 1)
		woke = p.Now()
	})
	env.Spawn("setter", func(p *sim.Proc) {
		p.Sleep(10)
		f.Set(1)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := 10 + m.WakeLatency()
	if math.Abs(woke-want) > 1e-9 {
		t.Fatalf("waiter woke at %v, want %v", woke, want)
	}
}

func TestFlagWaitSatisfiedImmediately(t *testing.T) {
	env, m := testMachine(2)
	f := NewFlag(m, 0)
	f.Set(3)
	env.Spawn("waiter", func(p *sim.Proc) {
		p.Sleep(5)
		f.WaitFor(p, 3)
		if p.Now() != 5 {
			t.Errorf("already-set flag delayed waiter to %v", p.Now())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFlagMultipleTransitions(t *testing.T) {
	env, m := testMachine(2)
	f := NewFlag(m, 0)
	var seen []int
	env.Spawn("waiter", func(p *sim.Proc) {
		f.WaitFor(p, 1)
		seen = append(seen, 1)
		f.WaitFor(p, 2)
		seen = append(seen, 2)
	})
	env.Spawn("setter", func(p *sim.Proc) {
		p.Sleep(1)
		f.Set(1)
		p.Sleep(5)
		f.Set(2)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(seen) != "[1 2]" {
		t.Fatalf("transitions seen = %v", seen)
	}
	_ = m
}

func TestFlagWaitUntilPredicate(t *testing.T) {
	env, m := testMachine(2)
	f := NewFlag(m, 0)
	env.Spawn("waiter", func(p *sim.Proc) {
		f.WaitUntil(p, func(v int) bool { return v >= 3 })
		if f.Load() < 3 {
			t.Error("woke before predicate held")
		}
	})
	env.Spawn("setter", func(p *sim.Proc) {
		for v := 1; v <= 3; v++ {
			p.Sleep(2)
			f.Set(v)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	_ = m
}

func TestSpinnerCountsOnlyWithoutYield(t *testing.T) {
	env := sim.NewEnv()
	cfg := machine.ColonySP(1, 2)
	cfg.SpinYield = false
	m := machine.New(env, cfg)
	f := NewFlag(m, 0)
	env.Spawn("waiter", func(p *sim.Proc) { f.WaitFor(p, 1) })
	env.Spawn("check", func(p *sim.Proc) {
		p.Sleep(1)
		if got := m.SpinPenalty(0); got != cfg.StarvePenalty {
			t.Errorf("penalty while spinning = %v, want %v", got, cfg.StarvePenalty)
		}
		f.Set(1)
		p.Sleep(10)
		if got := m.SpinPenalty(0); got != 0 {
			t.Errorf("penalty after release = %v, want 0", got)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFlagSetWaitsAll(t *testing.T) {
	env, m := testMachine(4)
	fs := NewFlagSet(m, 0, 4)
	var done sim.Time
	env.Spawn("master", func(p *sim.Proc) {
		p.Await(func(t *sim.Task, k func()) { fs.WaitAllT(t, 1, k, 0) }) // skip own slot 0
		done = p.Now()
		fs.SetAll(0)
	})
	for i := 1; i < 4; i++ {
		i := i
		env.Spawn(fmt.Sprintf("t%d", i), func(p *sim.Proc) {
			p.Sleep(sim.Time(i) * 3)
			fs.Flag(i).Set(1)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := 9 + m.WakeLatency() // last check-in at t=9
	if math.Abs(done-want) > 1e-9 {
		t.Fatalf("master released at %v, want %v", done, want)
	}
}

func TestFlagSetLenAndAccess(t *testing.T) {
	_, m := testMachine(3)
	fs := NewFlagSet(m, 0, 3)
	if fs.Len() != 3 {
		t.Fatalf("Len() = %d", fs.Len())
	}
	fs.SetAll(7)
	for i := 0; i < 3; i++ {
		if fs.Flag(i).Load() != 7 {
			t.Fatalf("flag %d = %d after SetAll(7)", i, fs.Flag(i).Load())
		}
	}
}

func TestSegmentCopyInOut(t *testing.T) {
	env, m := testMachine(2)
	s := NewSegment(m, 0, 64)
	if s.Len() != 64 || s.Node() != 0 {
		t.Fatalf("segment meta wrong: len=%d node=%d", s.Len(), s.Node())
	}
	src := []byte("shared-memory payload")
	dst := make([]byte, len(src))
	env.Spawn("t", func(p *sim.Proc) {
		s.CopyIn(p, 5, src)
		s.CopyOut(p, dst, 5)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("round trip = %q, want %q", dst, src)
	}
	if m.Stats.ShmCopies != 2 {
		t.Fatalf("copies = %d, want 2", m.Stats.ShmCopies)
	}
}

func TestSegmentSliceBounds(t *testing.T) {
	_, m := testMachine(2)
	s := NewSegment(m, 0, 16)
	for _, c := range []struct{ off, n int }{{-1, 4}, {0, 17}, {10, 7}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slice(%d,%d) did not panic", c.off, c.n)
				}
			}()
			s.Slice(c.off, c.n)
		}()
	}
	if got := len(s.Slice(4, 8)); got != 8 {
		t.Fatalf("valid slice len = %d", got)
	}
}

// Property: CopyIn then CopyOut at any valid offset restores the data.
func TestPropSegmentRoundTrip(t *testing.T) {
	f := func(data []byte, off uint8) bool {
		if len(data) == 0 {
			return true
		}
		env, m := testMachine(2)
		_ = m
		s := NewSegment(m, 0, len(data)+int(off))
		out := make([]byte, len(data))
		ok := true
		env.Spawn("t", func(p *sim.Proc) {
			s.CopyIn(p, int(off), data)
			s.CopyOut(p, out, int(off))
			ok = bytes.Equal(out, data)
		})
		return env.Run() == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a flag set to any value is eventually observed by any number of
// waiters, all at the same wake time.
func TestPropFlagBroadcast(t *testing.T) {
	f := func(nWaiters uint8, v int) bool {
		if v == 0 {
			v = 1
		}
		n := int(nWaiters%8) + 1
		env, m := testMachine(8)
		f := NewFlag(m, 0)
		times := make([]sim.Time, 0, n)
		for i := 0; i < n; i++ {
			env.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
				f.WaitFor(p, v)
				times = append(times, p.Now())
			})
		}
		env.Spawn("s", func(p *sim.Proc) { p.Sleep(2); f.Set(v) })
		if env.Run() != nil || len(times) != n {
			return false
		}
		for _, tt := range times {
			if tt != times[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
