package main

import (
	"math"
	"runtime"
	"strings"
	"time"

	"srmcoll/internal/bufpool"
	"srmcoll/internal/core"
	"srmcoll/internal/dtype"
	"srmcoll/internal/machine"
	"srmcoll/internal/mpi"
	"srmcoll/internal/rma"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
	"srmcoll/internal/tree"
	"srmcoll/internal/tune"
)

// A layer probe times one package's own entry points on a fixture it
// builds itself, so a change inside one layer shows in that layer's
// numbers even when the workloads dilute it. Task-native entry points are
// used wherever a package has them; internal/mpi has only the Proc API.

// layerProbe runs n repetitions of one operation and returns the virtual
// microseconds they took (0 where the operation takes none).
type layerProbe struct {
	name   string
	report string // reported fields: n(s/op), a(llocs/op), v(irtual us/op), g(B/s)
	bytes  int    // payload bytes per op, for GB/s
	run    func(n int) float64
}

func probes() []layerProbe {
	return []layerProbe{
		{"sim.sched", "na", 0, schedProbe},
		{"sim.task_wake", "na", 0, taskWakeProbe},
		{"sim.proc_sleep", "na", 0, procSleepProbe},
		{"core.barrier_1x2", "na", 0, func(n int) float64 { return coreProbe(n, 0) }},
		{"core.allreduce_8B_1x2", "na", 0, func(n int) float64 { return coreProbe(n, 8) }},
		{"shm.flag", "nav", 0, flagProbe},
		{"shm.copy_4k", "navg", 4 << 10, func(n int) float64 { return copyProbe(n, 4<<10, true) }},
		{"shm.copy_256k", "navg", 256 << 10, func(n int) float64 { return copyProbe(n, 256<<10, true) }},
		{"machine.inject_flat", "n", 0, func(n int) float64 { return injectProbe(n, machine.ColonySP(16, 16)) }},
		{"machine.inject_hier", "n", 0, func(n int) float64 { return injectProbe(n, mustTopo("12x4/3")) }},
		{"machine.memcpy_256k", "ng", 256 << 10, func(n int) float64 { return copyProbe(n, 256<<10, false) }},
		{"rma.put_64", "nav", 64, func(n int) float64 { return putProbe(n, 64, false) }},
		{"rma.put_256k", "navg", 256 << 10, func(n int) float64 { return putProbe(n, 256<<10, false) }},
		{"rma.put_reliable_64", "nav", 64, func(n int) float64 { return putProbe(n, 64, true) }},
		{"dtype.f64_sum_256k", "ga", 256 << 10, func(n int) float64 { return reduceProbe(n, dtype.Float64) }},
		{"dtype.i64_sum_256k", "ga", 256 << 10, func(n int) float64 { return reduceProbe(n, dtype.Int64) }},
		{"dtype.f32_sum_256k", "ga", 256 << 10, func(n int) float64 { return reduceProbe(n, dtype.Float32) }},
		{"mpi.eager_1k", "nav", 1 << 10, func(n int) float64 { return mpiProbe(n, 1<<10) }},
		{"mpi.rndv_64k", "nav", 64 << 10, func(n int) float64 { return mpiProbe(n, 64<<10) }},
		{"tune.lookup", "n", 0, lookupProbe},
		{"tree.embed_8k", "na", 0, embedProbe},
		{"bufpool.get_put", "na", 0, bufpoolProbe},
	}
}

// runProbes measures every probe. Repetitions double until one call of run
// takes probeWarm (that calibration is the warm-up); then probeReps calls
// are timed and the fastest gives the per-op figures.
func runProbes(m metrics) {
	for _, p := range probes() {
		n := 1
		for {
			start := time.Now()
			p.run(n)
			if time.Since(start) >= probeWarm {
				break
			}
			n *= 2
		}
		best, allocs, vus := math.Inf(1), 0.0, 0.0
		var ms0, ms1 runtime.MemStats
		for i := 0; i < probeReps; i++ {
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			v := p.run(n)
			ns := float64(time.Since(start).Nanoseconds()) / float64(n)
			runtime.ReadMemStats(&ms1)
			if ns < best {
				best, allocs, vus = ns, float64(ms1.Mallocs-ms0.Mallocs)/float64(n), v/float64(n)
			}
		}
		if strings.Contains(p.report, "n") {
			m.set(p.name+".ns", best, "ns")
		}
		if strings.Contains(p.report, "a") {
			m.set(p.name+".allocs", allocs, "count")
		}
		if strings.Contains(p.report, "v") {
			m.set(p.name+".vus", vus, "vus")
		}
		if strings.Contains(p.report, "g") {
			m.set(p.name+".gbps", float64(p.bytes)/best, "GB/s")
		}
	}
}

const (
	probeWarm = 20 * time.Millisecond
	probeReps = 3
)

// sink keeps probed results alive so the compiler cannot drop the calls.
var sink any

func mustTopo(spec string) machine.Config {
	cfg, err := machine.ParseTopo(spec)
	if err != nil {
		panic(err)
	}
	return cfg
}

// taskLoop spawns a task that runs step for i = 0..n-1 in sequence. Each
// step must end by handing next to one blocking primitive.
func taskLoop(env *sim.Env, n int, step func(t *sim.Task, i int, next func())) {
	env.SpawnTask("probe", -1, func(t *sim.Task) {
		i := 0
		var next func()
		next = func() {
			if i < n {
				i++
				step(t, i-1, next)
			}
		}
		next()
	})
}

func mustRun(env *sim.Env) float64 {
	if err := env.Run(); err != nil {
		panic(err)
	}
	return env.Now()
}

// schedProbe: calendar-queue push and pop (Env.After + Run), 256 timers
// re-arming themselves at mixed delays.
func schedProbe(n int) float64 {
	env := sim.NewEnv()
	left := n
	var tick func()
	tick = func() {
		if left > 0 {
			left--
			env.After(float64(left%61+1), tick)
		}
	}
	for i := 0; i < 256 && left > 0; i++ {
		left--
		env.After(float64(i%61), tick)
	}
	return mustRun(env)
}

// taskWakeProbe: a task parks on an event (Event.WaitT) that a timer
// triggers, and resumes.
func taskWakeProbe(n int) float64 {
	env := sim.NewEnv()
	taskLoop(env, n, func(t *sim.Task, _ int, next func()) {
		ev := env.NewEvent()
		env.After(1, ev.Trigger)
		ev.WaitT(t, next)
	})
	return mustRun(env)
}

// procSleepProbe: a goroutine-backed Proc sleeping (one scheduler handoff
// each way per Sleep).
func procSleepProbe(n int) float64 {
	env := sim.NewEnv()
	env.Spawn("probe", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	return mustRun(env)
}

// coreProbe: back-to-back SRM barriers (size 0) or int64 allreduces on a
// 2-rank node, where per-operation setup dominates protocol work.
func coreProbe(n, size int) float64 {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(1, 2))
	s := core.New(m, rma.NewDomain(m), core.Options{})
	for r := 0; r < 2; r++ {
		send, recv := make([]byte, size), make([]byte, size)
		taskLoop(env, n, func(t *sim.Task, _ int, next func()) {
			if size == 0 {
				s.BarrierT(t, r, next)
			} else {
				s.AllreduceT(t, r, send, recv, dtype.Int64, dtype.Sum, next)
			}
		})
	}
	return mustRun(env)
}

// flagProbe: a Flag.Set -> WaitGET round trip between two tasks on one
// node, one flag each way.
func flagProbe(n int) float64 {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(1, 2))
	ping, pong := shm.NewFlag(m, 0), shm.NewFlag(m, 0)
	taskLoop(env, n, func(t *sim.Task, i int, next func()) {
		ping.Set(i + 1)
		pong.WaitGET(t, i+1, next)
	})
	taskLoop(env, n+1, func(t *sim.Task, i int, next func()) {
		if i > 0 {
			pong.Set(i)
		}
		if i < n {
			ping.WaitGET(t, i+1, next)
		}
	})
	return mustRun(env)
}

// copyProbe: charged copies into a shared segment (Segment.CopyInT) or
// plain machine copies (Machine.MemcpyT).
func copyProbe(n, size int, segment bool) float64 {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(1, 2))
	src, dst := make([]byte, size), make([]byte, size)
	seg := shm.NewSegment(m, 0, size)
	taskLoop(env, n, func(t *sim.Task, _ int, next func()) {
		if segment {
			seg.CopyInT(t, 0, src, next)
		} else {
			m.MemcpyT(t, 0, dst, src, next)
		}
	})
	return mustRun(env)
}

// injectProbe: 64-byte NIC injections (Machine.NetInjectTo) between
// varying node pairs, at one instant.
func injectProbe(n int, cfg machine.Config) float64 {
	m := machine.New(sim.NewEnv(), cfg)
	var last sim.Time
	for i := 0; i < n; i++ {
		src := i % cfg.Nodes
		_, last = m.NetInjectTo(src, (src+1+i%(cfg.Nodes-1))%cfg.Nodes, 64)
	}
	sink = last
	return 0
}

// putProbe: one put and its completion wait (PutT + WaitcntrT) between
// two nodes, in the default or the reliable-delivery mode.
func putProbe(n, size int, reliable bool) float64 {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(2, 1))
	dom := rma.NewDomain(m)
	if reliable {
		dom.EnableReliable(0, 0)
	}
	from, to := dom.Endpoint(0), dom.Endpoint(1)
	src, dst := make([]byte, size), make([]byte, size)
	compl := dom.NewCounter(0)
	env.SpawnTask("probe", -1, func(t *sim.Task) {
		i := 0
		var next, wait func()
		wait = func() { from.WaitcntrT(t, compl, 1, next) }
		next = func() {
			if i < n {
				i++
				from.PutT(t, to, dst, src, nil, nil, compl, wait)
			}
		}
		next()
	})
	return mustRun(env)
}

// reduceProbe: one 256 KiB elementwise sum (dtype.Reduce).
func reduceProbe(n int, dt dtype.Type) float64 {
	dst, src := make([]byte, 256<<10), make([]byte, 256<<10)
	for i := 0; i < n; i++ {
		dtype.Reduce(dtype.Sum, dt, dst, src)
	}
	sink = dst
	return 0
}

// mpiProbe: one IBM-MPI message between two nodes (Rank.Send/Recv): eager
// at 1 KiB, rendezvous at 64 KiB.
func mpiProbe(n, size int) float64 {
	env := sim.NewEnv()
	w := mpi.NewWorld(machine.New(env, machine.ColonySP(2, 1)), mpi.IBM())
	env.Spawn("send", func(p *sim.Proc) {
		data := make([]byte, size)
		for i := 0; i < n; i++ {
			w.Rank(0).Send(p, 1, 0, data)
		}
	})
	env.Spawn("recv", func(p *sim.Proc) {
		buf := make([]byte, size)
		for i := 0; i < n; i++ {
			w.Rank(1).Recv(p, 0, 0, buf)
		}
	})
	return mustRun(env)
}

// lookupProbe: the tuner's allreduce decision (TopoEntry.LookupAlg).
func lookupProbe(n int) float64 {
	e := tune.Default().Topo("8x8/2/4")
	alg := core.AlgAuto
	for i := 0; i < n; i++ {
		alg, _ = e.LookupAlg("allreduce", 8<<(i%16))
	}
	sink = alg
	return 0
}

// embedProbe: the SMP-aware tree embedding of 1024 nodes x 8 tasks.
func embedProbe(n int) float64 {
	var e tree.Embedding
	for i := 0; i < n; i++ {
		e = tree.Embed(1024, 8, tree.Binomial, tree.Binomial, i%8)
	}
	sink = e.Root
	return 0
}

// bufpoolProbe: a 4 KiB buffer out of and back into a pool.
func bufpoolProbe(n int) float64 {
	p := bufpool.New()
	for i := 0; i < n; i++ {
		p.Put(p.Get(4 << 10))
	}
	return 0
}
