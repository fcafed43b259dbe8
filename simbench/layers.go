package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"strings"

	"srmcoll"
	"srmcoll/internal/machine"
	"srmcoll/internal/model"
	"srmcoll/internal/trace"
)

// layers is the per-layer run. It sets the workload up once and runs one
// untraced pass, for the program's counters and the runtime's, and then a
// separate traced pass under a CPU profile, for the span and profile views;
// the traced calls also run untraced once more, to give the tracing
// overhead. It ends with the layer probes, which time each package's own
// entry points directly. Host times are times in calls, as in measure.
func layers(w workload, seed int64, sc scale) (result, error) {
	inst, _, err := setUp(w, seed, sc, 1)
	if err != nil {
		return result{}, err
	}
	m := metrics{}

	runtime.GC()
	rt0 := readRuntime()
	rec := &recorder{}
	inst.pass(rec)
	rt1 := readRuntime()
	calls := float64(len(rec.calls))
	runCounters(m, rec, calls)
	rt1.sub(rt0).report(m, calls, float64(rec.events))

	// Tracing overhead: the traced pass's calls, first untraced, then
	// traced under the CPU profile, compared by host time in calls.
	base := &recorder{}
	inst.tracedPass(base)

	agg := newTraceAgg()
	inst.setTracing(true)
	trec := &recorder{onResult: agg.add}
	runtime.GC()
	agg.baseHeap = heapAlloc()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	inst.tracedPass(trec)
	pprof.StopCPUProfile()
	inst.setTracing(false)
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	for _, pkg := range sharePackages {
		m.set("cpu_share."+pkg, shares[pkg], "ratio")
	}
	agg.report(m, float64(len(trec.calls)))
	m.set("trace.overhead", trec.hostNs()/base.hostNs(), "ratio")

	runProbes(m)
	ps, _ := inst.(*paperSweep)
	accuracy(m, ps)

	attempted := len(rec.calls) + len(trec.calls)
	failed := rec.failed() + trec.failed()
	fmt.Printf("workload %s seed %d: untraced pass %.3f s in %d calls; traced calls %.3f s untraced, %.3f s traced, in %d calls; %d failed\n",
		w.name, seed, rec.hostNs()/1e9, len(rec.calls), base.hostNs()/1e9, trec.hostNs()/1e9, len(trec.calls), failed)
	// Tracing must not move virtual time: the traced calls are a prefix of
	// the pass, so their per-call virtual times must match bit for bit.
	prefix := (&recorder{calls: rec.calls[:len(trec.calls)]}).digest()
	fmt.Printf("virtual-time digest %016x over the traced calls untraced, %016x traced\n", prefix, trec.digest())
	correct := failed == 0 && prefix == trec.digest()
	return result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// runCounters reports the program's own counters over the untraced pass.
func runCounters(m metrics, rec *recorder, calls float64) {
	c := rec.stats
	ev := float64(rec.events)
	m.set("sim.events_per_call", ev/calls, "count")
	m.set("sim.host_ns_per_event", ratio(rec.hostNs(), ev), "ns")
	m.set("shm.copies", float64(c.ShmCopies), "count")
	m.set("shm.bytes", float64(c.ShmBytes), "B")
	m.set("rma.puts", float64(c.Puts), "count")
	m.set("rma.put_bytes", float64(c.PutBytes), "B")
	m.set("rma.interrupts", float64(c.Interrupts), "count")
	m.set("rma.deferrals", float64(c.Deferrals), "count")
	m.set("rma.starves", float64(c.Starves), "count")
	m.set("rma.retries", float64(c.Retries), "count")
	m.set("rma.retry_ratio", ratio(float64(c.Retries), float64(c.Puts)), "ratio")
	m.set("rma.ack_timeouts", float64(c.AckTimeouts), "count")
	m.set("rma.dups_suppressed", float64(c.DupsSuppressed), "count")
	m.set("dtype.elements", float64(c.ReduceElements), "count")
	m.set("mpi.sends", float64(c.MPISends), "count")
	m.set("mpi.bytes", float64(c.MPIBytes), "B")
	m.set("mpi.unexpected", float64(c.Unexpected), "count")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeStats is the Go runtime's view of a pass.
type runtimeStats struct {
	mallocs, bytes, gcs, pauseNs uint64
	gcCPU, usedCPU               float64
}

var cpuMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := make([]rtmetrics.Sample, len(cpuMetrics))
	for i, name := range cpuMetrics {
		samples[i].Name = name
	}
	rtmetrics.Read(samples)
	return runtimeStats{
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs,
		gcCPU:   samples[0].Value.Float64(),
		usedCPU: samples[1].Value.Float64() - samples[2].Value.Float64(),
	}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{a.mallocs - b.mallocs, a.bytes - b.bytes, a.gcs - b.gcs, a.pauseNs - b.pauseNs,
		a.gcCPU - b.gcCPU, a.usedCPU - b.usedCPU}
}

func (d runtimeStats) report(m metrics, calls, events float64) {
	m.set("gc.cycles", float64(d.gcs), "count")
	m.set("gc.cpu_frac", ratio(d.gcCPU, d.usedCPU), "ratio")
	m.set("gc.pause_ms", float64(d.pauseNs)/1e6, "ms")
	m.set("alloc.count_per_call", float64(d.mallocs)/calls, "count")
	m.set("alloc.bytes_per_call", float64(d.bytes)/calls, "B")
	m.set("sim.allocs_per_event", ratio(float64(d.mallocs), events), "count")
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// critClasses are the critical-path classes reported, by trace class.
var critClasses = []trace.Class{
	trace.ClassShmCopy, trace.ClassPutInject, trace.ClassPutWire, trace.ClassWaitFlag,
	trace.ClassWaitArrive, trace.ClassWaitCredit, trace.ClassCPU, trace.ClassSkew, trace.ClassReqWait,
}

// traceAgg folds the traced pass's runs, one at a time, so only one run's
// spans are alive at once.
type traceAgg struct {
	spans            int
	maxSpans         int
	crit             map[trace.Class]float64
	critTotal        float64
	hidden, lifetime float64
	baseHeap         uint64
	heapMax          float64 // bytes a run's trace keeps alive, largest run
}

func newTraceAgg() *traceAgg { return &traceAgg{crit: make(map[trace.Class]float64)} }

func (a *traceAgg) add(res *srmcoll.Result) {
	t := res.Trace
	n := len(t.Spans())
	a.spans += n
	for _, oc := range t.CriticalPath() {
		for cl, v := range oc.Segments {
			a.crit[cl] += v
		}
		a.critTotal += oc.Elapsed
	}
	for _, rq := range t.OverlapReport() {
		a.hidden += rq.Hidden
		a.lifetime += rq.End - rq.Issued
	}
	if n > a.maxSpans {
		// Only the largest run so far is worth a collection. This runs
		// between runs, outside every call's host time.
		a.maxSpans = n
		runtime.GC()
		if h := float64(heapAlloc()) - float64(a.baseHeap); h > a.heapMax {
			a.heapMax = h
		}
		runtime.KeepAlive(t)
	}
}

func (a *traceAgg) report(m metrics, calls float64) {
	for _, cl := range critClasses {
		m.set("crit."+strings.ReplaceAll(cl.String(), ":", "_"), ratio(a.crit[cl], a.critTotal), "ratio")
	}
	m.set("request.hidden_pct", 100*ratio(a.hidden, a.lifetime), "%")
	m.set("trace.spans_per_call", float64(a.spans)/calls, "count")
	m.set("trace.heap_mb", math.Max(a.heapMax, 0)/(1<<20), "MB")
}

// accuracy reports, on paper-sweep, SRM's gain over IBM MPI per operation
// (the paper's bands: bcast 27-84 %, reduce 24-79 %, allreduce 30-73 %,
// barrier >73 % at 256 processors) and the mean error of SRM's virtual
// time against internal/model. Other workloads report zeros.
func accuracy(m metrics, s *paperSweep) {
	type key struct {
		cl   *srmcoll.Cluster
		op   opKind
		size int
	}
	srm := map[key]float64{}
	ibm := map[key]float64{}
	var largest *srmcoll.Cluster
	if s != nil {
		for _, pt := range s.points {
			k := key{pt.cl, pt.op, pt.calls[0].bytes}
			switch pt.impl {
			case srmcoll.SRM:
				srm[k] = pt.simUs
			case srmcoll.IBMMPI:
				ibm[k] = pt.simUs
			}
			if largest == nil || pt.cl.Config().P() > largest.Config().P() {
				largest = pt.cl
			}
		}
	}
	for _, op := range []opKind{opBcast, opReduce, opAllreduce, opBarrier} {
		lo, hi := math.Inf(1), math.Inf(-1)
		errSum, n := 0.0, 0
		for k, sv := range srm {
			if k.op != op {
				continue
			}
			if op != opBarrier || k.cl == largest {
				g := 100 * (1 - sv/ibm[k])
				lo, hi = math.Min(lo, g), math.Max(hi, g)
			}
			pred := predict(k.cl.Config(), op, k.size)
			errSum += 100 * math.Abs(sv-pred) / pred
			n++
		}
		if n == 0 {
			lo, hi = 0, 0
		}
		m.set("accuracy.gain_vs_ibm."+op.String()+".min", lo, "%")
		m.set("accuracy.gain_vs_ibm."+op.String()+".max", hi, "%")
		m.set("model.err_pct."+op.String(), ratio(errSum, float64(n)), "%")
	}
}

func predict(cfg machine.Config, op opKind, size int) float64 {
	switch op {
	case opBcast:
		return model.Bcast(cfg, size)
	case opReduce:
		return model.Reduce(cfg, size)
	case opAllreduce:
		return model.Allreduce(cfg, size)
	default:
		return model.Barrier(cfg)
	}
}
