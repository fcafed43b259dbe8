// Command simbench is the simulator's benchmark. It runs one seeded,
// closed-loop workload against the public srmcoll API, checks every
// collective's output, and prints its metrics as one JSON object on the
// last line of standard output.
//
//	simbench --workload paper-sweep|ranks-8k|train-hier --seed N --seconds S --trace 0|1
//
// The workload train-hier-drops is not part of the benchmark: it
// reproduces a known defect (see README.md).
//
// With --trace 0 it reports the end-to-end metrics of untraced runs; with
// --trace 1 it reports the per-layer metrics: run counters, layer probes,
// and a separate traced, CPU-profiled pass. README.md lists every metric
// and the end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the benchmark's final output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// setups is how many times a timed run sets its workload up; setup_s is
// the median of their CPU times.
const setups = 7

func main() {
	name := flag.String("workload", "", "workload: paper-sweep, ranks-8k or train-hier")
	seed := flag.Int64("seed", 1, "input seed: payloads, roots and the fault-plan seed")
	seconds := flag.Float64("seconds", 10, "measured host seconds (whole passes, at least one)")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "simbench: bad arguments (workload %q, trace %d, seconds %g)\n", *name, *traced, *seconds)
		os.Exit(2)
	}
	// Load comes from this one process, and at most two threads run Go code
	// at once, so figures from a larger host stay comparable with these.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	var out result
	var err error
	if *traced == 0 {
		out, err = measure(w, *seed, full, time.Duration(*seconds*float64(time.Second)))
	} else {
		out, err = layers(w, *seed, full)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setUp builds the workload n times and returns the last instance with the
// median set-up time. Each set-up is timed from a collected heap, so one
// set-up's garbage is not charged to the next.
func setUp(w workload, seed int64, sc scale, n int) (instance, float64, error) {
	var inst instance
	times := make([]float64, n)
	for i := range times {
		inst = nil
		runtime.GC()
		start := cpuTime()
		var err error
		if inst, err = w.setup(seed, sc); err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		times[i] = (cpuTime() - start).Seconds()
	}
	return inst, median(times), nil
}

// measure is the end-to-end run: set up, then run whole passes until the
// time is spent. Every pass repeats the same calls from the same state, so
// each call's host time is its median over the passes: a disturbance from
// the rest of the machine that hits a call in a minority of passes drops
// out, while anything the call costs in most passes, the collections its
// run triggers included, stays. Throughput and percentiles come from those
// per-call medians; every pass's own figures are printed too. Host time is
// process CPU time (see cpuTime), counted inside calls only; the heap
// collection before each run is the benchmark's. The run length is wall
// time.
func measure(w workload, seed int64, sc scale, dur time.Duration) (result, error) {
	inst, setupS, err := setUp(w, seed, sc, setups)
	if err != nil {
		return result{}, err
	}
	var passes []*recorder
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < dur {
		rec := &recorder{}
		inst.pass(rec)
		passes = append(passes, rec)
	}
	elapsed := time.Since(start).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	attempted, failed := 0, 0
	for i, rec := range passes {
		attempted += len(rec.calls)
		failed += rec.failed()
		h := rec.host()
		fmt.Printf("pass %d: %.3f calls per CPU s, op_cpu_us p50 %.1f p90 %.1f over %d calls\n", i, h.rate, h.p50, h.p90, h.samples)
	}
	all := medianPerCall(passes)
	fmt.Printf("per-call medians over %d passes: %.3f calls per CPU s, op_cpu_us p50 %.1f p90 %.1f over %d calls\n",
		len(passes), all.rate, all.p50, all.p90, all.samples)
	first := passes[0]
	var sim []float64
	for i, v := range first.simUs() {
		if !first.calls[i].bad {
			sim = append(sim, v)
		}
	}
	gm := 0.0
	if len(sim) > 0 {
		gm = geomean(sim)
	}
	correct := failed == 0 && stable(passes)
	fmt.Printf("workload %s seed %d: %d passes, %d calls, %d failed, %.3f s wall\n",
		w.name, seed, len(passes), attempted, failed, elapsed)
	fmt.Printf("virtual-time digest %016x over %d calls of the first pass\n", first.digest(), len(first.calls))

	m := metrics{}
	m.set("ops_per_cpu_s", all.rate, "1/s")
	m.set("op_cpu_us.p50", all.p50, "us")
	m.set("op_cpu_us.p90", all.p90, "us")
	m.set("heap_sys_mb", float64(ms.HeapSys)/(1<<20), "MB")
	m.set("sim_op_us.geomean", gm, "vus")
	m.set("ok_frac", float64(attempted-failed)/float64(attempted), "ratio")
	m.set("setup_s", setupS, "s")
	return result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// medianPerCall is the host figures over each call's median host time
// across the passes in which it passed.
func medianPerCall(passes []*recorder) hostStats {
	var us []float64
	ns := 0.0
	for i := range passes[0].calls {
		var v []float64
		for _, rec := range passes {
			if c := rec.calls[i]; !c.bad {
				v = append(v, c.hostNs)
			}
		}
		if len(v) > 0 {
			x := median(v)
			us = append(us, x/1e3)
			ns += x
		}
	}
	return stats(us, ns)
}

// stable reports whether every pass reproduced the first pass's virtual
// time bit for bit: passes replay identical inputs, so any difference is a
// determinism failure.
func stable(passes []*recorder) bool {
	d := passes[0].digest()
	for _, rec := range passes[1:] {
		if rec.digest() != d {
			fmt.Fprintf(os.Stderr, "simbench: virtual-time digest %016x differs from the first pass's %016x\n", rec.digest(), d)
			return false
		}
	}
	return true
}
