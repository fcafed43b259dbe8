package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"srmcoll"
)

// callRec is one communicator-wide collective call as the ranks saw it.
type callRec struct {
	vStart float64       // earliest virtual entry over the ranks (us)
	vEnd   float64       // latest virtual completion over the ranks (us)
	done   int           // ranks that completed the call
	bad    bool          // a rank saw an error or a wrong result
	stamp  time.Duration // host CPU time, from run entry, when the last rank completed
	// harness is host time the benchmark itself spent preparing and
	// checking buffers while this call was the oldest incomplete one.
	harness time.Duration
	hostNs  float64 // stamp minus the previous call's stamp (or run entry), minus harness
}

// recorder collects the calls of one pass over a workload. The simulator
// runs one rank at a time on either engine, so the rank callbacks below
// need no locking.
type recorder struct {
	calls  []callRec
	p      int           // ranks of the current run
	start  time.Duration // process CPU time at entry of the current run
	open   int           // oldest call of the current run some rank has not completed
	events uint64
	stats  counters
	// onResult, when set, sees every successful run's result (the traced
	// pass reads the span timeline here, one run at a time).
	onResult func(*srmcoll.Result)
}

// beginRun opens a run of n calls over p ranks and returns the index of its
// first call. The run's host clock starts here, just before Run/RunT entry.
func (r *recorder) beginRun(p, n int) int {
	base := len(r.calls)
	for i := 0; i < n; i++ {
		r.calls = append(r.calls, callRec{vStart: math.Inf(1), vEnd: math.Inf(-1)})
	}
	r.p = p
	r.open = base
	// Every run starts from a collected heap, so one run's garbage is not
	// charged to the next run's calls and the heap peak is the peak of one
	// run over the workload's steady base, not an accident of GC phase.
	runtime.GC()
	r.start = cpuTime()
	return base
}

// enter records rank entry into call i at virtual time now.
func (r *recorder) enter(i int, now float64) {
	if c := &r.calls[i]; now < c.vStart {
		c.vStart = now
	}
}

// exit records one rank's completion of call i; ok is false when the rank
// saw an error or its output failed the check.
func (r *recorder) exit(i int, now float64, ok bool) {
	c := &r.calls[i]
	if now > c.vEnd {
		c.vEnd = now
	}
	c.bad = c.bad || !ok
	c.done++
	if c.done == r.p {
		c.stamp = cpuTime() - r.start
	}
	for r.open < len(r.calls) && r.calls[r.open].done == r.p {
		r.open++
	}
}

// harness runs fn, the benchmark's own work on a rank's n-byte buffers, and
// charges its host time to the call window it falls in, so call host times
// count the program's work only. The work runs on one thread without
// blocking, so its wall time stands for its CPU time, and the wall clock is
// read without the system call the CPU clock needs. Work on buffers below
// harnessTimed bytes costs about as much as reading the clock twice, so it
// runs untimed.
func (r *recorder) harness(n int, fn func()) {
	if n < harnessTimed || r.open >= len(r.calls) {
		fn()
		return
	}
	start := time.Now()
	fn()
	r.calls[r.open].harness += time.Since(start)
}

const harnessTimed = 4 << 10

// cpuTime is the CPU time this process has used, on every thread: the
// simulator's and the collector's work count, while time the machine gives
// to other tenants (steal, preemption) does not. Host figures use it rather
// than the wall clock because on a shared host the stolen share of the wall
// clock swings by a fifth from minute to minute.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// endRun closes the run whose first call is base: an error from Run fails
// every call of the run, and so does any call some rank never completed.
func (r *recorder) endRun(base int, res *srmcoll.Result, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: run of calls %d-%d failed: %v\n", base, len(r.calls)-1, err)
	}
	var prev time.Duration
	for i := base; i < len(r.calls); i++ {
		c := &r.calls[i]
		if err != nil || c.done != r.p {
			c.bad = true
			continue
		}
		c.hostNs = float64(c.stamp - prev - c.harness)
		prev = c.stamp
	}
	if err == nil {
		r.events += res.Events
		r.stats.add(res)
		if r.onResult != nil {
			r.onResult(res)
		}
	}
}

// hostNs is the host time spent in the pass's calls.
func (r *recorder) hostNs() float64 {
	ns := 0.0
	for _, c := range r.calls {
		ns += c.hostNs
	}
	return ns
}

// failed counts the calls that failed.
func (r *recorder) failed() int {
	n := 0
	for _, c := range r.calls {
		if c.bad {
			n++
		}
	}
	return n
}

// hostStats is host-time figures over the calls that passed.
type hostStats struct {
	rate     float64 // calls per host second spent in calls
	p50, p90 float64 // per-call host us
	samples  int
}

func (r *recorder) host() hostStats {
	var us []float64
	ns := 0.0
	for _, c := range r.calls {
		if !c.bad {
			us = append(us, c.hostNs/1e3)
			ns += c.hostNs
		}
	}
	return stats(us, ns)
}

// stats summarizes per-call host times us (microseconds) totalling ns.
func stats(us []float64, ns float64) hostStats {
	if len(us) == 0 {
		return hostStats{}
	}
	return hostStats{rate: float64(len(us)) / (ns / 1e9), p50: quantile(us, 0.5), p90: quantile(us, 0.9), samples: len(us)}
}

// simUs returns each call's virtual duration: latest completion minus
// earliest entry over the ranks.
func (r *recorder) simUs() []float64 {
	out := make([]float64, len(r.calls))
	for i, c := range r.calls {
		out[i] = c.vEnd - c.vStart
	}
	return out
}

// digest is an FNV-1a hash of every call's virtual duration, bit for bit:
// equal digests mean virtual time did not move.
func (r *recorder) digest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range r.simUs() {
		u := math.Float64bits(v)
		for k := range b {
			b[k] = byte(u >> (8 * k))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// counters sums the program's own counters over a pass's runs.
type counters struct {
	ShmCopies, ShmBytes                            int64
	ReduceElements                                 int64
	Puts, PutBytes, Interrupts, Deferrals, Starves int64
	Retries, AckTimeouts, DupsSuppressed           int64
	MPISends, MPIBytes, Unexpected                 int64
}

func (c *counters) add(res *srmcoll.Result) {
	s := res.Stats
	c.ShmCopies += int64(s.ShmCopies)
	c.ShmBytes += s.ShmBytes
	c.ReduceElements += s.ReduceElement
	c.Puts += int64(s.Puts)
	c.PutBytes += s.PutBytes
	c.Interrupts += int64(s.Interrupts)
	c.Deferrals += int64(s.Deferrals)
	c.Starves += int64(s.Starves)
	c.Retries += int64(s.Retries)
	c.AckTimeouts += int64(s.AckTimeouts)
	c.DupsSuppressed += int64(s.DupsSuppressed)
	c.MPISends += int64(s.MPISends)
	c.MPIBytes += s.MPIBytes
	c.Unexpected += int64(s.Unexpected)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
