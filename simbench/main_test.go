package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"srmcoll"
	"srmcoll/internal/dtype"
)

// runTiny sets a workload up at test scale and runs one pass.
func runTiny(t *testing.T, w workload, seed int64) (instance, *recorder) {
	t.Helper()
	inst, err := w.setup(seed, tiny)
	if err != nil {
		t.Fatalf("%s set-up: %v", w.name, err)
	}
	rec := &recorder{}
	inst.pass(rec)
	return inst, rec
}

func TestWorkloadsPassTheChecker(t *testing.T) {
	for _, w := range workloads {
		_, rec := runTiny(t, w, 7)
		if len(rec.calls) == 0 {
			t.Fatalf("%s: no calls", w.name)
		}
		if n := rec.failed(); n != 0 {
			t.Errorf("%s: %d of %d calls failed", w.name, n, len(rec.calls))
		}
		for i, c := range rec.calls {
			if !(c.vEnd > c.vStart) || c.hostNs <= 0 {
				t.Errorf("%s call %d: virtual [%g, %g], host %g ns", w.name, i, c.vStart, c.vEnd, c.hostNs)
			}
		}
	}
}

func TestSameSeedSameVirtualTimeAndCounters(t *testing.T) {
	for _, w := range workloads {
		_, a := runTiny(t, w, 11)
		_, b := runTiny(t, w, 11)
		if a.digest() != b.digest() {
			t.Errorf("%s: digests %016x and %016x", w.name, a.digest(), b.digest())
		}
		if a.events != b.events || a.stats != b.stats {
			t.Errorf("%s: counters differ: %d %+v vs %d %+v", w.name, a.events, a.stats, b.events, b.stats)
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	a := newCall(1, 5, opAllreduce, srmcoll.Int64, 64, 16)
	b := newCall(2, 5, opAllreduce, srmcoll.Int64, 64, 16)
	if bytes.Equal(a.want, b.want) {
		t.Error("seeds 1 and 2 generated the same allreduce result")
	}
}

// corruptFirst flips one byte of the first allreduce's expected result, as
// a wrong sum would look to the checker.
func corruptFirst(inst instance) {
	var calls []*callInput
	switch s := inst.(type) {
	case *paperSweep:
		for _, pt := range s.points {
			calls = append(calls, pt.calls...)
		}
	case *ranks:
		calls = s.calls
	case *trainHier:
		calls = s.buckets
	}
	for _, in := range calls {
		if in.op == opAllreduce {
			in.want[len(in.want)-1] ^= 0x40
			return
		}
	}
	panic("no allreduce to corrupt")
}

func TestCorruptedPayloadCountsAsFailure(t *testing.T) {
	for _, w := range workloads {
		inst, err := w.setup(3, tiny)
		if err != nil {
			t.Fatal(err)
		}
		corruptFirst(inst)
		rec := &recorder{}
		inst.pass(rec)
		if rec.failed() == 0 {
			t.Errorf("%s: a corrupted payload passed the check", w.name)
		}
		if rec.failed() == len(rec.calls) {
			t.Errorf("%s: one corrupted input failed all %d calls", w.name, len(rec.calls))
		}
	}
}

func TestCheckRejectsWrongSum(t *testing.T) {
	const p = 4
	in := newCall(9, 1, opAllreduce, srmcoll.Int64, 32, p)
	sum := make([]int64, len(in.base))
	for r := 0; r < p; r++ {
		for j, b := range in.base {
			sum[j] += b + int64(r)*in.step
		}
	}
	out := make([]byte, 32)
	encode(out, in.dt, sum, 0)
	if !in.check(0, out) {
		t.Fatal("the summed inputs failed the check")
	}
	out[3] ^= 1
	if in.check(0, out) {
		t.Fatal("a corrupted sum passed the check")
	}
}

func TestQuantileAndGeomean(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median %g, want 3", q)
	}
	if q := quantile(xs, 0.9); q != 4.6 {
		t.Errorf("p90 %g, want 4.6", q)
	}
	if g := geomean([]float64{2, 8}); g != 4 {
		t.Errorf("geomean %g, want 4", g)
	}
}

func TestCPUSharesFoldByPackage(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	dst, src := make([]byte, 256<<10), make([]byte, 256<<10)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		dtype.Reduce(dtype.Sum, dtype.Float64, dst, src)
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %g", total)
	}
	// Under the race detector many samples land in its C runtime, which
	// has no Go frames and so counts as other; among the packages, the
	// loop's own must still lead.
	for pkg, v := range shares {
		if pkg != "dtype" && pkg != "other" && v >= shares["dtype"] {
			t.Errorf("%s share %g >= dtype share %g in a dtype.Reduce loop", pkg, v, shares["dtype"])
		}
	}
	if shares["dtype"] == 0 {
		t.Errorf("no dtype share in a dtype.Reduce loop: %v", shares)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics asserts the output carries exactly the listed metrics, each
// with its declared unit and a finite value.
func checkMetrics(t *testing.T, label string, got metrics, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", label, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: missing %s", label, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: %s in %s, BENCHMARK.json says %s", label, w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %g", label, w.Name, m.Value)
		}
	}
}

func TestOutputsMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	for _, w := range workloads {
		res, err := measure(w, 5, tiny, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s end-to-end: correct %v, %d of %d failed", w.name, res.Correct, res.Failed, res.Attempted)
		}
		checkMetrics(t, w.name+" end-to-end", res.Metrics, spec.EndToEnd)
		for _, e := range spec.EndToEnd {
			if res.Metrics[e.Name].Value <= 0 {
				t.Errorf("%s: end-to-end %s = %g, must never be 0", w.name, e.Name, res.Metrics[e.Name].Value)
			}
		}
	}
	if testing.Short() {
		t.Skip("per-layer runs time every probe")
	}
	for _, w := range workloads {
		res, err := layers(w, 5, tiny)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s per-layer: correct %v, %d of %d failed", w.name, res.Correct, res.Failed, res.Attempted)
		}
		checkMetrics(t, w.name+" per-layer", res.Metrics, spec.PerLayer)
	}
}

func TestMedianPerCallDropsAMinorityDisturbance(t *testing.T) {
	pass := func(hostNs ...float64) *recorder {
		r := &recorder{}
		for _, ns := range hostNs {
			r.calls = append(r.calls, callRec{hostNs: ns})
		}
		return r
	}
	a, b, c := pass(100, 200), pass(100, 900), pass(300, 200)
	c.calls[1].bad = true // failed calls never count
	got := medianPerCall([]*recorder{a, b, c})
	// Call 0: median of 100, 100, 300; call 1: median of 200, 900.
	if got.samples != 2 || math.Abs(got.p50-0.325) > 1e-9 || math.Abs(got.rate-2/650e-9) > 1 {
		t.Errorf("got %+v", got)
	}
}
