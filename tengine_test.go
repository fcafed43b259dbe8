package srmcoll

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// runBothEngines executes the scenario on the Procs reference engine and
// on the Tasks engine, asserting the results the issue requires to be
// bit-identical: Result.Time, PerRank, Stats, and whatever buffer checks
// the scenario's verifier performs per engine.
func runBothEngines(t *testing.T, cl *Cluster, impl Impl,
	mk func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string))) (*Result, *Result) {
	t.Helper()
	P := cl.Config().P()

	cl.SetEngine(EngineProcs)
	bodyP, checkP := mk(P)
	rp, err := cl.RunT(impl, bodyP)
	if err != nil {
		t.Fatalf("procs engine: %v", err)
	}
	checkP(t, "procs")

	cl.SetEngine(EngineTasks)
	bodyT, checkT := mk(P)
	rt, err := cl.RunT(impl, bodyT)
	if err != nil {
		t.Fatalf("tasks engine: %v", err)
	}
	checkT(t, "tasks")

	if rp.Time != rt.Time {
		t.Errorf("Time: procs %v, tasks %v", rp.Time, rt.Time)
	}
	if !reflect.DeepEqual(rp.PerRank, rt.PerRank) {
		t.Errorf("PerRank: procs %v, tasks %v", rp.PerRank, rt.PerRank)
	}
	if rp.Stats != rt.Stats {
		t.Errorf("Stats: procs %+v, tasks %+v", rp.Stats, rt.Stats)
	}
	if rp.Faults != rt.Faults {
		t.Errorf("Faults: procs %+v, tasks %+v", rp.Faults, rt.Faults)
	}
	if rp.Events != rt.Events {
		t.Errorf("Events: procs %d, tasks %d", rp.Events, rt.Events)
	}
	return rp, rt
}

func TestEngineString(t *testing.T) {
	if EngineProcs.String() != "procs" || EngineTasks.String() != "tasks" {
		t.Fatal("engine names wrong")
	}
	if Engine(9).String() != "Engine(9)" {
		t.Fatal("unknown engine should still print")
	}
	cl := mustCluster(t, 1, 2)
	if cl.Engine() != EngineProcs {
		t.Fatal("default engine should be procs")
	}
	cl.SetEngine(EngineTasks)
	if cl.Engine() != EngineTasks {
		t.Fatal("SetEngine did not stick")
	}
}

func TestTaskEngineRejects(t *testing.T) {
	cl := mustCluster(t, 2, 2)
	cl.SetEngine(EngineTasks)
	if _, err := cl.RunT(IBMMPI, func(tc *TComm, done func()) { done() }); err == nil {
		t.Fatal("tasks engine accepted a baseline impl")
	}
	cl.SetFaultPlan(FaultPlan{Stalls: []Stall{{Rank: 0, From: 0, Until: 10, Factor: 2}}})
	if _, err := cl.RunT(SRM, func(tc *TComm, done func()) { done() }); err == nil {
		t.Fatal("tasks engine accepted a stall plan")
	}
}

// fillPattern writes a deterministic per-rank byte pattern.
func fillPattern(buf []byte, rank int) {
	for i := range buf {
		buf[i] = byte(31*rank + i)
	}
}

// engCollectiveScenarios is the collective x size matrix every engine must
// agree on: each entry exercises a distinct protocol path (small/pipelined
// bcast, recursive-doubling vs pipelined-tree allreduce, staged vs direct
// allgather/alltoall, ...).
func engCollectiveScenarios() map[string]func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
	mkBcast := func(n, root int) func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
		return func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
			want := make([]byte, n)
			fillPattern(want, root)
			bufs := make([][]byte, P)
			body := func(tc *TComm, done func()) {
				r := tc.Rank()
				bufs[r] = make([]byte, n)
				if r == root {
					copy(bufs[r], want)
				}
				tc.Bcast(bufs[r], root, func(err error) {
					if err != nil {
						panic(err)
					}
					done()
				})
			}
			check := func(t *testing.T, eng string) {
				for r := range bufs {
					if !bytes.Equal(bufs[r], want) {
						t.Errorf("%s: bcast rank %d corrupted", eng, r)
					}
				}
			}
			return body, check
		}
	}
	mkAllreduce := func(elems int) func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
		return func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
			outs := make([][]int64, P)
			body := func(tc *TComm, done func()) {
				r := tc.Rank()
				send := make([]int64, elems)
				for i := range send {
					send[i] = int64(31*r + i)
				}
				recv := make([]byte, 8*elems)
				tc.Allreduce(Int64Bytes(send), recv, Int64, Sum, func(err error) {
					if err != nil {
						panic(err)
					}
					outs[r] = Int64s(recv)
					done()
				})
			}
			check := func(t *testing.T, eng string) {
				for r, out := range outs {
					for i, v := range out {
						want := int64(0)
						for q := 0; q < P; q++ {
							want += int64(31*q + i)
						}
						if v != want {
							t.Errorf("%s: allreduce rank %d elem %d = %d, want %d", eng, r, i, v, want)
							break
						}
					}
				}
			}
			return body, check
		}
	}
	mkReduce := func(elems, root int) func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
		return func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
			var out []int64
			body := func(tc *TComm, done func()) {
				r := tc.Rank()
				send := make([]int64, elems)
				for i := range send {
					send[i] = int64(r + i)
				}
				var recv []byte
				if r == root {
					recv = make([]byte, 8*elems)
				}
				tc.Reduce(Int64Bytes(send), recv, Int64, Sum, root, func(err error) {
					if err != nil {
						panic(err)
					}
					if r == root {
						out = Int64s(recv)
					}
					done()
				})
			}
			check := func(t *testing.T, eng string) {
				for i, v := range out {
					want := int64(0)
					for q := 0; q < P; q++ {
						want += int64(q + i)
					}
					if v != want {
						t.Errorf("%s: reduce elem %d = %d, want %d", eng, i, v, want)
						break
					}
				}
			}
			return body, check
		}
	}
	mkGatherFamily := func(blk int, direct bool) func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
		return func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
			gathered := make([]byte, 0)
			scattered := make([][]byte, P)
			allg := make([][]byte, P)
			body := func(tc *TComm, done func()) {
				r := tc.Rank()
				send := make([]byte, blk)
				fillPattern(send, r)
				var recv []byte
				if r == 2 {
					recv = make([]byte, blk*P)
				}
				tc.Gather(send, recv, 2, func(err error) {
					if err != nil {
						panic(err)
					}
					if r == 2 {
						gathered = append([]byte(nil), recv...)
					}
					sr := make([]byte, blk)
					tc.Scatter(recv, sr, 2, func(err error) {
						if err != nil {
							panic(err)
						}
						scattered[r] = sr
						ag := make([]byte, blk*P)
						tc.Allgather(send, ag, func(err error) {
							if err != nil {
								panic(err)
							}
							allg[r] = ag
							done()
						})
					})
				})
			}
			check := func(t *testing.T, eng string) {
				want := make([]byte, blk*P)
				for q := 0; q < P; q++ {
					fillPattern(want[q*blk:(q+1)*blk], q)
				}
				if !bytes.Equal(gathered, want) {
					t.Errorf("%s: gather (blk=%d direct=%v) wrong", eng, blk, direct)
				}
				for r := range scattered {
					if !bytes.Equal(scattered[r], want[r*blk:(r+1)*blk]) {
						t.Errorf("%s: scatter rank %d wrong", eng, r)
					}
					if !bytes.Equal(allg[r], want) {
						t.Errorf("%s: allgather rank %d wrong", eng, r)
					}
				}
			}
			return body, check
		}
	}
	mkAlltoall := func(blk int) func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
		return func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
			outs := make([][]byte, P)
			body := func(tc *TComm, done func()) {
				r := tc.Rank()
				send := make([]byte, blk*P)
				for q := 0; q < P; q++ {
					for i := 0; i < blk; i++ {
						send[q*blk+i] = byte(r ^ q ^ i)
					}
				}
				recv := make([]byte, blk*P)
				tc.Alltoall(send, recv, func(err error) {
					if err != nil {
						panic(err)
					}
					outs[r] = recv
					done()
				})
			}
			check := func(t *testing.T, eng string) {
				for r, out := range outs {
					for q := 0; q < P; q++ {
						for i := 0; i < blk; i++ {
							if out[q*blk+i] != byte(q^r^i) {
								t.Errorf("%s: alltoall rank %d block %d wrong", eng, r, q)
								i = blk
								q = P
							}
						}
					}
				}
			}
			return body, check
		}
	}
	mkScanFamily := func(elems int) func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
		return func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
			scans := make([][]int64, P)
			exscans := make([][]int64, P)
			rscatter := make([][]int64, P)
			body := func(tc *TComm, done func()) {
				r := tc.Rank()
				send := make([]int64, elems)
				for i := range send {
					send[i] = int64(r + 2*i)
				}
				recv := make([]byte, 8*elems)
				tc.Scan(Int64Bytes(send), recv, Int64, Sum, func(err error) {
					if err != nil {
						panic(err)
					}
					scans[r] = Int64s(append([]byte(nil), recv...))
					tc.Exscan(Int64Bytes(send), recv, Int64, Sum, func(err error) {
						if err != nil {
							panic(err)
						}
						exscans[r] = Int64s(append([]byte(nil), recv...))
						rsSend := make([]int64, elems*P)
						for i := range rsSend {
							rsSend[i] = int64(r + i)
						}
						tc.ReduceScatter(Int64Bytes(rsSend), recv, Int64, Sum, func(err error) {
							if err != nil {
								panic(err)
							}
							rscatter[r] = Int64s(recv)
							done()
						})
					})
				})
			}
			check := func(t *testing.T, eng string) {
				for r := range scans {
					for i := 0; i < elems; i++ {
						var inc, exc int64
						for q := 0; q <= r; q++ {
							inc += int64(q + 2*i)
						}
						for q := 0; q < r; q++ {
							exc += int64(q + 2*i)
						}
						if scans[r][i] != inc {
							t.Errorf("%s: scan rank %d elem %d = %d, want %d", eng, r, i, scans[r][i], inc)
						}
						if exscans[r][i] != exc {
							t.Errorf("%s: exscan rank %d elem %d = %d, want %d", eng, r, i, exscans[r][i], exc)
						}
						var rs int64
						for q := 0; q < P; q++ {
							rs += int64(q + r*elems + i)
						}
						if rscatter[r][i] != rs {
							t.Errorf("%s: reducescatter rank %d elem %d = %d, want %d", eng, r, i, rscatter[r][i], rs)
						}
					}
				}
			}
			return body, check
		}
	}
	mkBarrier := func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
		entered := make([]float64, P)
		body := func(tc *TComm, done func()) {
			r := tc.Rank()
			tc.Compute(float64(10*r), func() {
				entered[r] = tc.Now()
				tc.Barrier(func(err error) {
					if err != nil {
						panic(err)
					}
					done()
				})
			})
		}
		// Exit times are staggered by the SMP release fan-out; the PerRank
		// comparison in runBothEngines asserts their cross-engine identity.
		check := func(t *testing.T, eng string) {
			for r := 0; r < P; r++ {
				if entered[r] != float64(10*r) {
					t.Errorf("%s: rank %d entered at %v, want %v", eng, r, entered[r], float64(10*r))
				}
			}
		}
		return body, check
	}
	mkSub := func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
		members := []int{0, 2, 4, 6}
		want := make([]byte, 900)
		fillPattern(want, 4)
		bufs := make([][]byte, P)
		body := func(tc *TComm, done func()) {
			r := tc.Rank()
			if r%2 != 0 {
				done()
				return
			}
			sub := tc.Sub(members)
			if sub.Size() != len(members) {
				panic(fmt.Sprintf("sub size %d", sub.Size()))
			}
			bufs[r] = make([]byte, len(want))
			if r == 4 {
				copy(bufs[r], want)
			}
			sub.Bcast(bufs[r], 4, func(err error) {
				if err != nil {
					panic(err)
				}
				sum := make([]byte, 8)
				sub.Allreduce(Int64Bytes([]int64{int64(r)}), sum, Int64, Sum, func(err error) {
					if err != nil {
						panic(err)
					}
					if got := Int64s(sum)[0]; got != 0+2+4+6 {
						panic(fmt.Sprintf("sub allreduce = %d", got))
					}
					done()
				})
			})
		}
		check := func(t *testing.T, eng string) {
			for _, r := range members {
				if !bytes.Equal(bufs[r], want) {
					t.Errorf("%s: sub bcast rank %d corrupted", eng, r)
				}
			}
		}
		return body, check
	}

	return map[string]func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)){
		"barrier":          mkBarrier,
		"bcast-small":      mkBcast(512, 1),
		"bcast-pipelined":  mkBcast(100<<10, 0),
		"reduce":           mkReduce(3000, 3),
		"allreduce-small":  mkAllreduce(128),
		"allreduce-large":  mkAllreduce(8192), // 64 KiB: pipelined-tree path with arbiter helpers
		"gather-staged":    mkGatherFamily(256, false),
		"gather-direct":    mkGatherFamily(20<<10, true),
		"alltoall-staged":  mkAlltoall(96),
		"alltoall-direct":  mkAlltoall(4096),
		"scan-family":      mkScanFamily(200),
		"sub-communicator": mkSub,
	}
}

func TestTaskEngineCollectivesBitIdentical(t *testing.T) {
	for name, mk := range engCollectiveScenarios() {
		t.Run(name, func(t *testing.T) {
			cl := mustCluster(t, 2, 4)
			runBothEngines(t, cl, SRM, mk)
		})
	}
}

// TestTaskEngineNonBlocking covers the request stream: issue/Compute/Wait
// overlap, Test polling, and issue-order completion across two requests.
func TestTaskEngineNonBlocking(t *testing.T) {
	cl := mustCluster(t, 2, 4)
	runBothEngines(t, cl, SRM, func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
		outs := make([][]int64, P)
		bufs := make([][]byte, P)
		body := func(tc *TComm, done func()) {
			r := tc.Rank()
			send := []int64{int64(r), 7}
			recv := make([]byte, 16)
			tc.IAllreduce(Int64Bytes(send), recv, Int64, Sum, func(rq *TRequest) {
				tc.Compute(40, func() {
					rq.Wait(func(err error) {
						if err != nil {
							panic(err)
						}
						outs[r] = Int64s(append([]byte(nil), recv...))
						bufs[r] = make([]byte, 2048)
						if r == 0 {
							fillPattern(bufs[r], 0)
						}
						tc.IBcast(bufs[r], 0, func(rq2 *TRequest) {
							var poll func(ok bool)
							poll = func(ok bool) {
								if !ok {
									tc.Compute(5, func() { rq2.Test(poll) })
									return
								}
								done()
							}
							rq2.Test(poll)
						})
					})
				})
			})
		}
		check := func(t *testing.T, eng string) {
			var sum int64
			for q := 0; q < P; q++ {
				sum += int64(q)
			}
			want := make([]byte, 2048)
			fillPattern(want, 0)
			for r := 0; r < P; r++ {
				if outs[r][0] != sum || outs[r][1] != int64(7*P) {
					t.Errorf("%s: iallreduce rank %d = %v", eng, r, outs[r])
				}
				if !bytes.Equal(bufs[r], want) {
					t.Errorf("%s: ibcast rank %d corrupted", eng, r)
				}
			}
		}
		return body, check
	})
}

// TestTaskEngineBackpressure issues past MaxOutstanding so the admission
// loop has to park the issuing rank on both engines.
func TestTaskEngineBackpressure(t *testing.T) {
	cl := mustCluster(t, 1, 4)
	n := MaxOutstanding + 6
	runBothEngines(t, cl, SRM, func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
		body := func(tc *TComm, done func()) {
			reqs := make([]*TRequest, 0, n)
			var issue func(i int)
			issue = func(i int) {
				if i == n {
					var wait func(j int)
					wait = func(j int) {
						if j == n {
							done()
							return
						}
						reqs[j].Wait(func(err error) {
							if err != nil {
								panic(err)
							}
							wait(j + 1)
						})
					}
					wait(0)
					return
				}
				tc.IBarrier(func(rq *TRequest) {
					reqs = append(reqs, rq)
					issue(i + 1)
				})
			}
			issue(0)
		}
		return body, func(t *testing.T, eng string) {}
	})
}

// TestTaskEngineWireFaults runs drop/dup/delay faults under reliable
// delivery: the retransmit machinery is engine-free, so the runs stay
// bit-identical fault for fault.
func TestTaskEngineWireFaults(t *testing.T) {
	cl := mustCluster(t, 2, 4)
	// The probabilities are high because the scenario's wire traffic is a
	// handful of puts: the retransmit-timer floor keeps clean attempts from
	// spuriously multiplying, so every injected fault must come from a
	// first-attempt draw.
	cl.SetFaultPlan(FaultPlan{
		Seed: 11, Drop: 0.3, Dup: 0.25, Delay: 0.5, DelayMax: 4,
		Reliable: true, AckTimeout: 50, Deadline: 5e6,
	})
	rp, _ := runBothEngines(t, cl, SRM, engCollectiveScenarios()["bcast-pipelined"])
	if rp.Faults == (FaultSummary{}) {
		t.Fatal("fault plan injected nothing; scenario too small to exercise the wire")
	}
}

// TestTaskEngineTraced compares the full span timelines: same spans, same
// classes, same virtual times, same track assignments.
func TestTaskEngineTraced(t *testing.T) {
	cl := mustCluster(t, 2, 2)
	cl.SetTracing(true)
	defer cl.SetTracing(false)
	rp, rt := runBothEngines(t, cl, SRM, func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
		body := func(tc *TComm, done func()) {
			r := tc.Rank()
			buf := make([]byte, 4096)
			if r == 0 {
				fillPattern(buf, 0)
			}
			tc.Bcast(buf, 0, func(err error) {
				if err != nil {
					panic(err)
				}
				recv := make([]byte, 8)
				tc.IAllreduce(Int64Bytes([]int64{int64(r)}), recv, Int64, Sum, func(rq *TRequest) {
					tc.Compute(25, func() {
						rq.Wait(func(err error) {
							if err != nil {
								panic(err)
							}
							done()
						})
					})
				})
			})
		}
		return body, func(t *testing.T, eng string) {}
	})
	sp, st := rp.Trace.Spans(), rt.Trace.Spans()
	if len(sp) != len(st) {
		t.Fatalf("span counts diverge: procs %d, tasks %d", len(sp), len(st))
	}
	for i := range sp {
		if !reflect.DeepEqual(sp[i], st[i]) {
			t.Fatalf("span %d diverges:\nprocs %+v\ntasks %+v", i, sp[i], st[i])
		}
	}
}

// TestTaskEngineCrashFT runs the full fault-tolerance path on both
// engines: an injected crash, the declaration interrupting a blocked
// collective into *RankFailedError, then Shrink + Agree + a collective on
// the repaired communicator. Failure and repair records, per-rank errors,
// and survivor results must agree across engines.
func TestTaskEngineCrashFT(t *testing.T) {
	mk := func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string, res *Result)) {
		errs := make([]error, P)
		agreed := make([]uint64, P)
		final := make([]int64, P)
		body := func(tc *TComm, done func()) {
			r := tc.Rank()
			send := Int64Bytes([]int64{int64(r)})
			recv := make([]byte, 8)
			var loop func(i int)
			loop = func(i int) {
				tc.Allreduce(send, recv, Int64, Sum, func(err error) {
					if err == nil {
						if i > 400 {
							panic("no failure observed")
						}
						tc.Compute(10, func() { loop(i + 1) })
						return
					}
					errs[r] = err
					tc.Shrink(func(sc *TComm, err error) {
						if err != nil {
							panic(err)
						}
						sc.Agree(^(uint64(1) << uint(r)), func(v uint64, err error) {
							if err != nil {
								panic(err)
							}
							agreed[r] = v
							sc.Allreduce(send, recv, Int64, Sum, func(err error) {
								if err != nil {
									panic(err)
								}
								final[r] = Int64s(recv)[0]
								done()
							})
						})
					})
				})
			}
			loop(0)
		}
		check := func(t *testing.T, eng string, res *Result) {
			if len(res.Failures) != 1 || res.Failures[0].Rank != 2 {
				t.Fatalf("%s: failures = %+v", eng, res.Failures)
			}
			if len(res.Repairs) != 2 {
				t.Fatalf("%s: repairs = %+v", eng, res.Repairs)
			}
			var survivorSum int64
			for q := 0; q < P; q++ {
				if q != 2 {
					survivorSum += int64(q)
				}
			}
			for r := 0; r < P; r++ {
				if r == 2 {
					if errs[r] != nil {
						t.Errorf("%s: crashed rank recorded an error", eng)
					}
					continue
				}
				var rf *RankFailedError
				if !errors.As(errs[r], &rf) {
					t.Fatalf("%s: rank %d error %v, want RankFailedError", eng, r, errs[r])
				}
				if len(rf.Failed) != 1 || rf.Failed[0] != 2 {
					t.Errorf("%s: rank %d Failed = %v", eng, r, rf.Failed)
				}
				// Each survivor contributed ^(1<<rank): the AND clears
				// exactly the survivor bits, so bit 2 (the crashed rank,
				// absent from the rendezvous) must survive.
				var survMask uint64
				for q := 0; q < P; q++ {
					if q != 2 {
						survMask |= uint64(1) << uint(q)
					}
				}
				if agreed[r] != ^survMask {
					t.Errorf("%s: rank %d agree = %#x, want %#x", eng, r, agreed[r], ^survMask)
				}
				if final[r] != survivorSum {
					t.Errorf("%s: rank %d post-shrink allreduce = %d, want %d", eng, r, final[r], survivorSum)
				}
			}
		}
		return body, check
	}

	run := func(t *testing.T, eng Engine, engName string) *Result {
		cl := mustCluster(t, 2, 4)
		cl.SetFaultTolerance(DefaultFTConfig())
		cl.SetFaultPlan(FaultPlan{Crashes: []Crash{{Rank: 2, At: 40}}})
		cl.SetEngine(eng)
		body, check := mk(cl.Config().P())
		res, err := cl.RunT(SRM, body)
		if err != nil {
			t.Fatalf("%s engine: %v", engName, err)
		}
		check(t, engName, res)
		return res
	}
	rp := run(t, EngineProcs, "procs")
	rt := run(t, EngineTasks, "tasks")
	if !reflect.DeepEqual(rp.Failures, rt.Failures) {
		t.Errorf("Failures diverge: procs %+v, tasks %+v", rp.Failures, rt.Failures)
	}
	if !reflect.DeepEqual(rp.Repairs, rt.Repairs) {
		t.Errorf("Repairs diverge: procs %+v, tasks %+v", rp.Repairs, rt.Repairs)
	}
}

// TestTaskEngineRequestCrashFT crashes a rank while a non-blocking request
// is in flight: the request's helper observes the declaration and Wait
// returns the *RankFailedError on both engines.
func TestTaskEngineRequestCrashFT(t *testing.T) {
	for _, eng := range []Engine{EngineProcs, EngineTasks} {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			cl := mustCluster(t, 2, 2)
			cl.SetFaultTolerance(DefaultFTConfig())
			cl.SetFaultPlan(FaultPlan{Crashes: []Crash{{Rank: 1, At: 20}}})
			cl.SetEngine(eng)
			P := cl.Config().P()
			errs := make([]error, P)
			res, err := cl.RunT(SRM, func(tc *TComm, done func()) {
				r := tc.Rank()
				recv := make([]byte, 8)
				var loop func(i int)
				loop = func(i int) {
					tc.IAllreduce(Int64Bytes([]int64{1}), recv, Int64, Sum, func(rq *TRequest) {
						tc.Compute(15, func() {
							rq.Wait(func(err error) {
								if err != nil {
									errs[r] = err
									done()
									return
								}
								if i > 400 {
									panic("no failure observed")
								}
								loop(i + 1)
							})
						})
					})
				}
				loop(0)
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Failures) != 1 || res.Failures[0].Rank != 1 {
				t.Fatalf("failures = %+v", res.Failures)
			}
			for r := 0; r < P; r++ {
				if r == 1 {
					continue
				}
				var rf *RankFailedError
				if !errors.As(errs[r], &rf) {
					t.Fatalf("rank %d: %v, want RankFailedError", r, errs[r])
				}
				if len(rf.Failed) != 1 || rf.Failed[0] != 1 {
					t.Errorf("rank %d Failed = %v", r, rf.Failed)
				}
			}
		})
	}
}

// TestTaskEngineMisuseDiagnosed verifies the request-stream misuse panics
// surface as *RunError on the Tasks engine like they do on Procs.
func TestTaskEngineMisuseDiagnosed(t *testing.T) {
	cl := mustCluster(t, 1, 2)
	cl.SetEngine(EngineTasks)
	_, err := cl.RunT(SRM, func(tc *TComm, done func()) {
		buf := make([]byte, 64)
		tc.IBcast(buf, 0, func(rq *TRequest) {
			// Dropped request: the body finishes without Wait.
			done()
		})
	})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("dropped request not diagnosed: %v", err)
	}
}
