package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"srmcoll/internal/bufpool"
	"srmcoll/internal/dtype"
	"srmcoll/internal/fault"
	"srmcoll/internal/machine"
	"srmcoll/internal/rma"
	"srmcoll/internal/sim"
)

// poison is the 0xA5 fill poisonPool copies into pooled buffers.
var poison = bytes.Repeat([]byte{0xA5}, 1<<20)

// poisonPool overwrites every free buffer of each class up to 1 MiB with
// 0xA5 and tops each class up to a few dozen buffers, so scratch drawn from
// the pool starts as garbage, never as zeroes.
func poisonPool(pool *bufpool.Pool) {
	for c := 64; c <= len(poison); c *= 2 {
		want := max(2, min(64, (2<<20)/c))
		var held [][]byte
		for {
			_, h0 := pool.Stats()
			held = append(held, pool.Get(c))
			if _, h1 := pool.Stats(); h1 == h0 && len(held) >= want {
				break
			}
		}
		for _, b := range held {
			copy(b[:cap(b)], poison)
			pool.Put(b)
		}
	}
}

// drainPool empties the pool's free lists and returns the first byte of
// every buffer they held, identifying each backing array.
func drainPool(pool *bufpool.Pool) map[*byte]bool {
	got := make(map[*byte]bool)
	for c := 64; c <= 8<<20; c *= 2 {
		for {
			_, h0 := pool.Stats()
			b := pool.Get(c)
			if _, h1 := pool.Stats(); h1 == h0 {
				break
			}
			got[&b[:1][0]] = true
		}
	}
	return got
}

// scratchCase is one collective call of a poisoned-pool run: run issues it
// on a rank, check compares every rank's result with a sequential
// reference once the run is over.
type scratchCase struct {
	name  string
	run   func(s *SRM, p *sim.Proc, rank int)
	check func() error
}

// intVecs returns P int64 vectors of elems elements each, as bytes, and
// their elementwise sum.
func intVecs(P, elems, salt int) (sends [][]byte, sum []int64) {
	sends = make([][]byte, P)
	sum = make([]int64, elems)
	for r := range sends {
		v := make([]int64, elems)
		for i := range v {
			v[i] = int64((r+1)*(i%61) - 7*r + salt)
			sum[i] += v[i]
		}
		sends[r] = dtype.Int64Bytes(v)
	}
	return sends, sum
}

func buffers(P, n int) [][]byte {
	out := make([][]byte, P)
	for r := range out {
		out[r] = make([]byte, n)
	}
	return out
}

// sameBytes reports the first element where got departs from want.
func sameBytes(who string, got, want []byte) error {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: byte %d = %#x, want %#x", who, i, got[i], want[i])
		}
	}
	return nil
}

// everyRank checks each rank's result buffer against want(rank).
func everyRank(got [][]byte, want func(r int) []byte) error {
	for r := range got {
		if err := sameBytes(fmt.Sprintf("rank %d", r), got[r], want(r)); err != nil {
			return err
		}
	}
	return nil
}

func allreduceCase(P, size int) scratchCase {
	sends, sum := intVecs(P, size/8, size)
	recvs := buffers(P, size)
	want := dtype.Int64Bytes(sum)
	return scratchCase{
		name: fmt.Sprintf("allreduce %dB", size),
		run: func(s *SRM, p *sim.Proc, rank int) {
			s.Allreduce(p, rank, sends[rank], recvs[rank], dtype.Int64, dtype.Sum)
		},
		check: func() error { return everyRank(recvs, func(int) []byte { return want }) },
	}
}

func reduceCase(P, size, root int) scratchCase {
	sends, sum := intVecs(P, size/8, size+1)
	recv := make([]byte, size)
	return scratchCase{
		name: fmt.Sprintf("reduce %dB root %d", size, root),
		run: func(s *SRM, p *sim.Proc, rank int) {
			var rb []byte
			if rank == root {
				rb = recv
			}
			s.Reduce(p, rank, sends[rank], rb, dtype.Int64, dtype.Sum, root)
		},
		check: func() error { return sameBytes("root", recv, dtype.Int64Bytes(sum)) },
	}
}

func bcastCase(P, size, root int) scratchCase {
	want := pattern(size, root+size)
	bufs := buffers(P, size)
	copy(bufs[root], want)
	return scratchCase{
		name:  fmt.Sprintf("bcast %dB root %d", size, root),
		run:   func(s *SRM, p *sim.Proc, rank int) { s.Bcast(p, rank, bufs[rank], root) },
		check: func() error { return everyRank(bufs, func(int) []byte { return want }) },
	}
}

func reduceScatterCase(P, blk int) scratchCase {
	sends, sum := intVecs(P, P*blk/8, blk)
	recvs := buffers(P, blk)
	want := dtype.Int64Bytes(sum)
	return scratchCase{
		name: fmt.Sprintf("reduce-scatter %dB blocks", blk),
		run: func(s *SRM, p *sim.Proc, rank int) {
			s.ReduceScatter(p, rank, sends[rank], recvs[rank], dtype.Int64, dtype.Sum)
		},
		check: func() error { return everyRank(recvs, func(r int) []byte { return want[r*blk : (r+1)*blk] }) },
	}
}

func scanCase(P, size int, exclusive bool) scratchCase {
	elems := size / 8
	sends, _ := intVecs(P, elems, size+2)
	recvs := buffers(P, size)
	return scratchCase{
		name: fmt.Sprintf("scan %dB exclusive=%v", size, exclusive),
		run: func(s *SRM, p *sim.Proc, rank int) {
			if exclusive {
				s.Exscan(p, rank, sends[rank], recvs[rank], dtype.Int64, dtype.Sum)
				return
			}
			s.Scan(p, rank, sends[rank], recvs[rank], dtype.Int64, dtype.Sum)
		},
		check: func() error {
			prefix := make([]int64, elems)
			for r := range recvs {
				if !exclusive {
					for i, v := range dtype.Int64s(sends[r]) {
						prefix[i] += v
					}
				}
				if err := sameBytes(fmt.Sprintf("rank %d", r), recvs[r], dtype.Int64Bytes(prefix)); err != nil {
					return err
				}
				if exclusive {
					for i, v := range dtype.Int64s(sends[r]) {
						prefix[i] += v
					}
				}
			}
			return nil
		},
	}
}

func gatherCase(P, blk, root int) scratchCase {
	sends := make([][]byte, P)
	var want []byte
	for r := range sends {
		sends[r] = pattern(blk, r+blk)
		want = append(want, sends[r]...)
	}
	recv := make([]byte, P*blk)
	return scratchCase{
		name: fmt.Sprintf("gather %dB blocks root %d", blk, root),
		run: func(s *SRM, p *sim.Proc, rank int) {
			var rb []byte
			if rank == root {
				rb = recv
			}
			s.Gather(p, rank, sends[rank], rb, root)
		},
		check: func() error { return sameBytes("root", recv, want) },
	}
}

func scatterCase(P, blk, root int) scratchCase {
	send := pattern(P*blk, blk+3)
	recvs := buffers(P, blk)
	return scratchCase{
		name:  fmt.Sprintf("scatter %dB blocks root %d", blk, root),
		run:   func(s *SRM, p *sim.Proc, rank int) { s.Scatter(p, rank, send, recvs[rank], root) },
		check: func() error { return everyRank(recvs, func(r int) []byte { return send[r*blk : (r+1)*blk] }) },
	}
}

func allgatherCase(P, blk int) scratchCase {
	sends := make([][]byte, P)
	var want []byte
	for r := range sends {
		sends[r] = pattern(blk, 2*r+blk)
		want = append(want, sends[r]...)
	}
	recvs := buffers(P, P*blk)
	return scratchCase{
		name:  fmt.Sprintf("allgather %dB blocks", blk),
		run:   func(s *SRM, p *sim.Proc, rank int) { s.Allgather(p, rank, sends[rank], recvs[rank]) },
		check: func() error { return everyRank(recvs, func(int) []byte { return want }) },
	}
}

func alltoallCase(P, blk int) scratchCase {
	sends := make([][]byte, P)
	for r := range sends {
		sends[r] = pattern(P*blk, 5*r+blk)
	}
	recvs := buffers(P, P*blk)
	return scratchCase{
		name: fmt.Sprintf("alltoall %dB blocks", blk),
		run:  func(s *SRM, p *sim.Proc, rank int) { s.Alltoall(p, rank, sends[rank], recvs[rank]) },
		check: func() error {
			for r := range recvs {
				for j := range sends {
					got := recvs[r][j*blk : (j+1)*blk]
					if err := sameBytes(fmt.Sprintf("rank %d block %d", r, j), got, sends[j][r*blk:(r+1)*blk]); err != nil {
						return err
					}
				}
			}
			return nil
		},
	}
}

// runPoisoned issues the cases in order on every rank, re-poisoning the
// machine's pool before each one, then checks every result.
func runPoisoned(t *testing.T, label string, nodes, tpn int, opt Options, cases []scratchCase) {
	t.Helper()
	harness(t, nodes, tpn, opt, func(s *SRM, p *sim.Proc, rank int) {
		for _, c := range cases {
			// Everyone has finished (and so retired) the previous case
			// before rank 0 poisons, and no one starts the next before.
			s.Barrier(p, rank)
			if rank == 0 {
				poisonPool(s.Machine().Buffers)
			}
			s.Barrier(p, rank)
			c.run(s, p, rank)
		}
	})
	for _, c := range cases {
		if err := c.check(); err != nil {
			t.Errorf("%dx%d %s %s: %v", nodes, tpn, label, c.name, err)
		}
	}
}

// TestScratchPoisonedPool runs every collective, every allreduce family and
// both alternative SMP broadcasts with the pool full of 0xA5 garbage, at
// sizes around the 4 KiB pooling floor, the 16 KiB recursive-doubling limit
// and the chunk boundaries. A scratch reader that relied on zeroed memory,
// or read bytes its operation never wrote, would corrupt a result.
func TestScratchPoisonedPool(t *testing.T) {
	allreduceSizes := []int{4088, 4096, 4104, 16 << 10, 16<<10 + 8, 64 << 10, 256 << 10, 256<<10 + 8}
	// 3 and 6 nodes are not powers of two, so the recursive-doubling and
	// RHD fold-in and fold-out steps run.
	for _, shape := range [][2]int{{3, 4}, {6, 2}} {
		nodes, tpn := shape[0], shape[1]
		P := nodes * tpn
		root := P - 1 // a non-master task on the last node
		for _, alg := range []Alg{AlgAuto, AlgRing, AlgRHD, AlgDualRoot} {
			var cases []scratchCase
			for _, size := range allreduceSizes {
				cases = append(cases, allreduceCase(P, size))
			}
			runPoisoned(t, alg.String(), nodes, tpn, Options{AllreduceAlg: alg}, cases)
		}
		var cases []scratchCase
		for _, size := range []int{4096, 8<<10 + 8, 64 << 10, 64<<10 + 8, 256 << 10} {
			cases = append(cases, bcastCase(P, size, root))
		}
		for _, size := range []int{4096, 64<<10 + 8, 256<<10 + 8} {
			cases = append(cases, reduceCase(P, size, root), reduceCase(P, size, 0))
		}
		for _, blk := range []int{512, 4096, 8192} {
			cases = append(cases, reduceScatterCase(P, blk))
		}
		for _, size := range []int{4096, 16<<10 + 8} {
			cases = append(cases, scanCase(P, size, false), scanCase(P, size, true))
		}
		for _, blk := range []int{1024, 4096, 16<<10 + 8} {
			cases = append(cases, gatherCase(P, blk, root), scatterCase(P, blk, root), allgatherCase(P, blk))
		}
		for _, blk := range []int{256, 1024, 2048, 4096} {
			cases = append(cases, alltoallCase(P, blk))
		}
		runPoisoned(t, "default", nodes, tpn, Options{}, cases)

		for label, opt := range map[string]Options{
			"tree SMP broadcast":    {TreeSMPBcst: true},
			"barrier SMP broadcast": {BarrierSMPBcst: true},
		} {
			var cases []scratchCase
			for _, size := range []int{4096, 64<<10 + 8, 256 << 10} {
				cases = append(cases, bcastCase(P, size, root), allreduceCase(P, size))
			}
			runPoisoned(t, label, nodes, tpn, opt, cases)
		}
	}
}

// scratchRun holds the inputs of 256 KiB int64 allreduces on the 12x4/3
// hierarchy the training workload uses, and a probe that records the first
// operation's pooled scratch while it runs. Tests spawn the ranks.
type scratchRun struct {
	env   *sim.Env
	m     *machine.Machine
	s     *SRM
	sends [][]byte
	recvs [][]byte
	want  []byte
	first [][]byte // the first allreduce's pooled scratch, seen mid-operation
}

func newScratchRun(t *testing.T) *scratchRun {
	t.Helper()
	cfg, err := machine.ParseTopo("12x4/3")
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	m := machine.New(env, cfg)
	const size = 256 << 10
	sends, sum := intVecs(m.P(), size/8, 0)
	sr := &scratchRun{
		env:   env,
		m:     m,
		sends: sends,
		recvs: buffers(m.P(), size),
		want:  dtype.Int64Bytes(sum),
	}
	sr.s = New(m, rma.NewDomain(m), Options{})
	env.Spawn("peek", func(p *sim.Proc) {
		p.Sleep(1)
		sr.first = append([][]byte(nil), sr.s.World().ops[0].bufs...)
	})
	return sr
}

// recycled counts the first operation's scratch buffers that are back in
// the pool's free lists.
func (sr *scratchRun) recycled() int {
	free := drainPool(sr.m.Buffers)
	n := 0
	for _, b := range sr.first {
		if free[&b[:1][0]] {
			n++
		}
	}
	return n
}

// TestScratchRecycledAfterCleanOp: once a 256 KiB allreduce retires
// cleanly, an identical second one is served entirely from the pool and
// allocates far less than its scratch footprint.
func TestScratchRecycledAfterCleanOp(t *testing.T) {
	sr := newScratchRun(t)
	var gets, hits, alloc [2]uint64
	mark := func(i int) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		gets[i], hits[i] = sr.m.Buffers.Stats()
		alloc[i] = ms.TotalAlloc
	}
	for r := 0; r < sr.m.P(); r++ {
		r := r
		sr.env.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			sr.s.Allreduce(p, r, sr.sends[r], sr.recvs[r], dtype.Int64, dtype.Sum)
			sr.s.Barrier(p, r)
			if r == 0 {
				mark(0)
			}
			sr.s.Barrier(p, r)
			sr.s.Allreduce(p, r, sr.sends[r], sr.recvs[r], dtype.Int64, dtype.Sum)
			sr.s.Barrier(p, r)
			if r == 0 {
				mark(1)
			}
		})
	}
	if err := sr.env.Run(); err != nil {
		t.Fatalf("simulation: %v", err)
	}
	for r := range sr.recvs {
		if !bytes.Equal(sr.recvs[r], sr.want) {
			t.Fatalf("rank %d: wrong allreduce result", r)
		}
	}
	footprint := 0
	for _, b := range sr.first {
		footprint += cap(b)
	}
	if len(sr.first) == 0 {
		t.Fatal("the 256 KiB allreduce drew no scratch from the pool")
	}
	if misses := (gets[1] - gets[0]) - (hits[1] - hits[0]); misses != 0 {
		t.Errorf("second allreduce: %d of %d pool gets missed, want all served from the pool",
			misses, gets[1]-gets[0])
	}
	if got := alloc[1] - alloc[0]; got >= uint64(footprint/4) {
		t.Errorf("second allreduce allocated %d bytes, want < a quarter of the %d-byte scratch footprint",
			got, footprint)
	}
	if n := sr.recycled(); n != len(sr.first) {
		t.Errorf("%d of %d scratch buffers back in the pool after clean runs", n, len(sr.first))
	}
}

// TestScratchNotRecycledAfterUnsafeOp: scratch stays out of the pool when a
// member left the operation through its unwind stack (a crashed rank whose
// peers the failure detector interrupts), and when unreliable delivery may
// still write into it (duplicated or delayed puts). The clean run is the
// control: the same identity check finds its buffers back in the pool.
func TestScratchNotRecycledAfterUnsafeOp(t *testing.T) {
	type failed struct{}
	cases := []struct {
		name  string
		setup func(sr *scratchRun, procs []*sim.Proc)
		want  bool // scratch recycled
	}{
		{"clean", func(*scratchRun, []*sim.Proc) {}, true},
		{"crash", func(sr *scratchRun, procs []*sim.Proc) {
			sr.env.At(200, func() {
				sr.env.Kill(procs[5], "injected crash of rank 5")
				for r, p := range procs {
					if r != 5 {
						sr.env.Interrupt(p, failed{})
					}
				}
			})
		}, false},
		{"dup", func(sr *scratchRun, _ []*sim.Proc) {
			sr.m.Faults = fault.New(fault.Plan{Seed: 3, Dup: 0.05})
		}, false},
		{"delay", func(sr *scratchRun, _ []*sim.Proc) {
			sr.m.Faults = fault.New(fault.Plan{Seed: 3, Delay: 0.2, DelayMax: 50})
		}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sr := newScratchRun(t)
			procs := make([]*sim.Proc, sr.m.P())
			for r := range procs {
				r := r
				procs[r] = sr.env.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
					defer func() {
						if v := recover(); v != nil && v != (failed{}) {
							panic(v)
						}
					}()
					sr.s.Allreduce(p, r, sr.sends[r], sr.recvs[r], dtype.Int64, dtype.Sum)
				})
			}
			c.setup(sr, procs)
			err := sr.env.Run()
			if c.name != "crash" && err != nil {
				t.Fatalf("simulation: %v", err)
			}
			if len(sr.first) == 0 {
				t.Fatal("the 256 KiB allreduce drew no scratch from the pool")
			}
			if n := len(sr.s.World().ops); n != 0 {
				t.Fatalf("%d operation entries still live; the check needs a retired entry", n)
			}
			n := sr.recycled()
			if c.want && n != len(sr.first) {
				t.Errorf("%d of %d scratch buffers recycled, want all", n, len(sr.first))
			}
			if !c.want && n != 0 {
				t.Errorf("%d of %d scratch buffers recycled, want none", n, len(sr.first))
			}
		})
	}
}
