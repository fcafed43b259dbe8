package main

import (
	"fmt"

	"srmcoll"
)

// instance is a workload after set-up: clusters built, inputs generated,
// warm-up done. pass runs every call of the workload once, serially, in a
// closed loop: each call starts only after the rank's previous call
// completed, and each run starts after the previous run returned.
type instance interface {
	pass(rec *recorder)
	// tracedPass runs the calls the traced pass records: the whole pass,
	// except where tracing every call would not fit beside the untraced
	// state in memory.
	tracedPass(rec *recorder)
	setTracing(on bool)
}

// scale sizes a workload; full is what the benchmark measures, tiny is for
// the self-tests.
type scale struct {
	sweepTopos  [][2]int // paper-sweep: (nodes, tasks per node)
	sweepSizes  []int
	ranksShape  [2]int // ranks-8k: (nodes, tasks per node)
	ranksTriads int    // ranks-8k: bcast/allreduce/barrier triads per run
	trainTopo   string
	trainBucket int // bytes per gradient bucket
	trainSteps  int // training steps per family per pass
}

var (
	full = scale{
		sweepTopos:  [][2]int{{4, 16}, {16, 16}},
		sweepSizes:  []int{8, 256, 4 << 10, 32 << 10, 256 << 10},
		ranksShape:  [2]int{1024, 8},
		ranksTriads: 34,
		trainTopo:   "12x4/3",
		trainBucket: 256 << 10,
		trainSteps:  4,
	}
	tiny = scale{
		sweepTopos:  [][2]int{{2, 4}},
		sweepSizes:  []int{8, 4 << 10},
		ranksShape:  [2]int{8, 4},
		ranksTriads: 2,
		trainTopo:   "4x2/2",
		trainBucket: 4 << 10,
		trainSteps:  1,
	}
)

type workload struct {
	name  string
	setup func(seed int64, sc scale) (instance, error)
}

var workloads = []workload{
	{"paper-sweep", newPaperSweep},
	{"ranks-8k", newRanks},
	{"train-hier", newTrainHier},
}

// defectWorkloads reproduce known program defects. They run by name but
// are not part of the benchmark, whose workloads must pass the checker on
// every seed.
var defectWorkloads = []workload{
	// train-hier with lost data packets instead of lost acks: a dropped
	// broadcast put of the large allreduce pipeline can be overtaken by a
	// later chunk's put on the same parity counter, and the node then
	// publishes the chunk before its result has landed (seed 505: call 24).
	{"train-hier-drops", newTrainHierDrops},
}

func findWorkload(name string) (workload, bool) {
	for _, ws := range [][]workload{workloads, defectWorkloads} {
		for _, w := range ws {
			if w.name == name {
				return w, true
			}
		}
	}
	return workload{}, false
}

// ---- paper-sweep: the paper's figure grid on the Proc engine ----

var sweepImpls = []srmcoll.Impl{srmcoll.SRM, srmcoll.IBMMPI, srmcoll.MPICHMPI}

const sweepCallsPerPoint = 2

type sweepPoint struct {
	cl    *srmcoll.Cluster
	impl  srmcoll.Impl
	op    opKind
	calls []*callInput
	simUs float64 // virtual time per call of the last pass (Result.Time / calls)
}

type paperSweep struct {
	clusters   []*srmcoll.Cluster
	points     []*sweepPoint
	send, recv [][]byte // per rank, sized for the largest call
}

func newPaperSweep(seed int64, sc scale) (instance, error) {
	s := &paperSweep{}
	maxP, maxSize := 0, 0
	for _, sz := range sc.sweepSizes {
		maxSize = max(maxSize, sz)
	}
	for ti, shape := range sc.sweepTopos {
		cl, err := srmcoll.NewCluster(srmcoll.ColonySP(shape[0], shape[1]))
		if err != nil {
			return nil, err
		}
		s.clusters = append(s.clusters, cl)
		p := cl.Config().P()
		maxP = max(maxP, p)
		type cell struct {
			op   opKind
			size int
		}
		var cells []cell
		for _, op := range []opKind{opBcast, opReduce, opAllreduce} {
			for _, sz := range sc.sweepSizes {
				cells = append(cells, cell{op, sz})
			}
		}
		cells = append(cells, cell{opBarrier, 0})
		for ci, c := range cells {
			// Every implementation gets the same inputs at a grid cell.
			calls := make([]*callInput, sweepCallsPerPoint)
			for k := range calls {
				calls[k] = newCall(seed, uint64(ti<<16|ci<<4|k), c.op, srmcoll.Float64, c.size, p)
			}
			for _, impl := range sweepImpls {
				s.points = append(s.points, &sweepPoint{cl: cl, impl: impl, op: c.op, calls: calls})
			}
		}
	}
	s.send = make([][]byte, maxP)
	s.recv = make([][]byte, maxP)
	for r := range s.send {
		s.send[r] = make([]byte, maxSize)
		s.recv[r] = make([]byte, maxSize)
	}
	// Warm-up: one point, untimed; the largest SRM allreduce touches the
	// most memory.
	warm := s.points[0]
	for _, pt := range s.points {
		if pt.impl == srmcoll.SRM && pt.op == opAllreduce &&
			pt.cl.Config().P()*pt.calls[0].bytes >= warm.cl.Config().P()*warm.calls[0].bytes {
			warm = pt
		}
	}
	s.runPoint(&recorder{}, warm)
	return s, nil
}

func (s *paperSweep) setTracing(on bool) {
	for _, cl := range s.clusters {
		cl.SetTracing(on)
	}
}

func (s *paperSweep) pass(rec *recorder) {
	for _, pt := range s.points {
		s.runPoint(rec, pt)
	}
}

func (s *paperSweep) tracedPass(rec *recorder) { s.pass(rec) }

func (s *paperSweep) runPoint(rec *recorder, pt *sweepPoint) {
	p := pt.cl.Config().P()
	base := rec.beginRun(p, len(pt.calls))
	res, err := pt.cl.Run(pt.impl, func(c *srmcoll.Comm) {
		r := c.Rank()
		for k, in := range pt.calls {
			send, out := s.send[r][:in.bytes], s.recv[r][:in.bytes]
			rec.harness(in.bytes, func() {
				switch in.op {
				case opBcast:
					in.prepareBcast(r, out)
				case opReduce, opAllreduce:
					in.fillSend(send, r)
					clear(out)
				}
			})
			rec.enter(base+k, c.Now())
			var err error
			switch in.op {
			case opBcast:
				err = c.Bcast(out, in.root)
			case opReduce:
				var dst []byte
				if r == in.root {
					dst = out
				}
				err = c.Reduce(send, dst, in.dt, srmcoll.Sum, in.root)
			case opAllreduce:
				err = c.Allreduce(send, out, in.dt, srmcoll.Sum)
			case opBarrier:
				err = c.Barrier()
			}
			ok := err == nil
			rec.harness(in.bytes, func() { ok = ok && in.check(r, out) })
			rec.exit(base+k, c.Now(), ok)
		}
	})
	rec.endRun(base, res, err)
	if err == nil {
		pt.simUs = res.Time / float64(len(pt.calls))
	}
}

// ---- ranks-8k: chained small collectives on the Task engine ----

type ranks struct {
	cl     *srmcoll.Cluster
	calls  []*callInput
	chains []*chain
}

func newRanks(seed int64, sc scale) (instance, error) {
	cl, err := srmcoll.NewCluster(srmcoll.ColonySP(sc.ranksShape[0], sc.ranksShape[1]))
	if err != nil {
		return nil, err
	}
	cl.SetEngine(srmcoll.EngineTasks)
	p := cl.Config().P()
	s := &ranks{cl: cl, chains: make([]*chain, p)}
	triad := func(key uint64) []*callInput {
		return []*callInput{
			newCall(seed, key<<2|0, opBcast, srmcoll.Int64, 64, p),
			newCall(seed, key<<2|1, opAllreduce, srmcoll.Int64, 64, p),
			newCall(seed, key<<2|2, opBarrier, srmcoll.Int64, 0, p),
		}
	}
	for i := 0; i < sc.ranksTriads; i++ {
		s.calls = append(s.calls, triad(uint64(i))...)
	}
	for r := range s.chains {
		s.chains[r] = newChain(64)
	}
	s.run(&recorder{}, triad(1<<20)) // warm-up, untimed
	return s, nil
}

func (s *ranks) setTracing(on bool) { s.cl.SetTracing(on) }

func (s *ranks) pass(rec *recorder) { s.run(rec, s.calls) }

// tracedRanksCalls bounds ranks-8k's traced run: the trace keeps every span
// of 8,192 ranks in memory (about 4.7 MB per call), and the critical-path
// report roughly doubles that while it runs.
const tracedRanksCalls = 24

func (s *ranks) tracedPass(rec *recorder) { s.run(rec, s.calls[:min(tracedRanksCalls, len(s.calls))]) }

func (s *ranks) run(rec *recorder, calls []*callInput) {
	base := rec.beginRun(s.cl.Config().P(), len(calls))
	res, err := s.cl.RunT(srmcoll.SRM, func(tc *srmcoll.TComm, done func()) {
		s.chains[tc.Rank()].start(tc, rec, base, calls, done)
	})
	rec.endRun(base, res, err)
}

// chain runs one rank's call sequence in continuation-passing style. Its
// continuation is bound once, so the benchmark adds no allocation per call
// to the Task engine's own. Its 64-byte buffer work is below harnessTimed,
// so it runs untimed, inline.
type chain struct {
	tc         *srmcoll.TComm
	rec        *recorder
	base, i    int
	calls      []*callInput
	done       func()
	send, recv []byte
	afterFn    func(error)
}

func newChain(size int) *chain {
	ch := &chain{send: make([]byte, size), recv: make([]byte, size)}
	ch.afterFn = ch.after
	return ch
}

func (ch *chain) start(tc *srmcoll.TComm, rec *recorder, base int, calls []*callInput, done func()) {
	ch.tc, ch.rec, ch.base, ch.i, ch.calls, ch.done = tc, rec, base, 0, calls, done
	ch.next()
}

func (ch *chain) next() {
	if ch.i == len(ch.calls) {
		ch.done()
		return
	}
	in, r := ch.calls[ch.i], ch.tc.Rank()
	send, out := ch.send[:in.bytes], ch.recv[:in.bytes]
	switch in.op {
	case opBcast:
		in.prepareBcast(r, out)
	case opAllreduce:
		in.fillSend(send, r)
		clear(out)
	}
	ch.rec.enter(ch.base+ch.i, ch.tc.Now())
	switch in.op {
	case opBcast:
		ch.tc.Bcast(out, in.root, ch.afterFn)
	case opAllreduce:
		ch.tc.Allreduce(send, out, in.dt, srmcoll.Sum, ch.afterFn)
	case opBarrier:
		ch.tc.Barrier(ch.afterFn)
	default:
		panic(fmt.Sprintf("simbench: ranks chain has no %v", in.op))
	}
}

func (ch *chain) after(err error) {
	in := ch.calls[ch.i]
	ch.rec.exit(ch.base+ch.i, ch.tc.Now(), err == nil && in.check(ch.tc.Rank(), ch.recv[:in.bytes]))
	ch.i++
	ch.next()
}

// ---- train-hier: overlapped gradient allreduce on a 3-tier machine ----

const trainBuckets = 8

var trainAlgs = []srmcoll.AllreduceAlg{srmcoll.AllreduceAuto, srmcoll.AllreduceRing,
	srmcoll.AllreduceRHD, srmcoll.AllreduceDualRoot}

type trainFamily struct {
	cl      *srmcoll.Cluster
	compute float64 // per-bucket backprop budget: one blocking bucket allreduce (us)
}

type trainHier struct {
	fams       []trainFamily
	buckets    []*callInput // the same gradients every step
	send, recv [][][]byte   // [rank][bucket]
	steps      int
}

func newTrainHier(seed int64, sc scale) (instance, error) {
	return setUpTrainHier(seed, sc, false)
}

func newTrainHierDrops(seed int64, sc scale) (instance, error) {
	return setUpTrainHier(seed, sc, true)
}

// setUpTrainHier builds train-hier under a seeded reliable-delivery fault
// plan that loses 1 % of the acks, or with dataDrops 1 % of the inter-node
// data packets. Lost acks drive the same retransmit and duplicate
// suppression as lost data, but every put still arrives in issue order.
func setUpTrainHier(seed int64, sc scale, dataDrops bool) (instance, error) {
	cfg, err := srmcoll.ParseTopo(sc.trainTopo)
	if err != nil {
		return nil, err
	}
	p := cfg.P()
	s := &trainHier{steps: sc.trainSteps}
	for b := 0; b < trainBuckets; b++ {
		s.buckets = append(s.buckets, newCall(seed, uint64(b), opAllreduce, srmcoll.Float64, sc.trainBucket, p))
	}
	s.send = make([][][]byte, p)
	s.recv = make([][][]byte, p)
	for r := 0; r < p; r++ {
		for _, in := range s.buckets {
			send := make([]byte, in.bytes)
			in.fillSend(send, r)
			s.send[r] = append(s.send[r], send)
			s.recv[r] = append(s.recv[r], make([]byte, in.bytes))
		}
	}
	for fi, alg := range trainAlgs {
		cl, err := srmcoll.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		cl.SetVariant(srmcoll.Variant{Allreduce: alg})
		plan := srmcoll.FaultPlan{
			Seed: draw(seed, 0xfa, uint64(fi)), AckDrop: 0.01,
			Reliable: true, AckTimeout: 50, Deadline: 5e6,
		}
		if dataDrops {
			plan.Drop, plan.AckDrop = 0.01, 0
		}
		cl.SetFaultPlan(plan)
		// Calibrate backprop so compute and communication balance: one
		// bucket's blocking allreduce time, the regime where overlap quality
		// decides the step time.
		var callErr error
		res, err := cl.Run(srmcoll.SRM, func(c *srmcoll.Comm) {
			r := c.Rank()
			if err := c.Allreduce(s.send[r][0], s.recv[r][0], srmcoll.Float64, srmcoll.Sum); err != nil {
				callErr = err
			}
		})
		if err == nil {
			err = callErr
		}
		if err != nil {
			return nil, fmt.Errorf("train-hier calibration (%v): %w", alg, err)
		}
		s.fams = append(s.fams, trainFamily{cl: cl, compute: res.Time})
	}
	// Warm-up: one step of the first family, untimed.
	s.runFamily(&recorder{}, s.fams[0], 1)
	return s, nil
}

func (s *trainHier) setTracing(on bool) {
	for _, f := range s.fams {
		f.cl.SetTracing(on)
	}
}

func (s *trainHier) pass(rec *recorder) {
	for _, f := range s.fams {
		s.runFamily(rec, f, s.steps)
	}
}

func (s *trainHier) tracedPass(rec *recorder) { s.pass(rec) }

// runFamily runs training steps: backprop produces the buckets one by one,
// and each bucket's allreduce is issued as soon as the bucket exists. A
// rank waits for a bucket's allreduce once it has issued the next one, so
// each allreduce runs behind the following bucket's backprop and at most
// two are in flight; every call then completes inside the step, which gives
// each one its own host completion time.
func (s *trainHier) runFamily(rec *recorder, f trainFamily, steps int) {
	nb := len(s.buckets)
	n := steps * nb
	base := rec.beginRun(f.cl.Config().P(), n)
	res, err := f.cl.Run(srmcoll.SRM, func(c *srmcoll.Comm) {
		r := c.Rank()
		var prev *srmcoll.Request
		wait := func(i int) {
			err := prev.Wait()
			b := i % nb
			ok := err == nil
			rec.harness(len(s.recv[r][b]), func() { ok = ok && s.buckets[b].check(r, s.recv[r][b]) })
			rec.exit(base+i, c.Now(), ok)
		}
		for i := 0; i < n; i++ {
			b := i % nb
			c.Compute(f.compute)
			rec.harness(len(s.recv[r][b]), func() { clear(s.recv[r][b]) })
			rec.enter(base+i, c.Now())
			rq := c.IAllreduce(s.send[r][b], s.recv[r][b], srmcoll.Float64, srmcoll.Sum)
			if prev != nil {
				wait(i - 1)
			}
			prev = rq
		}
		wait(n - 1)
	})
	rec.endRun(base, res, err)
}
