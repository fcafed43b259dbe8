package core

import (
	"fmt"

	"srmcoll/internal/rma"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
	"srmcoll/internal/tree"
)

// rhdState is the shared state of one recursive halving/doubling allreduce
// (AlgRHD, Rabenseifner's algorithm): an SMP reduce on each node, a
// reduce-scatter by recursive vector halving across the largest power of
// two of node masters, a recursive-doubling allgather back up, then an SMP
// broadcast. Node counts that are not a power of two do NOT fall back to
// another algorithm: the extra masters (x >= pow) fold their node partial
// into master x-pow before the halving rounds and receive the finished
// vector straight into their receive buffer after the doubling rounds —
// the same pre/post fold-in step the small-message recursive-doubling
// exchange uses.
type rhdState struct {
	g    *Group
	size int
	ds   dataspec
	sp   []span // single whole-vector span for the SMP stages

	rn       []*redNode
	resBuf   [][]byte
	resReady []*sim.Event
	pub      []publisher

	pow      int              // largest power of two <= participating nodes
	foldSlot [][]byte         // extras fold their whole vector in here
	foldArr  []*rma.Counter   // fold-in arrived
	resArr   []*rma.Counter   // finished vector landed back at an extra
	halfSlot [][][]byte       // [node][round]: staging for the incoming half
	halfArr  [][]*rma.Counter // [node][round]: half arrived
	dblArr   [][]*rma.Counter // [node][round]: allgather segment landed in recv
}

func newRHDState(g *Group, sc *scratch, size int, ds dataspec) *rhdState {
	s := g.s
	a := &rhdState{g: g, size: size, ds: ds, sp: chunks(size, max(size, 1))}
	nn := len(g.lay.nodes)
	chunkBytes := a.sp[0].n
	a.rn = make([]*redNode, nn)
	a.resBuf = make([][]byte, nn)
	a.resReady = make([]*sim.Event, nn)
	a.pub = make([]publisher, nn)
	for x, nd := range g.lay.nodes {
		a.rn[x] = s.newRedNode(sc, nd, 0, len(g.lay.local[x]), chunkBytes)
		a.resReady[x] = s.m.Env.NewEvent()
		a.pub[x] = s.newPublisher(sc, nd, 0, len(g.lay.local[x]), chunkBytes)
	}
	a.pow = 1
	for a.pow*2 <= nn {
		a.pow *= 2
	}
	rounds := tree.Log2Ceil(a.pow)
	esize := ds.dt.Size()
	elems := size / esize
	a.foldSlot = make([][]byte, nn)
	a.foldArr = make([]*rma.Counter, nn)
	a.resArr = make([]*rma.Counter, nn)
	a.halfSlot = make([][][]byte, nn)
	a.halfArr = make([][]*rma.Counter, nn)
	a.dblArr = make([][]*rma.Counter, nn)
	for x := 0; x < nn; x++ {
		a.foldSlot[x] = sc.buf(size)
		a.foldArr[x] = s.dom.NewCounter(0).TraceClass(trace.ClassWaitArrive)
		a.resArr[x] = s.dom.NewCounter(0).TraceClass(trace.ClassWaitArrive)
		a.halfSlot[x] = make([][]byte, rounds)
		a.halfArr[x] = make([]*rma.Counter, rounds)
		a.dblArr[x] = make([]*rma.Counter, rounds)
		for r := 0; r < rounds; r++ {
			// The half received at round r is at most ceil(elems/2^(r+1))
			// elements.
			a.halfSlot[x][r] = sc.buf(((elems >> (r + 1)) + 1) * esize)
			a.halfArr[x][r] = s.dom.NewCounter(0).TraceClass(trace.ClassWaitArrive)
			a.dblArr[x][r] = s.dom.NewCounter(0).TraceClass(trace.ClassWaitArrive)
		}
	}
	return a
}

func (a *rhdState) check(size int, ds dataspec, rank int) {
	if a.size != size || a.ds != ds {
		panic(fmt.Sprintf("core: Allreduce mismatch at rank %d", rank))
	}
}

// segment returns the element range [lo, hi) master x is responsible for
// after r halving rounds: each round keeps the lower half when the
// round's distance bit of x is clear, the upper half when it is set.
func (a *rhdState) segment(x, r, elems int) (lo, hi int) {
	lo, hi = 0, elems
	for i := 0; i < r; i++ {
		d := a.pow >> (i + 1)
		mid := lo + (hi-lo)/2
		if x&d == 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, hi
}

func (a *rhdState) run(t *sim.Task, rank int, send, recv []byte, kont func()) {
	g := a.g
	x := g.lay.ni[rank]
	l := g.lay.li[rank]
	if l != 0 {
		a.rn[x].worker(t, l, send, a.sp, a.ds, func() {
			consumeAll(t, a.pub[x], l, a.sp, recv, kont)
		})
		return
	}
	a.resBuf[x] = recv
	a.resReady[x].Trigger()
	ep := g.s.dom.Endpoint(rank)
	enable := g.s.quietNet(ep, a.size)
	a.master(t, ep, x, send, recv, func() {
		a.pub[x].Publish(t, 0, recv, false, func() {
			a.pub[x].waitConsumed(t, 0, func() {
				enable()
				kont()
			})
		})
	})
}

// master runs the fold-in, the halving reduce-scatter, the doubling
// allgather, and the fold-out, leaving the full result in recv.
func (a *rhdState) master(t *sim.Task, ep *rma.Endpoint, x int, send, recv []byte, kont func()) {
	g := a.g
	s := g.s
	nn := len(g.lay.nodes)
	esize := a.ds.dt.Size()
	elems := a.size / esize
	rounds := len(a.halfArr[x])

	unfold := func() {
		if x+a.pow < nn {
			// Return the full result to the folded-out node's recv buffer.
			extra := x + a.pow
			a.resReady[extra].WaitT(t, func() {
				ep.PutT(t, g.masterEp(extra), a.resBuf[extra], recv[:a.size],
					nil, a.resArr[extra], nil, kont)
			})
			return
		}
		kont()
	}
	// Allgather by recursive doubling: walk the rounds back up, putting the
	// finished segment straight into the partner's receive buffer.
	var gather func(r int)
	gather = func(r int) {
		if r < 0 {
			unfold()
			return
		}
		d := a.pow >> (r + 1)
		partner := x ^ d
		lo, hi := a.segment(x, r+1, elems)
		a.resReady[partner].WaitT(t, func() {
			ep.PutT(t, g.masterEp(partner), a.resBuf[partner][lo*esize:hi*esize],
				recv[lo*esize:hi*esize], nil, a.dblArr[partner][r], nil, func() {
					ep.WaitcntrT(t, a.dblArr[x][r], 1, func() { gather(r - 1) })
				})
		})
	}
	// Reduce-scatter by recursive halving: each round trades the half of
	// the current segment the partner keeps, then combines the received
	// half into the kept one.
	var scatter func(r int)
	scatter = func(r int) {
		if r >= rounds {
			gather(rounds - 1)
			return
		}
		d := a.pow >> (r + 1)
		partner := x ^ d
		lo, hi := a.segment(x, r, elems)
		mid := lo + (hi-lo)/2
		sLo, sHi, kLo, kHi := mid, hi, lo, mid // distance bit clear: keep lower half
		if x&d != 0 {
			sLo, sHi, kLo, kHi = lo, mid, mid, hi
		}
		sb := recv[sLo*esize : sHi*esize]
		ep.PutT(t, g.masterEp(partner), a.halfSlot[partner][r][:len(sb)], sb,
			nil, a.halfArr[partner][r], nil, func() {
				ep.WaitcntrT(t, a.halfArr[x][r], 1, func() {
					if n := (kHi - kLo) * esize; n > 0 {
						a.ds.acc(recv[kLo*esize:kHi*esize], a.halfSlot[x][r][:n])
						s.combineCharge(t, n, esize, func() { scatter(r + 1) })
						return
					}
					scatter(r + 1)
				})
			})
	}
	foldIn := func() {
		if x+a.pow < nn {
			ep.WaitcntrT(t, a.foldArr[x], 1, func() {
				if a.size > 0 {
					a.ds.acc(recv, a.foldSlot[x])
					s.combineCharge(t, a.size, esize, func() { scatter(0) })
					return
				}
				scatter(0)
			})
			return
		}
		scatter(0)
	}
	a.rn[x].masterChunk(t, 0, recv, send, a.ds, func(have bool) {
		next := func() {
			if x >= a.pow {
				// Fold out: hand the node partial to the peer, then receive
				// the finished vector straight into recv.
				peer := x - a.pow
				ep.PutT(t, g.masterEp(peer), a.foldSlot[peer], recv[:a.size],
					nil, a.foldArr[peer], nil, func() {
						ep.WaitcntrT(t, a.resArr[x], 1, kont)
					})
				return
			}
			foldIn()
		}
		if !have && a.size > 0 {
			s.m.MemcpyT(t, g.lay.nodes[x], recv, send, next) // single task on the node
			return
		}
		next()
	})
}
