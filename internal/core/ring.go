package core

import (
	"fmt"

	"srmcoll/internal/rma"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// ringState is the shared state of one ring allreduce (AlgRing): an SMP
// reduce of the whole vector on each node, a reduce-scatter pass followed
// by an allgather pass around the ring of node masters, then an SMP
// broadcast of the result. The vector is cut into one element-aligned
// block per node; every master sends 2(nn-1) blocks to its right
// neighbour, so the per-master traffic is bandwidth-optimal regardless of
// node count. Receives are staged in double-buffered slots with a
// two-deep credit window back to the left neighbour, the same flow
// control the Figure-5 pipeline uses between parent and child.
type ringState struct {
	g    *Group
	size int
	ds   dataspec
	sp   []span // single whole-vector span for the SMP stages

	rn       []*redNode   // per-node SMP reduce machinery
	resBuf   [][]byte     // per node: master's receive buffer
	resReady []*sim.Event // per node: resBuf registered
	pub      []publisher  // per-node SMP distribution of the result

	blk    []span            // one element-aligned vector block per node
	slot   [][2][]byte       // per node: staging for the left neighbour's sends
	arr    [][2]*rma.Counter // per node, per step parity: block arrived
	credit []*rma.Counter    // per node: budget for sending to the right neighbour
}

// masterEp returns the endpoint of the master rank of participating node
// index x.
func (g *Group) masterEp(x int) *rma.Endpoint {
	return g.s.dom.Endpoint(g.lay.local[x][0])
}

func newRingState(g *Group, sc *scratch, size int, ds dataspec) *ringState {
	s := g.s
	a := &ringState{g: g, size: size, ds: ds, sp: chunks(size, max(size, 1))}
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
	esize := ds.dt.Size()
	elems := size / esize
	base, rem := elems/nn, elems%nn
	a.blk = make([]span, nn)
	off, maxBlk := 0, 0
	for i := 0; i < nn; i++ {
		n := base
		if i < rem {
			n++
		}
		a.blk[i] = span{off * esize, n * esize}
		off += n
		if n*esize > maxBlk {
			maxBlk = n * esize
		}
	}
	a.slot = make([][2][]byte, nn)
	a.arr = make([][2]*rma.Counter, nn)
	a.credit = make([]*rma.Counter, nn)
	for x := 0; x < nn; x++ {
		a.slot[x] = [2][]byte{sc.buf(maxBlk), sc.buf(maxBlk)}
		a.arr[x] = [2]*rma.Counter{
			s.dom.NewCounter(0).TraceClass(trace.ClassWaitArrive),
			s.dom.NewCounter(0).TraceClass(trace.ClassWaitArrive),
		}
		a.credit[x] = s.dom.NewCounter(2).TraceClass(trace.ClassWaitCredit)
	}
	return a
}

func (a *ringState) check(size int, ds dataspec, rank int) {
	if a.size != size || a.ds != ds {
		panic(fmt.Sprintf("core: Allreduce mismatch at rank %d", rank))
	}
}

// stepBlocks returns which vector block master x sends and receives at
// ring step st. The reduce-scatter pass (first nn-1 steps) walks blocks
// backwards so after it x holds the fully reduced block (x+1) mod nn; the
// allgather pass circulates the reduced blocks the same way.
func (a *ringState) stepBlocks(x, st int) (sendIdx, recvIdx int) {
	nn := len(a.g.lay.nodes)
	if st < nn-1 {
		return ((x-st)%nn + nn) % nn, ((x-st-1)%nn + nn) % nn
	}
	s2 := st - (nn - 1)
	return ((x+1-s2)%nn + nn) % nn, ((x-s2)%nn + nn) % nn
}

func (a *ringState) run(t *sim.Task, rank int, send, recv []byte, kont func()) {
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

// master reduces the node contributions into recv, then runs the
// 2(nn-1)-step ring exchange. Each step sends one block right, waits for
// the matching block from the left, combines (reduce-scatter half) or
// copies it in (allgather half), and recredits the left neighbour.
func (a *ringState) master(t *sim.Task, ep *rma.Endpoint, x int, send, recv []byte, kont func()) {
	g := a.g
	s := g.s
	nn := len(g.lay.nodes)
	right := (x + 1) % nn
	left := (x + nn - 1) % nn
	steps := 2 * (nn - 1)
	var step func(st int)
	step = func(st int) {
		if st >= steps {
			kont()
			return
		}
		sendIdx, recvIdx := a.stepBlocks(x, st)
		sb := a.blk[sendIdx]
		rb := a.blk[recvIdx]
		ep.WaitcntrT(t, a.credit[x], 1, func() {
			ep.PutT(t, g.masterEp(right), a.slot[right][st%2][:sb.n], recv[sb.off:sb.off+sb.n],
				nil, a.arr[right][st%2], nil, func() {
					ep.WaitcntrT(t, a.arr[x][st%2], 1, func() {
						src := a.slot[x][st%2][:rb.n]
						recredit := func() {
							if st+2 < steps {
								ep.PutZeroT(t, g.masterEp(left), a.credit[left], func() { step(st + 1) })
								return
							}
							step(st + 1)
						}
						if st < nn-1 {
							if rb.n > 0 {
								a.ds.acc(recv[rb.off:rb.off+rb.n], src)
								s.combineCharge(t, rb.n, a.ds.dt.Size(), recredit)
								return
							}
							recredit()
							return
						}
						if rb.n > 0 {
							s.m.MemcpyT(t, g.lay.nodes[x], recv[rb.off:rb.off+rb.n], src, recredit)
							return
						}
						recredit()
					})
				})
		})
	}
	a.rn[x].masterChunk(t, 0, recv, send, a.ds, func(have bool) {
		start := func() {
			if nn == 1 {
				kont()
				return
			}
			step(0)
		}
		if !have && a.size > 0 {
			s.m.MemcpyT(t, g.lay.nodes[x], recv, send, start) // single task on the node
			return
		}
		start()
	})
}
