package core

import (
	"fmt"
	"strconv"

	"srmcoll/internal/dtype"
	"srmcoll/internal/rma"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
	"srmcoll/internal/tree"
)

// allreduceState is the shared state of one allreduce (§2.2, §2.4):
//
//   - up to 16 KB: SMP reduce on each node, then an integrated pairwise
//     exchange based on recursive doubling between the node masters, then
//     an SMP broadcast of the result;
//   - above 16 KB: reduce-then-broadcast fused into the four-stage chunk
//     pipeline of Figure 5 (SMP reduce / inter-node reduce / inter-node
//     broadcast / SMP broadcast all overlapping).
//
// Node-indexed slices use the layout's participating node index; the
// master of node index x is its first group member, lay.local[x][0].
type allreduceState struct {
	g     *Group
	size  int
	ds    dataspec
	small bool
	sp    []span

	rn       []*redNode   // per-node SMP reduce machinery
	resBuf   [][]byte     // per node: master's receive buffer (the result lands here)
	resReady []*sim.Event // per node: resBuf registered
	pub      []publisher  // per-node SMP distribution of the result

	// Small path: recursive doubling among masters, with extra nodes
	// (beyond the largest power of two) folded in and out.
	pow      int
	foldSlot [][]byte
	foldArr  []*rma.Counter
	rdSlot   [][][]byte // [node][round]
	rdArr    [][]*rma.Counter
	resArr   []*rma.Counter // result landed back at an extra node

	// Large path: binomial reduce to the first participating node fused
	// with the broadcast back.
	emb       gEmbed
	pslot     [][2][]byte
	arr       [][2]*rma.Counter
	credit    []*rma.Counter
	chunkDone *shm.Flag // at the root master: chunks fully reduced
	// Broadcast-stage arrivals, one counter per chunk: nothing throttles
	// the broadcast puts, so under reliable delivery a retransmitted chunk
	// k can land after chunk k+2, and a per-parity count would mistake
	// that arrival for chunk k's.
	bArr       [][]*rma.Counter // [node][chunk]
	helperDone []*sim.Event
}

func newAllreduceState(g *Group, sc *scratch, size int, ds dataspec) *allreduceState {
	s := g.s
	cfg := s.m.Cfg
	a := &allreduceState{
		g:     g,
		size:  size,
		ds:    ds,
		small: size <= cfg.SRMAllreduceRD,
	}
	chunk := size
	if !a.small {
		// "Pipelining over the entire message range" (§2.4): keep at least
		// four chunks in flight until the full large chunk size pays off.
		chunk = min(cfg.SRMLargeChunk, max((size+3)/4, cfg.SRMSmallChunk))
		if ds.dt.Size() > 0 {
			chunk -= chunk % ds.dt.Size()
		}
	}
	a.sp = chunks(size, max(chunk, 1))
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
	if a.small {
		a.pow = 1
		for a.pow*2 <= nn {
			a.pow *= 2
		}
		rounds := tree.Log2Ceil(a.pow)
		a.foldSlot = make([][]byte, nn)
		a.foldArr = make([]*rma.Counter, nn)
		a.rdSlot = make([][][]byte, nn)
		a.rdArr = make([][]*rma.Counter, nn)
		a.resArr = make([]*rma.Counter, nn)
		for x := 0; x < nn; x++ {
			a.foldSlot[x] = sc.buf(size)
			a.foldArr[x] = s.dom.NewCounter(0).TraceClass(trace.ClassWaitArrive)
			a.resArr[x] = s.dom.NewCounter(0).TraceClass(trace.ClassWaitArrive)
			a.rdSlot[x] = make([][]byte, rounds)
			a.rdArr[x] = make([]*rma.Counter, rounds)
			for r := 0; r < rounds; r++ {
				a.rdSlot[x][r] = sc.buf(size)
				a.rdArr[x][r] = s.dom.NewCounter(0).TraceClass(trace.ClassWaitArrive)
			}
		}
	} else {
		a.emb = g.lay.embed(s.interKind("allreduce", size), s.opt.IntraTree, g.lay.local[0][0])
		a.pslot = make([][2][]byte, nn)
		a.arr = make([][2]*rma.Counter, nn)
		a.credit = make([]*rma.Counter, nn)
		a.bArr = make([][]*rma.Counter, nn)
		a.helperDone = make([]*sim.Event, nn)
		a.chunkDone = shm.NewFlag(s.m, g.lay.nodes[0])
		for x := 0; x < nn; x++ {
			a.pslot[x] = [2][]byte{sc.buf(chunkBytes), sc.buf(chunkBytes)}
			a.arr[x] = [2]*rma.Counter{
				s.dom.NewCounter(0).TraceClass(trace.ClassWaitArrive),
				s.dom.NewCounter(0).TraceClass(trace.ClassWaitArrive),
			}
			a.credit[x] = s.dom.NewCounter(2).TraceClass(trace.ClassWaitCredit)
			a.bArr[x] = s.arrivalCounters(len(a.sp))
			a.helperDone[x] = s.m.Env.NewEvent()
		}
	}
	return a
}

// Allreduce combines send buffers across all ranks and leaves the full
// result in every rank's recv. send and recv must not overlap and must
// have equal length.
func (s *SRM) Allreduce(p *sim.Proc, rank int, send, recv []byte, dt dtype.Type, op dtype.Op) {
	s.World().Allreduce(p, rank, send, recv, dt, op)
}

// Allreduce combines the group members' send buffers into every member's
// recv.
func (g *Group) Allreduce(p *sim.Proc, rank int, send, recv []byte, dt dtype.Type, op dtype.Op) {
	p.Await(func(t *sim.Task, k func()) { g.AllreduceT(t, rank, send, recv, dt, op, k) })
}

// AllreduceT is Allreduce in continuation-passing form: kont runs once
// it completes.
func (s *SRM) AllreduceT(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, kont func()) {
	s.World().AllreduceT(t, rank, send, recv, dt, op, kont)
}

// AllreduceT combines the group members' send buffers into every member's
// recv, then runs kont.
func (g *Group) AllreduceT(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, kont func()) {
	ds := dataspec{dt: dt, op: op}
	if err := ds.validate(len(send)); err != nil {
		panic(err)
	}
	if len(recv) != len(send) {
		panic(fmt.Sprintf("core: Allreduce recv %d bytes, want %d", len(recv), len(send)))
	}
	// The resolver is a pure function of the size, so every rank of the
	// group dispatches the same call to the same algorithm family.
	switch g.s.allreduceAlg(len(send)) {
	case AlgRing:
		e := g.acquire(rank, func(sc *scratch) any { return newRingState(g, sc, len(send), ds) })
		a := e.state.(*ringState)
		a.check(len(send), ds, rank)
		a.run(t, rank, send, recv, opDone(t, e, kont))
		return
	case AlgRHD:
		e := g.acquire(rank, func(sc *scratch) any { return newRHDState(g, sc, len(send), ds) })
		a := e.state.(*rhdState)
		a.check(len(send), ds, rank)
		a.run(t, rank, send, recv, opDone(t, e, kont))
		return
	case AlgDualRoot:
		e := g.acquire(rank, func(sc *scratch) any { return newDualRootState(g, sc, len(send), ds) })
		a := e.state.(*dualRootState)
		a.check(len(send), ds, rank)
		a.run(t, rank, send, recv, opDone(t, e, kont))
		return
	}
	e := g.acquire(rank, func(sc *scratch) any { return newAllreduceState(g, sc, len(send), ds) })
	a := e.state.(*allreduceState)
	if a.size != len(send) || a.ds != ds {
		panic(fmt.Sprintf("core: Allreduce mismatch at rank %d", rank))
	}
	a.run(t, rank, send, recv, opDone(t, e, kont))
}

func (a *allreduceState) run(t *sim.Task, rank int, send, recv []byte, kont func()) {
	g := a.g
	x := g.lay.ni[rank]
	l := g.lay.li[rank]
	if l != 0 {
		// Workers contribute every chunk to the SMP reduce, then consume
		// the distributed result.
		a.rn[x].worker(t, l, send, a.sp, a.ds, func() {
			consumeAll(t, a.pub[x], l, a.sp, recv, kont)
		})
		return
	}
	a.resBuf[x] = recv
	a.resReady[x].Trigger()
	ep := g.s.dom.Endpoint(rank)
	enable := g.s.quietNet(ep, a.size)
	fin := func() {
		enable()
		kont()
	}
	if a.small {
		a.masterSmall(t, ep, x, send, recv, fin)
	} else {
		a.masterLarge(t, ep, x, send, recv, fin)
	}
}

// master returns the master rank of participating node index x.
func (a *allreduceState) master(x int) *rma.Endpoint {
	return a.g.s.dom.Endpoint(a.g.lay.local[x][0])
}

// masterSmall: SMP reduce into recv, recursive-doubling exchange between
// masters (§2.4 Allreduce), SMP broadcast of the result.
func (a *allreduceState) masterSmall(t *sim.Task, ep *rma.Endpoint, x int, send, recv []byte, kont func()) {
	g := a.g
	s := g.s
	nn := len(g.lay.nodes)

	// have/cur/combine are single-task sequential state, safe to capture.
	have := false
	cur := func() []byte {
		if have {
			return recv
		}
		return send
	}
	combine := func(src []byte, k func()) {
		if a.size > 0 {
			if have {
				a.ds.acc(recv, src)
			} else {
				a.ds.into(recv, send, src)
			}
			have = true
			s.combineCharge(t, a.size, a.ds.dt.Size(), k)
			return
		}
		have = true
		k()
	}

	// Distribute the result on the node once the exchange is done.
	publish := func() {
		a.pub[x].Publish(t, 0, recv, false, func() {
			a.pub[x].waitConsumed(t, 0, kont)
		})
	}

	a.rn[x].masterChunk(t, 0, recv, send, a.ds, func(h bool) {
		have = h
		if x >= a.pow {
			// Fold out: hand the node partial to the peer, then receive the
			// final result straight into recv.
			peer := x - a.pow
			ep.PutT(t, a.master(peer), a.foldSlot[peer], cur(), nil, a.foldArr[peer], nil, func() {
				ep.WaitcntrT(t, a.resArr[x], 1, publish)
			})
			return
		}
		unfold := func() {
			tail := func() {
				if !have && a.size > 0 {
					s.m.MemcpyT(t, g.lay.nodes[x], recv, send, publish) // single node, single task
					return
				}
				publish()
			}
			if x+a.pow < nn {
				// Return the full result to the folded-out node's recv buffer.
				extra := x + a.pow
				a.resReady[extra].WaitT(t, func() {
					ep.PutT(t, a.master(extra), a.resBuf[extra], cur(), nil, a.resArr[extra], nil, tail)
				})
				return
			}
			tail()
		}
		var round func(r int)
		round = func(r int) {
			if r >= len(a.rdArr[x]) {
				unfold()
				return
			}
			partner := x ^ (1 << r)
			ep.PutT(t, a.master(partner), a.rdSlot[partner][r], cur(),
				nil, a.rdArr[partner][r], nil, func() {
					ep.WaitcntrT(t, a.rdArr[x][r], 1, func() {
						combine(a.rdSlot[x][r], func() { round(r + 1) })
					})
				})
		}
		if x+a.pow < nn {
			ep.WaitcntrT(t, a.foldArr[x], 1, func() {
				combine(a.foldSlot[x], func() { round(0) })
			})
			return
		}
		round(0)
	})
}

// masterLarge: the four-stage pipeline of Figure 5. The master's main
// process runs the reduce stages; a helper process runs the broadcast
// stages so a chunk can be broadcast while the next one is still being
// reduced.
func (a *allreduceState) masterLarge(t *sim.Task, ep *rma.Endpoint, x int, send, recv []byte, kont func()) {
	g := a.g
	s := g.s
	atRoot := x == a.emb.inter.Root
	interKids := a.emb.inter.Children[x]

	// Broadcast-side helper.
	s.m.Env.SpawnTask("srm-arb-", x, func(hp *sim.Task) {
		if tr := s.m.Env.Trace; tr != nil {
			// The helper gets its own timeline above the rank tracks so its
			// broadcast-stage spans do not interleave with the reduce side.
			ht := s.m.P() + ep.Rank
			hp.SetTrack(ht)
			tr.NameTrack(ht, "rank"+strconv.Itoa(ep.Rank)+"-bcast")
		}
		var hchunk func(k int)
		hchunk = func(k int) {
			if k >= len(a.sp) {
				a.pub[x].waitConsumed(hp, len(a.sp)-1, func() { a.helperDone[x].Trigger() })
				return
			}
			c := a.sp[k]
			bcast := func() {
				src := recv[c.off : c.off+c.n]
				var child func(i int)
				child = func(i int) {
					if i >= len(interKids) {
						a.pub[x].Publish(hp, k, src, false, func() { hchunk(k + 1) })
						return
					}
					ch := interKids[i]
					a.resReady[ch].WaitT(hp, func() {
						dst := a.resBuf[ch][c.off : c.off+c.n]
						ep.PutT(hp, a.master(ch), dst, src, nil, a.bArr[ch][k], nil, func() {
							child(i + 1)
						})
					})
				}
				child(0)
			}
			if atRoot {
				a.chunkDone.WaitGET(hp, k+1, bcast)
				return
			}
			a.bArr[x][k].WaitValueT(hp, 1, bcast)
		}
		hchunk(0)
	})

	// Reduce side (same structure as reduceState.master, targeting recv).
	var chunk func(k int)
	chunk = func(k int) {
		if k >= len(a.sp) {
			a.helperDone[x].WaitT(t, kont)
			return
		}
		c := a.sp[k]
		tchunk := recv[c.off : c.off+c.n]
		own := send[c.off : c.off+c.n]

		finish := func(have bool) {
			if !atRoot {
				src := tchunk
				if !have {
					src = own
				}
				ep.WaitcntrT(t, a.credit[x], 1, func() {
					parent := a.master(a.emb.inter.Parent[x])
					ep.PutT(t, parent, a.pslot[x][k%2][:c.n], src, nil, a.arr[x][k%2], nil, func() {
						chunk(k + 1)
					})
				})
				return
			}
			done := func() {
				a.chunkDone.Set(k + 1)
				chunk(k + 1)
			}
			if !have && c.n > 0 {
				s.m.MemcpyT(t, g.lay.nodes[x], tchunk, own, done)
				return
			}
			done()
		}

		var child func(i int, have bool)
		child = func(i int, have bool) {
			if i >= len(interKids) {
				finish(have)
				return
			}
			ch := interKids[i]
			ep.WaitcntrT(t, a.arr[ch][k%2], 1, func() {
				slot := a.pslot[ch][k%2][:c.n]
				next := func() {
					if k+2 < len(a.sp) {
						ep.PutZeroT(t, a.master(ch), a.credit[ch], func() { child(i+1, true) })
						return
					}
					child(i+1, true)
				}
				if c.n > 0 {
					if have {
						a.ds.acc(tchunk, slot)
					} else {
						a.ds.into(tchunk, own, slot)
					}
					s.combineCharge(t, c.n, a.ds.dt.Size(), next)
					return
				}
				next()
			})
		}

		a.rn[x].masterChunk(t, k, tchunk, own, a.ds, func(have bool) {
			child(0, have)
		})
	}
	chunk(0)
}
