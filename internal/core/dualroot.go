package core

import (
	"fmt"
	"strconv"

	"srmcoll/internal/rma"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// dualRootState is the shared state of one doubly-pipelined dual-root
// allreduce (AlgDualRoot, after Träff): the message is cut into the same
// pipeline chunks as the Figure-5 path, but even chunks are reduced up and
// broadcast down a tree rooted at the first participating node while odd
// chunks use a second tree rooted at the second, so neither root is the
// bottleneck for the whole message and both directions of every master's
// links stay busy. Within each tree the protocol is exactly the Figure-5
// pipeline: double-buffered slots keyed by the chunk's parity within its
// tree, two-deep credits from parent back to child, direct puts into the
// children's receive buffers on the broadcast side, and a helper process
// per master running the broadcast stages.
type dualRootState struct {
	g    *Group
	size int
	ds   dataspec
	sp   []span

	rn       []*redNode
	resBuf   [][]byte
	resReady []*sim.Event
	pub      []publisher

	emb        [2]gEmbed
	pslot      [2][][2][]byte
	arr        [2][][2]*rma.Counter
	credit     [2][]*rma.Counter
	bArr       [][]*rma.Counter // [node][chunk]: broadcast arrivals, as in allreduceState
	chunkDone  [2]*shm.Flag     // at each tree's root master: chunks fully reduced
	helperDone []*sim.Event
}

func newDualRootState(g *Group, sc *scratch, size int, ds dataspec) *dualRootState {
	s := g.s
	cfg := s.m.Cfg
	a := &dualRootState{g: g, size: size, ds: ds}
	// Same pipelining depth as the Figure-5 path: at least four chunks in
	// flight until the full large chunk size pays off.
	chunk := min(cfg.SRMLargeChunk, max((size+3)/4, cfg.SRMSmallChunk))
	if ds.dt.Size() > 0 {
		chunk -= chunk % ds.dt.Size()
	}
	a.sp = chunks(size, max(chunk, 1))
	nn := len(g.lay.nodes)
	chunkBytes := a.sp[0].n
	a.rn = make([]*redNode, nn)
	a.resBuf = make([][]byte, nn)
	a.resReady = make([]*sim.Event, nn)
	a.pub = make([]publisher, nn)
	a.helperDone = make([]*sim.Event, nn)
	a.bArr = make([][]*rma.Counter, nn)
	for x, nd := range g.lay.nodes {
		a.rn[x] = s.newRedNode(sc, nd, 0, len(g.lay.local[x]), chunkBytes)
		a.resReady[x] = s.m.Env.NewEvent()
		a.pub[x] = s.newPublisher(sc, nd, 0, len(g.lay.local[x]), chunkBytes)
		a.helperDone[x] = s.m.Env.NewEvent()
		a.bArr[x] = s.arrivalCounters(len(a.sp))
	}
	roots := [2]int{0, min(1, nn-1)}
	kind := s.interKind("allreduce", size)
	for ti := 0; ti < 2; ti++ {
		a.emb[ti] = g.lay.embed(kind, s.opt.IntraTree, g.lay.local[roots[ti]][0])
		a.chunkDone[ti] = shm.NewFlag(s.m, g.lay.nodes[roots[ti]])
		a.pslot[ti] = make([][2][]byte, nn)
		a.arr[ti] = make([][2]*rma.Counter, nn)
		a.credit[ti] = make([]*rma.Counter, nn)
		for x := 0; x < nn; x++ {
			a.pslot[ti][x] = [2][]byte{sc.buf(chunkBytes), sc.buf(chunkBytes)}
			a.arr[ti][x] = [2]*rma.Counter{
				s.dom.NewCounter(0).TraceClass(trace.ClassWaitArrive),
				s.dom.NewCounter(0).TraceClass(trace.ClassWaitArrive),
			}
			a.credit[ti][x] = s.dom.NewCounter(2).TraceClass(trace.ClassWaitCredit)
		}
	}
	return a
}

func (a *dualRootState) check(size int, ds dataspec, rank int) {
	if a.size != size || a.ds != ds {
		panic(fmt.Sprintf("core: Allreduce mismatch at rank %d", rank))
	}
}

func (a *dualRootState) run(t *sim.Task, rank int, send, recv []byte, kont func()) {
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
	// Interrupts stay enabled at every size (unlike the small-message
	// protocols): the broadcast helper waits on counters without entering
	// RMA calls on the shared endpoint, so deferred delivery would strand
	// its arrival notifications while the reduce side blocks in non-RMA
	// waits — the same reason masterLarge never runs quiet.
	a.master(t, g.s.dom.Endpoint(rank), x, send, recv, kont)
}

// master runs the reduce stages of both trees on the main process and the
// broadcast stages on a helper, walking chunks in global order; chunk k
// belongs to tree k%2 and is the (k/2)-th chunk of that tree.
func (a *dualRootState) master(t *sim.Task, ep *rma.Endpoint, x int, send, recv []byte, kont func()) {
	g := a.g
	s := g.s

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
			ti := k % 2
			interKids := a.emb[ti].inter.Children[x]
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
						ep.PutT(hp, g.masterEp(ch), dst, src, nil, a.bArr[ch][k], nil, func() {
							child(i + 1)
						})
					})
				}
				child(0)
			}
			if x == a.emb[ti].inter.Root {
				a.chunkDone[ti].WaitGET(hp, k/2+1, bcast)
				return
			}
			a.bArr[x][k].WaitValueT(hp, 1, bcast)
		}
		hchunk(0)
	})

	// Reduce side.
	var chunk func(k int)
	chunk = func(k int) {
		if k >= len(a.sp) {
			a.helperDone[x].WaitT(t, kont)
			return
		}
		c := a.sp[k]
		ti, par := k%2, (k/2)%2
		interKids := a.emb[ti].inter.Children[x]
		atRoot := x == a.emb[ti].inter.Root
		tchunk := recv[c.off : c.off+c.n]
		own := send[c.off : c.off+c.n]

		finish := func(have bool) {
			if !atRoot {
				src := tchunk
				if !have {
					src = own
				}
				ep.WaitcntrT(t, a.credit[ti][x], 1, func() {
					parent := g.masterEp(a.emb[ti].inter.Parent[x])
					ep.PutT(t, parent, a.pslot[ti][x][par][:c.n], src, nil, a.arr[ti][x][par], nil, func() {
						chunk(k + 1)
					})
				})
				return
			}
			done := func() {
				a.chunkDone[ti].Set(k/2 + 1)
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
			ep.WaitcntrT(t, a.arr[ti][ch][par], 1, func() {
				slot := a.pslot[ti][ch][par][:c.n]
				next := func() {
					// The child's next send in this tree is chunk k+2;
					// returning this credit enables the one after that.
					if k+4 < len(a.sp) {
						ep.PutZeroT(t, g.masterEp(ch), a.credit[ti][ch], func() { child(i+1, true) })
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
