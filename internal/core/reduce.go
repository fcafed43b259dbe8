package core

import (
	"fmt"

	"srmcoll/internal/dtype"
	"srmcoll/internal/rma"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// dataspec bundles the element type and operator of a reduction.
type dataspec struct {
	dt dtype.Type
	op dtype.Op
}

func (ds dataspec) acc(dst, src []byte) { dtype.Reduce(ds.op, ds.dt, dst, src) }

func (ds dataspec) into(dst, a, b []byte) { dtype.ReduceInto(ds.op, ds.dt, dst, a, b) }

func (ds dataspec) validate(n int) error {
	if !dtype.Valid(ds.op, ds.dt) {
		return fmt.Errorf("core: operator %s invalid for %s", ds.op, ds.dt)
	}
	if n%ds.dt.Size() != 0 {
		return fmt.Errorf("core: buffer of %d bytes not a multiple of %s", n, ds.dt)
	}
	return nil
}

// reduceState is the shared state of one reduce operation (§2.4): a
// binomial tree within each node and between the masters, with double
// buffers and chunk pipelining overlapping data movement across the
// intra- and inter-node domains. Node-indexed slices use the layout's
// participating node index.
type reduceState struct {
	g    *Group
	root int
	size int
	ds   dataspec
	emb  gEmbed
	sp   []span

	rn      []*redNode // per-node SMP reduce machinery
	partial [][]byte   // per node: master's partial-result buffer (root's recv at the root)

	// Inter-node: the parent holds two chunk slots per child; the child
	// holds a credit counter (initially 2) replenished by zero-byte puts.
	pslot  [][2][]byte       // indexed by child node, allocated at its parent
	arr    [][2]*rma.Counter // per-parity chunk arrivals from child node, at the parent
	credit []*rma.Counter    // free slots for child node's puts, at the child
}

func newReduceState(g *Group, sc *scratch, root, size int, ds dataspec) *reduceState {
	s := g.s
	cfg := s.m.Cfg
	r := &reduceState{
		g:    g,
		root: root,
		size: size,
		ds:   ds,
		emb:  g.lay.embed(s.interKind("reduce", size), s.opt.IntraTree, root),
	}
	chunk := cfg.SRMLargeChunk
	if ds.dt.Size() > 0 {
		chunk -= chunk % ds.dt.Size() // keep chunks element-aligned
	}
	if size <= chunk {
		chunk = max(size, 1)
	}
	r.sp = chunks(size, chunk)
	nn := len(g.lay.nodes)
	r.rn = make([]*redNode, nn)
	r.partial = make([][]byte, nn)
	r.pslot = make([][2][]byte, nn)
	r.arr = make([][2]*rma.Counter, nn)
	r.credit = make([]*rma.Counter, nn)
	chunkBytes := r.sp[0].n
	for x, nd := range g.lay.nodes {
		r.rn[x] = s.newRedNode(sc, nd, g.lay.li[r.emb.masters[x]], len(g.lay.local[x]), chunkBytes)
		r.pslot[x] = [2][]byte{sc.buf(chunkBytes), sc.buf(chunkBytes)}
		if x != r.emb.inter.Root {
			r.partial[x] = sc.buf(size)
		}
		r.arr[x] = [2]*rma.Counter{
			s.dom.NewCounter(0).TraceClass(trace.ClassWaitArrive),
			s.dom.NewCounter(0).TraceClass(trace.ClassWaitArrive),
		}
		r.credit[x] = s.dom.NewCounter(2).TraceClass(trace.ClassWaitCredit)
	}
	return r
}

// Reduce combines send buffers from every rank with op over elements of dt,
// leaving the result in recv at root (recv is ignored elsewhere and may be
// nil there). send and recv must not overlap.
func (s *SRM) Reduce(p *sim.Proc, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, root int) {
	s.World().Reduce(p, rank, send, recv, dt, op, root)
}

// Reduce combines the group members' send buffers into recv at root.
func (g *Group) Reduce(p *sim.Proc, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, root int) {
	p.Await(func(t *sim.Task, k func()) { g.ReduceT(t, rank, send, recv, dt, op, root, k) })
}

// ReduceT is Reduce in continuation-passing form: kont runs once it completes.
func (s *SRM) ReduceT(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, root int, kont func()) {
	s.World().ReduceT(t, rank, send, recv, dt, op, root, kont)
}

// ReduceT combines the group members' send buffers into recv at root, then
// runs kont.
func (g *Group) ReduceT(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, root int, kont func()) {
	ds := dataspec{dt: dt, op: op}
	if err := ds.validate(len(send)); err != nil {
		panic(err)
	}
	e := g.acquire(rank, func(sc *scratch) any { return newReduceState(g, sc, root, len(send), ds) })
	r := e.state.(*reduceState)
	if r.root != root || r.size != len(send) || r.ds != ds {
		panic(fmt.Sprintf("core: Reduce mismatch at rank %d", rank))
	}
	if rank == root {
		if len(recv) != len(send) {
			panic(fmt.Sprintf("core: Reduce root recv %d bytes, want %d", len(recv), len(send)))
		}
		r.partial[g.lay.ni[rank]] = recv
	}
	r.run(t, rank, send, opDone(t, e, kont))
}

func (r *reduceState) run(t *sim.Task, rank int, send []byte, kont func()) {
	g := r.g
	x := g.lay.ni[rank]
	l := g.lay.li[rank]
	if rank != r.emb.masters[x] {
		r.rn[x].worker(t, l, send, r.sp, r.ds, kont)
		return
	}
	ep := g.s.dom.Endpoint(rank)
	enable := g.s.quietNet(ep, r.size)
	r.master(t, ep, x, send, func() {
		enable()
		kont()
	})
}

// master runs the node master: combine local children, combine arriving
// child-node partials, and either forward the chunk to the parent master or
// finish it into the root's receive buffer — all pipelined over chunks.
func (r *reduceState) master(t *sim.Task, ep *rma.Endpoint, x int, send []byte, kont func()) {
	g := r.g
	s := g.s
	node := g.lay.nodes[x]
	atRoot := x == r.emb.inter.Root
	interKids := r.emb.inter.Children[x]

	var chunk func(k int)
	chunk = func(k int) {
		if k >= len(r.sp) {
			kont()
			return
		}
		c := r.sp[k]
		tchunk := r.partial[x][c.off : c.off+c.n]
		own := send[c.off : c.off+c.n]

		// After the local and child-node combines, forward or finish.
		finish := func(have bool) {
			switch {
			case !atRoot:
				// Forward the chunk partial to the parent's slot for this node.
				src := tchunk
				if !have {
					src = own // single-task leaf node: send straight from the user buffer
				}
				ep.WaitcntrT(t, r.credit[x], 1, func() {
					parent := s.dom.Endpoint(r.emb.masters[r.emb.inter.Parent[x]])
					ep.PutT(t, parent, r.pslot[x][k%2][:c.n], src, nil, r.arr[x][k%2], nil, func() {
						chunk(k + 1)
					})
				})
			case !have && c.n > 0:
				// Reduce over a single task: the result is a plain copy.
				s.m.MemcpyT(t, node, tchunk, own, func() { chunk(k + 1) })
			default:
				chunk(k + 1)
			}
		}

		var child func(i int, have bool)
		child = func(i int, have bool) {
			if i >= len(interKids) {
				finish(have)
				return
			}
			ch := interKids[i]
			ep.WaitcntrT(t, r.arr[ch][k%2], 1, func() {
				slot := r.pslot[ch][k%2][:c.n]
				next := func() {
					// Replenish the child's slot credit — only needed while a
					// chunk k+2 remains to reuse this slot parity.
					if k+2 < len(r.sp) {
						ep.PutZeroT(t, s.dom.Endpoint(r.emb.masters[ch]), r.credit[ch], func() {
							child(i+1, true)
						})
						return
					}
					child(i+1, true)
				}
				if c.n > 0 {
					if have {
						r.ds.acc(tchunk, slot)
					} else {
						r.ds.into(tchunk, own, slot)
					}
					s.combineCharge(t, c.n, r.ds.dt.Size(), next)
					return
				}
				next()
			})
		}

		r.rn[x].masterChunk(t, k, tchunk, own, r.ds, func(have bool) {
			child(0, have)
		})
	}
	chunk(0)
}
