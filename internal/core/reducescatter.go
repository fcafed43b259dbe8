package core

import (
	"fmt"

	"srmcoll/internal/dtype"
	"srmcoll/internal/rma"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
)

// reduceScatterState implements MPI_Reduce_scatter_block in the SRM style:
// each node first reduces the full vector across its members in shared
// memory (the Figure 2 machinery), then every master sends each peer node
// its partial of that node's block range — one put per peer, placed into a
// per-source slot — and combines the inbound partials for its own range.
// Members finally copy their block out of shared memory.
type reduceScatterState struct {
	g   *Group
	blk int
	ds  dataspec
	sp  []span

	rn      []*redNode
	partial [][]byte // per node: master's full-vector local reduction
	acc     [][]byte // per node: accumulated own-range result
	slot    [][][]byte
	arr     [][]*rma.Counter // [dst node][src node]
	ready   []*shm.Flag
	offs    [][]int // per node: input-vector byte offset of each member's block
}

func newReduceScatterState(g *Group, sc *scratch, blk int, ds dataspec) *reduceScatterState {
	s := g.s
	cfg := s.m.Cfg
	nn := len(g.lay.nodes)
	total := blk * len(g.lay.members)
	st := &reduceScatterState{
		g:       g,
		blk:     blk,
		ds:      ds,
		rn:      make([]*redNode, nn),
		partial: make([][]byte, nn),
		acc:     make([][]byte, nn),
		slot:    make([][][]byte, nn),
		arr:     make([][]*rma.Counter, nn),
		ready:   make([]*shm.Flag, nn),
		offs:    make([][]int, nn),
	}
	chunk := cfg.SRMLargeChunk
	if ds.dt.Size() > 0 {
		chunk -= chunk % ds.dt.Size()
	}
	if total <= chunk {
		chunk = max(total, 1)
	}
	st.sp = chunks(total, chunk)
	pos := make(map[int]int, len(g.lay.members))
	for i, r := range g.lay.members {
		pos[r] = i
	}
	for x, nd := range g.lay.nodes {
		st.rn[x] = s.newRedNode(sc, nd, 0, len(g.lay.local[x]), st.sp[0].n)
		st.partial[x] = sc.buf(total)
		size := blk * len(g.lay.local[x])
		st.acc[x] = sc.buf(size)
		st.slot[x] = make([][]byte, nn)
		st.arr[x] = make([]*rma.Counter, nn)
		for y := 0; y < nn; y++ {
			st.slot[x][y] = sc.buf(size)
			st.arr[x][y] = s.dom.NewCounter(0)
		}
		st.ready[x] = shm.NewFlag(s.m, nd)
		st.offs[x] = make([]int, len(g.lay.local[x]))
		for l, r := range g.lay.local[x] {
			st.offs[x][l] = pos[r] * blk
		}
	}
	return st
}

// ReduceScatter combines the members' send vectors (Size()*blk bytes,
// group order) elementwise and scatters the result: the member with group
// rank i receives reduced block i in recv (MPI_Reduce_scatter_block
// semantics).
func (g *Group) ReduceScatter(p *sim.Proc, rank int, send, recv []byte, dt dtype.Type, op dtype.Op) {
	p.Await(func(t *sim.Task, k func()) { g.ReduceScatterT(t, rank, send, recv, dt, op, k) })
}

// ReduceScatter is Group.ReduceScatter over all ranks.
func (s *SRM) ReduceScatter(p *sim.Proc, rank int, send, recv []byte, dt dtype.Type, op dtype.Op) {
	s.World().ReduceScatter(p, rank, send, recv, dt, op)
}

// slabFor extracts node y's members' blocks from a full-length vector, in
// y's local-member order. Contiguous ranges (the whole-world case) are
// returned as a slice; otherwise a compacted copy is built and charged.
func (st *reduceScatterState) slabFor(t *sim.Task, node int, vec []byte, y int, k func([]byte)) {
	offs := st.offs[y]
	if len(offs) == 0 || st.blk == 0 {
		k(nil)
		return
	}
	contiguous := true
	for l := 1; l < len(offs); l++ {
		if offs[l] != offs[l-1]+st.blk {
			contiguous = false
			break
		}
	}
	if contiguous {
		k(vec[offs[0] : offs[0]+len(offs)*st.blk])
		return
	}
	slab := make([]byte, len(offs)*st.blk)
	for l, off := range offs {
		copy(slab[l*st.blk:(l+1)*st.blk], vec[off:off+st.blk])
	}
	st.g.s.m.ChargeCopyT(t, node, len(slab), func() {
		st.g.s.m.Stats.AddCopy(len(slab))
		k(slab)
	})
}

// ReduceScatterT is ReduceScatter in continuation-passing form: kont runs once
// it completes.
func (g *Group) ReduceScatterT(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, kont func()) {
	ds := dataspec{dt: dt, op: op}
	if err := ds.validate(len(send)); err != nil {
		panic(err)
	}
	if len(send) != len(recv)*g.Size() {
		panic(fmt.Sprintf("core: ReduceScatter send %d bytes, want %d", len(send), len(recv)*g.Size()))
	}
	if len(recv)%dt.Size() != 0 {
		panic(fmt.Sprintf("core: ReduceScatter block %d not element-aligned", len(recv)))
	}
	e := g.acquire(rank, func(sc *scratch) any { return newReduceScatterState(g, sc, len(recv), ds) })
	r := e.state.(*reduceScatterState)
	if r.blk != len(recv) || r.ds != ds {
		panic(fmt.Sprintf("core: ReduceScatter mismatch at rank %d", rank))
	}
	r.run(t, rank, send, recv, opDone(t, e, kont))
}

// ReduceScatterT is Group.ReduceScatterT over all ranks.
func (s *SRM) ReduceScatterT(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, kont func()) {
	s.World().ReduceScatterT(t, rank, send, recv, dt, op, kont)
}

func (st *reduceScatterState) run(t *sim.Task, rank int, send, recv []byte, kont func()) {
	g := st.g
	s := g.s
	x := g.lay.ni[rank]
	li := g.lay.li[rank]
	nn := len(g.lay.nodes)
	node := g.lay.nodes[x]

	// Phase 3: every member copies its block out of shared memory.
	copyOut := func() {
		st.ready[x].WaitForT(t, 1, func() {
			if st.blk > 0 {
				off := li * st.blk
				s.m.MemcpyT(t, node, recv, st.acc[x][off:off+st.blk], kont)
				return
			}
			kont()
		})
	}

	// Phase 1: full-vector SMP reduce into the master's partial buffer.
	if rank != g.lay.local[x][0] {
		st.rn[x].worker(t, li, send, st.sp, st.ds, copyOut)
		return
	}
	ep := s.dom.Endpoint(rank)

	// Phase 2: ship each peer node its members' blocks, combine the
	// inbound partials for this node's own blocks.
	exchange := func() {
		st.slabFor(t, node, st.partial[x], x, func(own []byte) {
			copy(st.acc[x], own)
			var put func(d int)
			put = func(d int) {
				if d >= nn {
					var fold func(d int)
					fold = func(d int) {
						if d >= nn {
							st.ready[x].Set(1)
							copyOut()
							return
						}
						y := (x + d) % nn
						ep.WaitcntrT(t, st.arr[x][y], 1, func() {
							if len(st.acc[x]) > 0 {
								st.ds.acc(st.acc[x], st.slot[x][y])
								s.combineCharge(t, len(st.acc[x]), st.ds.dt.Size(), func() { fold(d + 1) })
								return
							}
							fold(d + 1)
						})
					}
					fold(1)
					return
				}
				y := (x + d) % nn
				st.slabFor(t, node, st.partial[x], y, func(slab []byte) {
					ep.PutT(t, s.dom.Endpoint(g.lay.local[y][0]), st.slot[y][x],
						slab, nil, st.arr[y][x], nil, func() { put(d + 1) })
				})
			}
			put(1)
		})
	}

	var chunk func(k int)
	chunk = func(k int) {
		if k >= len(st.sp) {
			exchange()
			return
		}
		c := st.sp[k]
		tchunk := st.partial[x][c.off : c.off+c.n]
		own := send[c.off : c.off+c.n]
		st.rn[x].masterChunk(t, k, tchunk, own, st.ds, func(have bool) {
			if !have && c.n > 0 {
				s.m.MemcpyT(t, g.lay.nodes[x], tchunk, own, func() { chunk(k + 1) }) // single member node
				return
			}
			chunk(k + 1)
		})
	}
	chunk(0)
}
