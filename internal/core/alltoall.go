package core

import (
	"fmt"

	"srmcoll/internal/rma"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
)

// alltoallState implements a hierarchical all-to-all in the SRM style:
// members aggregate their outgoing blocks per destination node in shared
// memory, the masters exchange one node-to-node slab per peer (pairwise
// puts at final offsets), and members pick their incoming blocks out of
// shared memory. The network carries n*(n-1) slabs instead of the P*(P-1)
// messages of rank-pairwise exchanges.
// alltoallDirectMin is the block size above which the staged hierarchical
// exchange stops paying: the wire is bandwidth-bound either way, so blocks
// go straight into the destination user buffers (zero-copy, as in the
// Fig. 4 large-message broadcast).
const alltoallDirectMin = 2048

type alltoallState struct {
	g      *Group
	blk    int
	direct bool

	// out[x][y]: slab of blocks from node x's members to node y's members,
	// laid out [src local][dst local]. in[y][x] aliases the same buffers
	// conceptually; the put writes out[x][y] into in-place buffers owned
	// by node y.
	out [][][]byte // allocated at node x, indexed [x][y]
	in  [][][]byte // allocated at node y, indexed [y][x]

	staged []*shm.FlagSet   // per node: member finished staging
	ready  []*shm.Flag      // per node: all inbound slabs landed
	arr    [][]*rma.Counter // [dst node][src node] slab arrivals
	pos    map[int]int      // member rank -> group rank

	// Direct path: per-member receive buffers and block-arrival counters.
	recvBuf    [][]byte
	registered []*sim.Event
	blkArr     []*rma.Counter
}

func newAlltoallState(g *Group, sc *scratch, blk int) *alltoallState {
	s := g.s
	nn := len(g.lay.nodes)
	st := &alltoallState{
		g:      g,
		blk:    blk,
		out:    make([][][]byte, nn),
		in:     make([][][]byte, nn),
		staged: make([]*shm.FlagSet, nn),
		ready:  make([]*shm.Flag, nn),
		arr:    make([][]*rma.Counter, nn),
		pos:    make(map[int]int, len(g.lay.members)),
	}
	for i, r := range g.lay.members {
		st.pos[r] = i
	}
	st.direct = blk > alltoallDirectMin
	if st.direct {
		st.recvBuf = make([][]byte, len(g.lay.members))
		st.registered = make([]*sim.Event, len(g.lay.members))
		st.blkArr = make([]*rma.Counter, len(g.lay.members))
		for i := range g.lay.members {
			st.registered[i] = s.m.Env.NewEvent()
			st.blkArr[i] = s.dom.NewCounter(0)
		}
		return st
	}
	for x, nd := range g.lay.nodes {
		st.out[x] = make([][]byte, nn)
		st.in[x] = make([][]byte, nn)
		st.arr[x] = make([]*rma.Counter, nn)
		for y := range g.lay.nodes {
			st.out[x][y] = sc.buf(len(g.lay.local[x]) * len(g.lay.local[y]) * blk)
			if y != x { // in[x][x] aliases out[x][x] (see run)
				st.in[x][y] = sc.buf(len(g.lay.local[y]) * len(g.lay.local[x]) * blk)
			}
			st.arr[x][y] = s.dom.NewCounter(0)
		}
		st.staged[x] = shm.NewFlagSet(s.m, nd, len(g.lay.local[x]))
		st.ready[x] = shm.NewFlag(s.m, nd)
	}
	return st
}

// Alltoall exchanges blocks between all members: member i's send holds one
// blk-byte block per member (group order), and its recv receives member
// j's block for i at group offset j. len(send) = len(recv) = Size()*blk.
func (g *Group) Alltoall(p *sim.Proc, rank int, send, recv []byte) {
	p.Await(func(t *sim.Task, k func()) { g.AlltoallT(t, rank, send, recv, k) })
}

// Alltoall is Group.Alltoall over all ranks.
func (s *SRM) Alltoall(p *sim.Proc, rank int, send, recv []byte) {
	s.World().Alltoall(p, rank, send, recv)
}

// groupRank returns a member's group rank (its block index).
func (a *alltoallState) groupRank(rank int) int { return a.pos[rank] }

// AlltoallT is Alltoall in continuation-passing form: kont runs once
// it completes.
func (g *Group) AlltoallT(t *sim.Task, rank int, send, recv []byte, kont func()) {
	if len(send) != len(recv) {
		panic(fmt.Sprintf("core: Alltoall send %d / recv %d bytes", len(send), len(recv)))
	}
	if len(send)%max(g.Size(), 1) != 0 {
		panic(fmt.Sprintf("core: Alltoall buffer %d not divisible by group size %d",
			len(send), g.Size()))
	}
	blk := len(send) / g.Size()
	e := g.acquire(rank, func(sc *scratch) any { return newAlltoallState(g, sc, blk) })
	a := e.state.(*alltoallState)
	if a.blk != blk {
		panic(fmt.Sprintf("core: Alltoall mismatch at rank %d", rank))
	}
	fin := opDone(t, e, kont)
	if a.direct {
		a.runDirect(t, rank, send, recv, fin)
	} else {
		a.run(t, rank, send, recv, fin)
	}
}

// AlltoallT is Group.AlltoallT over all ranks.
func (s *SRM) AlltoallT(t *sim.Task, rank int, send, recv []byte, kont func()) {
	s.World().AlltoallT(t, rank, send, recv, kont)
}

// runDirect is the large-block path: every member writes each outgoing
// block straight into its destination's receive buffer — a put across
// nodes, a shared-memory copy within one — and waits until its own P-1
// inbound blocks have landed.
func (a *alltoallState) runDirect(t *sim.Task, rank int, send, recv []byte, kont func()) {
	g := a.g
	s := g.s
	gi := a.pos[rank]
	P := len(g.lay.members)
	blk := a.blk
	node := g.lay.nodes[g.lay.ni[rank]]
	a.recvBuf[gi] = recv
	a.registered[gi].Trigger()
	// Own block stays local.
	s.m.MemcpyT(t, node, recv[gi*blk:(gi+1)*blk], send[gi*blk:(gi+1)*blk], func() {
		ep := s.dom.Endpoint(rank)
		var step func(n int)
		step = func(n int) {
			if n >= P {
				ep.WaitcntrT(t, a.blkArr[gi], P-1, kont)
				return
			}
			gj := (gi + n) % P
			target := g.lay.members[gj]
			a.registered[gj].WaitT(t, func() {
				dst := a.recvBuf[gj][gi*blk : (gi+1)*blk]
				src := send[gj*blk : (gj+1)*blk]
				if g.s.m.NodeOf(target) == node {
					s.m.MemcpyT(t, node, dst, src, func() {
						a.blkArr[gj].Incr(1)
						step(n + 1)
					})
					return
				}
				ep.PutT(t, s.dom.Endpoint(target), dst, src, nil, a.blkArr[gj], nil, func() {
					step(n + 1)
				})
			})
		}
		step(1)
	})
}

func (a *alltoallState) run(t *sim.Task, rank int, send, recv []byte, kont func()) {
	g := a.g
	s := g.s
	x := g.lay.ni[rank]
	li := g.lay.li[rank]
	node := g.lay.nodes[x]
	nn := len(g.lay.nodes)
	blk := a.blk

	// Phase 3: pick this member's column out of every inbound slab.
	pick := func() {
		a.ready[x].WaitForT(t, 1, func() {
			var col func(y int)
			col = func(y int) {
				if y >= nn {
					kont()
					return
				}
				srcs := g.lay.local[y]
				if blk == 0 || len(srcs) == 0 {
					col(y + 1)
					return
				}
				for lj, src := range srcs {
					slab := a.in[x][y]
					from := slab[(lj*len(g.lay.local[x])+li)*blk : (lj*len(g.lay.local[x])+li+1)*blk]
					off := a.groupRank(src) * blk
					copy(recv[off:off+blk], from)
				}
				s.m.ChargeCopyT(t, node, len(srcs)*blk, func() {
					s.m.Stats.AddCopy(len(srcs) * blk)
					col(y + 1)
				})
			}
			col(0)
		})
	}

	exchange := func() {
		a.staged[x].Flag(li).Set(1)
		if rank != g.lay.local[x][0] {
			pick()
			return
		}
		// Master: wait for local staging, exchange slabs pairwise.
		a.staged[x].WaitAllT(t, 1, func() {
			ep := s.dom.Endpoint(rank)
			var put func(d int)
			put = func(d int) {
				if d >= nn {
					// The node's own slab transfers through shared memory.
					a.in[x][x] = a.out[x][x]
					var wait func(d int)
					wait = func(d int) {
						if d >= nn {
							a.ready[x].Set(1)
							pick()
							return
						}
						ep.WaitcntrT(t, a.arr[x][(x+d)%nn], 1, func() { wait(d + 1) })
					}
					wait(1)
					return
				}
				y := (x + d) % nn
				dst := a.in[y][x]
				ep.PutT(t, s.dom.Endpoint(g.lay.local[y][0]), dst, a.out[x][y],
					nil, a.arr[y][x], nil, func() { put(d + 1) })
			}
			put(1)
		})
	}

	// Phase 1: stage outgoing blocks, grouped by destination node. Each
	// destination node's slab is laid out [src local][dst local], so runs
	// to the same node are coalesced into contiguous ranges per source.
	var stage func(y int)
	stage = func(y int) {
		if y >= nn {
			exchange()
			return
		}
		dsts := g.lay.local[y]
		row := a.out[x][y][li*len(dsts)*blk : (li+1)*len(dsts)*blk]
		if blk > 0 && len(dsts) > 0 {
			// Gather this member's blocks for node y's members into its
			// row of the slab (one contiguous copy per destination).
			for lj, dst := range dsts {
				off := a.groupRank(dst) * blk
				copy(row[lj*blk:(lj+1)*blk], send[off:off+blk])
			}
			s.m.ChargeCopyT(t, node, len(row), func() {
				s.m.Stats.AddCopy(len(row))
				stage(y + 1)
			})
			return
		}
		stage(y + 1)
	}
	stage(0)
}
