package core

import (
	"fmt"

	"srmcoll/internal/check"
	"srmcoll/internal/rma"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
)

// This file extends the paper's operation set with the remaining common
// collectives — gather, scatter and allgather — built in the same SRM
// style: blocks stage through per-node shared memory, and the network sees
// one put per contiguous slab placed directly at its final offset (the
// Fig. 4 large-message idea applied to rooted data redistribution).

// run is a maximal set of group members that are consecutive in group-rank
// order and live on the same node, so their blocks form one contiguous
// slab both in the gathered vector and in the node staging buffer.
type run struct {
	node  int // participating node index
	first int // first group rank of the run
	count int // members in the run
	lofff int // first member's index within the node member list
}

// runsOf splits the group into contiguous same-node runs. For the
// whole-world layout this yields exactly one run per node.
func runsOf(lay layout) []run {
	var out []run
	for i := 0; i < len(lay.members); {
		r := lay.members[i]
		x := lay.ni[r]
		rn := run{node: x, first: i, count: 1, lofff: lay.li[r]}
		for i+rn.count < len(lay.members) {
			next := lay.members[i+rn.count]
			if lay.ni[next] != x || lay.li[next] != rn.lofff+rn.count {
				break
			}
			rn.count++
		}
		out = append(out, rn)
		i += rn.count
	}
	return out
}

// allgatherDirectMin is the per-member block size above which allgather
// skips the shared-memory staging: blocks ride a member ring of direct
// puts into the destination receive buffers (zero-copy), since staging
// only pays when aggregation amortizes per-message costs.
const allgatherDirectMin = 16 << 10

// redistState is the shared state of one gather, scatter or allgather.
type redistState struct {
	g    *Group
	kind string // "gather", "scatter", "allgather"
	root int    // member rank (unused by allgather)
	blk  int    // bytes contributed by / delivered to each member

	masters []int
	runs    []run
	staged  [][]byte         // per node: slab staging in shared memory
	inFlag  []*shm.FlagSet   // per node: member block staged (gather/allgather)
	ready   []*shm.Flag      // per node: staging complete, members may copy out
	arr     []*rma.Counter   // per node master: slabs arrived (gather/scatter)
	stepArr [][]*rma.Counter // allgather: per node, per ring step
	rootBuf []byte           // gather: root's recv; set at entry
	rootSet *sim.Event

	// Direct allgather ring (large blocks).
	direct     bool
	recvBuf    [][]byte
	registered []*sim.Event
	stepCnt    [][]*rma.Counter // [member][step]
}

func newRedistState(g *Group, sc *scratch, kind string, root, blk int) *redistState {
	s := g.s
	st := &redistState{
		g:       g,
		kind:    kind,
		root:    root,
		blk:     blk,
		runs:    runsOf(g.lay),
		masters: make([]int, len(g.lay.nodes)),
		staged:  make([][]byte, len(g.lay.nodes)),
		inFlag:  make([]*shm.FlagSet, len(g.lay.nodes)),
		ready:   make([]*shm.Flag, len(g.lay.nodes)),
		arr:     make([]*rma.Counter, len(g.lay.nodes)),
		rootSet: s.m.Env.NewEvent(),
	}
	rootNI := -1
	if kind != "allgather" {
		rootNI = g.lay.ni[root]
	}
	if kind == "allgather" && blk > allgatherDirectMin {
		st.direct = true
		P := len(g.lay.members)
		st.recvBuf = make([][]byte, P)
		st.registered = make([]*sim.Event, P)
		st.stepCnt = make([][]*rma.Counter, P)
		for i := 0; i < P; i++ {
			st.registered[i] = s.m.Env.NewEvent()
			st.stepCnt[i] = make([]*rma.Counter, P)
			for j := range st.stepCnt[i] {
				st.stepCnt[i][j] = s.dom.NewCounter(0)
			}
		}
		return st
	}
	total := blk * len(g.lay.members)
	for x, nd := range g.lay.nodes {
		if x == rootNI {
			st.masters[x] = root
		} else {
			st.masters[x] = g.lay.local[x][0]
		}
		size := blk * len(g.lay.local[x])
		if kind == "allgather" {
			size = total
		}
		st.staged[x] = sc.buf(size)
		st.inFlag[x] = shm.NewFlagSet(s.m, nd, len(g.lay.local[x]))
		st.ready[x] = shm.NewFlag(s.m, nd)
		st.arr[x] = s.dom.NewCounter(0)
	}
	if kind == "allgather" {
		st.stepArr = make([][]*rma.Counter, len(g.lay.nodes))
		for x := range st.stepArr {
			st.stepArr[x] = make([]*rma.Counter, len(g.lay.nodes))
			for i := range st.stepArr[x] {
				st.stepArr[x][i] = s.dom.NewCounter(0)
			}
		}
	}
	return st
}

// groupOffset returns the gathered-vector byte offset of a member rank.
func (st *redistState) groupOffset(rank int) int {
	for i, r := range st.g.lay.members {
		if r == rank {
			return i * st.blk
		}
	}
	panic("core: rank not in group")
}

// slabRange returns the staging range of a run within its node buffer
// (member-list order) and its range in the gathered vector.
func (st *redistState) slabRange(rn run) (stagedOff, groupOff, n int) {
	return rn.lofff * st.blk, rn.first * st.blk, rn.count * st.blk
}

// Gather collects each member's send block (blk = len(send) bytes, equal
// everywhere) into recv at root, ordered by group rank. recv must hold
// Size()*blk bytes at root and is ignored elsewhere.
func (g *Group) Gather(p *sim.Proc, rank int, send, recv []byte, root int) {
	p.Await(func(t *sim.Task, k func()) { g.GatherT(t, rank, send, recv, root, k) })
}

// Scatter distributes root's send buffer (Size()*blk bytes, ordered by
// group rank) so each member receives its blk-byte block in recv. send is
// ignored away from root.
func (g *Group) Scatter(p *sim.Proc, rank int, send, recv []byte, root int) {
	p.Await(func(t *sim.Task, k func()) { g.ScatterT(t, rank, send, recv, root, k) })
}

// Allgather concatenates every member's send block into every member's
// recv (Size()*blk bytes), ordered by group rank: an intra-node staging
// phase, a slab ring between the node masters, and a node-local fan-out.
func (g *Group) Allgather(p *sim.Proc, rank int, send, recv []byte) {
	p.Await(func(t *sim.Task, k func()) { g.AllgatherT(t, rank, send, recv, k) })
}

// Gather is Group.Gather over all ranks.
func (s *SRM) Gather(p *sim.Proc, rank int, send, recv []byte, root int) {
	s.World().Gather(p, rank, send, recv, root)
}

// Scatter is Group.Scatter over all ranks.
func (s *SRM) Scatter(p *sim.Proc, rank int, send, recv []byte, root int) {
	s.World().Scatter(p, rank, send, recv, root)
}

// Allgather is Group.Allgather over all ranks.
func (s *SRM) Allgather(p *sim.Proc, rank int, send, recv []byte) {
	s.World().Allgather(p, rank, send, recv)
}

// GatherT is Gather in continuation-passing form: kont runs once it completes.
func (g *Group) GatherT(t *sim.Task, rank int, send, recv []byte, root int, kont func()) {
	e := g.acquire(rank, func(sc *scratch) any { return newRedistState(g, sc, "gather", root, len(send)) })
	r := e.state.(*redistState)
	if r.kind != "gather" || r.root != root || r.blk != len(send) {
		panic(fmt.Sprintf("core: Gather mismatch at rank %d", rank))
	}
	if rank == root {
		check.Size("core.Gather", rank, "recv", len(recv), r.blk*g.Size())
		r.rootBuf = recv
		r.rootSet.Trigger()
	}
	r.runGather(t, rank, send, opDone(t, e, kont))
}

func (st *redistState) runGather(t *sim.Task, rank int, send []byte, kont func()) {
	g := st.g
	s := g.s
	x := g.lay.ni[rank]
	l := g.lay.li[rank]
	node := g.lay.nodes[x]

	forward := func() {
		st.inFlag[x].Flag(l).Set(1)
		if rank != st.masters[x] {
			kont()
			return
		}
		// The master forwards each contiguous slab straight to its final
		// offset in the root's receive buffer — one put per run.
		st.inFlag[x].WaitAllT(t, 1, func() {
			ep := s.dom.Endpoint(rank)
			rootNI := g.lay.ni[st.root]
			rootEp := s.dom.Endpoint(st.masters[rootNI])
			remoteRuns := 0
			for _, rn := range st.runs {
				if rn.node != rootNI {
					remoteRuns++
				}
			}
			if x == rootNI {
				st.rootSet.WaitT(t, func() {
					var slab func(i int)
					slab = func(i int) {
						if i >= len(st.runs) {
							// Wait for every remote slab to land.
							ep.WaitcntrT(t, st.arr[x], remoteRuns, kont)
							return
						}
						rn := st.runs[i]
						so, po, n := st.slabRange(rn)
						if rn.node != x || n == 0 {
							slab(i + 1)
							return
						}
						s.m.MemcpyT(t, node, st.rootBuf[po:po+n], st.staged[x][so:so+n], func() {
							slab(i + 1)
						})
					}
					slab(0)
				})
				return
			}
			st.rootSet.WaitT(t, func() {
				var slab func(i int)
				slab = func(i int) {
					if i >= len(st.runs) {
						kont()
						return
					}
					rn := st.runs[i]
					if rn.node != x {
						slab(i + 1)
						return
					}
					so, po, n := st.slabRange(rn)
					ep.PutT(t, rootEp, st.rootBuf[po:po+n], st.staged[x][so:so+n], nil, st.arr[rootNI], nil, func() {
						slab(i + 1)
					})
				}
				slab(0)
			})
		})
	}

	// Every member stages its block in node shared memory.
	if st.blk > 0 {
		s.m.MemcpyT(t, node, st.staged[x][l*st.blk:(l+1)*st.blk], send, forward)
		return
	}
	forward()
}

// ScatterT is Scatter in continuation-passing form: kont runs once
// it completes.
func (g *Group) ScatterT(t *sim.Task, rank int, send, recv []byte, root int, kont func()) {
	e := g.acquire(rank, func(sc *scratch) any { return newRedistState(g, sc, "scatter", root, len(recv)) })
	r := e.state.(*redistState)
	if r.kind != "scatter" || r.root != root || r.blk != len(recv) {
		panic(fmt.Sprintf("core: Scatter mismatch at rank %d", rank))
	}
	if rank == root {
		check.Size("core.Scatter", rank, "send", len(send), r.blk*g.Size())
	}
	r.runScatter(t, rank, send, recv, opDone(t, e, kont))
}

func (st *redistState) runScatter(t *sim.Task, rank int, send, recv []byte, kont func()) {
	g := st.g
	s := g.s
	x := g.lay.ni[rank]
	l := g.lay.li[rank]
	node := g.lay.nodes[x]
	rootNI := g.lay.ni[st.root]

	// Every member copies its block out of the node staging.
	copyOut := func() {
		st.ready[x].WaitForT(t, 1, func() {
			if st.blk > 0 {
				s.m.MemcpyT(t, node, recv, st.staged[x][l*st.blk:(l+1)*st.blk], kont)
				return
			}
			kont()
		})
	}

	if rank != st.masters[x] {
		copyOut()
		return
	}
	ep := s.dom.Endpoint(rank)
	if x == rootNI {
		// The root master slabs the send buffer out: remote runs by put
		// into the target node's staging, local runs by memcpy.
		var slab func(i int)
		slab = func(i int) {
			if i >= len(st.runs) {
				st.ready[x].Set(1)
				copyOut()
				return
			}
			rn := st.runs[i]
			so, po, n := st.slabRange(rn)
			if n == 0 {
				slab(i + 1)
				return
			}
			if rn.node == x {
				s.m.MemcpyT(t, node, st.staged[x][so:so+n], send[po:po+n], func() { slab(i + 1) })
				return
			}
			dst := st.staged[rn.node][so : so+n]
			ep.PutT(t, s.dom.Endpoint(st.masters[rn.node]), dst, send[po:po+n],
				nil, st.arr[rn.node], nil, func() { slab(i + 1) })
		}
		slab(0)
		return
	}
	runs := 0
	for _, rn := range st.runs {
		if rn.node == x {
			runs++
		}
	}
	ep.WaitcntrT(t, st.arr[x], runs, func() {
		st.ready[x].Set(1)
		copyOut()
	})
}

// AllgatherT is Allgather in continuation-passing form: kont runs once
// it completes.
func (g *Group) AllgatherT(t *sim.Task, rank int, send, recv []byte, kont func()) {
	e := g.acquire(rank, func(sc *scratch) any {
		return newRedistState(g, sc, "allgather", g.lay.members[0], len(send))
	})
	r := e.state.(*redistState)
	if r.kind != "allgather" || r.blk != len(send) {
		panic(fmt.Sprintf("core: Allgather mismatch at rank %d", rank))
	}
	check.Size("core.Allgather", rank, "recv", len(recv), r.blk*g.Size())
	fin := opDone(t, e, kont)
	if r.direct {
		r.runAllgatherDirect(t, rank, send, recv, fin)
	} else {
		r.runAllgather(t, rank, send, recv, fin)
	}
}

// runAllgatherDirect is the large-block path: a ring over group members
// with each block put straight into the right neighbor's receive buffer
// (a shared-memory copy when the neighbor is local). Bandwidth matches
// the classic ring; the staging copies disappear.
func (st *redistState) runAllgatherDirect(t *sim.Task, rank int, send, recv []byte, kont func()) {
	g := st.g
	s := g.s
	gi := st.groupOffset(rank) / max(st.blk, 1)
	P := len(g.lay.members)
	blk := st.blk
	node := g.lay.nodes[g.lay.ni[rank]]
	st.recvBuf[gi] = recv
	st.registered[gi].Trigger()
	s.m.MemcpyT(t, node, recv[gi*blk:(gi+1)*blk], send, func() {
		if P == 1 {
			kont()
			return
		}
		gr := (gi + 1) % P
		right := g.lay.members[gr]
		sameNode := g.s.m.NodeOf(right) == node
		ep := s.dom.Endpoint(rank)
		st.registered[gr].WaitT(t, func() {
			var step func(n int)
			step = func(n int) {
				if n >= P {
					kont()
					return
				}
				out := (gi - n + 1 + P) % P
				src := recv[out*blk : (out+1)*blk]
				dst := st.recvBuf[gr][out*blk : (out+1)*blk]
				wait := func() {
					ep.WaitcntrT(t, st.stepCnt[gi][n], 1, func() { step(n + 1) })
				}
				if sameNode {
					s.m.MemcpyT(t, node, dst, src, func() {
						st.stepCnt[gr][n].Incr(1)
						wait()
					})
					return
				}
				ep.PutT(t, s.dom.Endpoint(right), dst, src, nil, st.stepCnt[gr][n], nil, wait)
			}
			step(1)
		})
	})
}

func (st *redistState) runAllgather(t *sim.Task, rank int, send, recv []byte, kont func()) {
	g := st.g
	s := g.s
	x := g.lay.ni[rank]
	l := g.lay.li[rank]
	node := g.lay.nodes[x]
	nn := len(g.lay.nodes)

	// Fan out, pipelined with the ring: at step s the slabs that
	// originated at node (x-s mod nn) become copyable.
	fanout := func() {
		var step func(n int)
		step = func(n int) {
			if n >= nn {
				kont()
				return
			}
			st.ready[x].WaitGET(t, n+1, func() {
				origin := (x - n + nn) % nn
				var slab func(i int)
				slab = func(i int) {
					if i >= len(st.runs) {
						step(n + 1)
						return
					}
					rn := st.runs[i]
					if rn.node != origin {
						slab(i + 1)
						return
					}
					_, po, n2 := st.slabRange(rn)
					if n2 > 0 {
						s.m.MemcpyT(t, node, recv[po:po+n2], st.staged[x][po:po+n2], func() { slab(i + 1) })
						return
					}
					slab(i + 1)
				}
				slab(0)
			})
		}
		step(0)
	}

	// Ring over node slabs: at step n, forward the slabs that originated
	// at node (x-n+1 mod nn); after nn-1 steps the node holds every slab at
	// its final offset. The ready counter ticks per step so members fan
	// slabs out while the ring still runs.
	ring := func() {
		st.inFlag[x].WaitAllT(t, 1, func() {
			st.ready[x].Set(1) // step 0: the node's own slabs are staged
			ep := s.dom.Endpoint(rank)
			right := (x + 1) % nn
			rightEp := s.dom.Endpoint(st.masters[right])
			var step func(n int)
			step = func(n int) {
				if n >= nn {
					fanout()
					return
				}
				origin := (x - n + 1 + nn) % nn
				var slab func(i int)
				slab = func(i int) {
					if i >= len(st.runs) {
						// Wait for this step's slabs from the left neighbor;
						// the per-step counter ties the wait to this step's
						// data.
						inbound := (x - n + nn) % nn
						cnt := 0
						for _, rn := range st.runs {
							if rn.node == inbound {
								cnt++
							}
						}
						ep.WaitcntrT(t, st.stepArr[x][n], cnt, func() {
							st.ready[x].Set(n + 1)
							step(n + 1)
						})
						return
					}
					rn := st.runs[i]
					if rn.node != origin {
						slab(i + 1)
						return
					}
					_, po, n2 := st.slabRange(rn)
					ep.PutT(t, rightEp, st.staged[right][po:po+n2], st.staged[x][po:po+n2],
						nil, st.stepArr[right][n], nil, func() { slab(i + 1) })
				}
				slab(0)
			}
			step(1)
		})
	}

	// Members stage their block at its group offset in the node's copy of
	// the full vector.
	off := st.groupOffset(rank)
	staged := func() {
		st.inFlag[x].Flag(l).Set(1)
		if rank == st.masters[x] {
			ring()
			return
		}
		fanout()
	}
	if st.blk > 0 {
		s.m.MemcpyT(t, node, st.staged[x][off:off+st.blk], send, staged)
		return
	}
	staged()
}

// GatherT is Group.GatherT over all ranks.
func (s *SRM) GatherT(t *sim.Task, rank int, send, recv []byte, root int, kont func()) {
	s.World().GatherT(t, rank, send, recv, root, kont)
}

// ScatterT is Group.ScatterT over all ranks.
func (s *SRM) ScatterT(t *sim.Task, rank int, send, recv []byte, root int, kont func()) {
	s.World().ScatterT(t, rank, send, recv, root, kont)
}

// AllgatherT is Group.AllgatherT over all ranks.
func (s *SRM) AllgatherT(t *sim.Task, rank int, send, recv []byte, kont func()) {
	s.World().AllgatherT(t, rank, send, recv, kont)
}
