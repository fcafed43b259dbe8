package core

import (
	"srmcoll/internal/rma"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
	"srmcoll/internal/tree"
)

// barrierState is the shared state of one barrier (§2.2, §2.4, and [17]):
// a flat flag barrier inside each node — one flag per participating task,
// each on its own cache line, reset by the master — and dissemination-style
// pairwise zero-byte puts between the node masters.
type barrierState struct {
	g      *Group
	flags  []*shm.FlagSet   // per participating node
	cnt    [][]*rma.Counter // [node index][round]
	rounds int
}

func newBarrierState(g *Group) *barrierState {
	nn := len(g.lay.nodes)
	b := &barrierState{
		g:      g,
		flags:  make([]*shm.FlagSet, nn),
		cnt:    make([][]*rma.Counter, nn),
		rounds: tree.Log2Ceil(nn),
	}
	for x, nd := range g.lay.nodes {
		b.flags[x] = shm.NewFlagSet(g.s.m, nd, len(g.lay.local[x]))
		b.cnt[x] = make([]*rma.Counter, b.rounds)
		for r := range b.cnt[x] {
			b.cnt[x][r] = g.s.dom.NewCounter(0)
		}
	}
	return b
}

// Barrier blocks until every rank has entered the barrier.
func (s *SRM) Barrier(p *sim.Proc, rank int) { s.World().Barrier(p, rank) }

// Barrier blocks until every group member has entered the barrier.
func (g *Group) Barrier(p *sim.Proc, rank int) {
	p.Await(func(t *sim.Task, k func()) { g.BarrierT(t, rank, k) })
}

// BarrierT is Barrier in continuation-passing form: kont runs once
// it completes.
func (s *SRM) BarrierT(t *sim.Task, rank int, kont func()) {
	s.World().BarrierT(t, rank, kont)
}

// BarrierT blocks until every group member has entered the barrier, then
// runs kont.
func (g *Group) BarrierT(t *sim.Task, rank int, kont func()) {
	e := g.acquire(rank, func(*scratch) any { return newBarrierState(g) })
	e.state.(*barrierState).run(t, rank, opDone(t, e, kont))
}

func (b *barrierState) run(t *sim.Task, rank int, kont func()) {
	g := b.g
	x := g.lay.ni[rank]
	l := g.lay.li[rank]
	fs := b.flags[x]
	if l != 0 {
		// Check in, then wait for the master to reset the flag.
		fs.Flag(l).Set(1)
		fs.Flag(l).WaitForT(t, 0, kont)
		return
	}
	// The master first waits until all other member tasks on the node
	// check in.
	fs.WaitAllT(t, 1, func() {
		nn := len(g.lay.nodes)
		fin := func() {
			// Release the node: reset the value of all flags (§2.2).
			fs.SetAll(0)
			kont()
		}
		if nn <= 1 {
			fin()
			return
		}
		// Inter-node phase: dissemination with zero-byte puts, log2(n)
		// rounds, interrupts off for the duration (§2.3).
		ep := g.s.dom.Endpoint(rank)
		ep.SetInterrupts(false)
		var round func(r int)
		round = func(r int) {
			if r >= b.rounds {
				ep.SetInterrupts(true)
				fin()
				return
			}
			peer := (x + 1<<r) % nn
			ep.PutZeroT(t, g.s.dom.Endpoint(g.lay.local[peer][0]), b.cnt[peer][r], func() {
				ep.WaitcntrT(t, b.cnt[x][r], 1, func() { round(r + 1) })
			})
		}
		round(0)
	}, 0)
}
