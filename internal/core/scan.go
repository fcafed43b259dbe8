package core

import (
	"fmt"

	"srmcoll/internal/dtype"
	"srmcoll/internal/rma"
	"srmcoll/internal/sim"
)

// scanState implements MPI_Scan (inclusive prefix reduction over group
// ranks) with a Hillis-Steele doubling schedule carried by RMA puts:
// ceil(log2 P) rounds, in round r member i sends its running partial to
// member i+2^r and folds in the partial from member i-2^r. Intra-node
// hops automatically become shared-memory copies (the RMA loopback), so
// with block rank placement the first log2(tasks-per-node) rounds never
// touch the network. Only commutative operators are supported (all the
// operators of internal/dtype are).
type scanState struct {
	g    *Group
	size int
	ds   dataspec

	rounds int
	slot   [][][]byte       // [member][round]
	arr    [][]*rma.Counter // [member][round]
	shift  [][]byte         // Exscan: the shifted-result landing zone
	sarr   []*rma.Counter
}

func newScanState(g *Group, sc *scratch, size int, ds dataspec) *scanState {
	s := g.s
	P := len(g.lay.members)
	st := &scanState{
		g:     g,
		size:  size,
		ds:    ds,
		slot:  make([][][]byte, P),
		arr:   make([][]*rma.Counter, P),
		shift: make([][]byte, P),
		sarr:  make([]*rma.Counter, P),
	}
	for st.rounds = 0; 1<<st.rounds < P; st.rounds++ {
	}
	for i := 0; i < P; i++ {
		st.slot[i] = make([][]byte, st.rounds)
		st.arr[i] = make([]*rma.Counter, st.rounds)
		for r := 0; r < st.rounds; r++ {
			st.slot[i][r] = sc.buf(size)
			st.arr[i][r] = s.dom.NewCounter(0)
		}
		st.shift[i] = sc.buf(size)
		st.sarr[i] = s.dom.NewCounter(0)
	}
	return st
}

// Scan leaves in each member's recv the reduction of the send buffers of
// all members with group rank <= its own (inclusive prefix).
func (g *Group) Scan(p *sim.Proc, rank int, send, recv []byte, dt dtype.Type, op dtype.Op) {
	p.Await(func(t *sim.Task, k func()) { g.ScanT(t, rank, send, recv, dt, op, k) })
}

// Exscan is the exclusive prefix: member i receives the reduction over
// group ranks < i; the first member's recv is left zeroed.
func (g *Group) Exscan(p *sim.Proc, rank int, send, recv []byte, dt dtype.Type, op dtype.Op) {
	p.Await(func(t *sim.Task, k func()) { g.ExscanT(t, rank, send, recv, dt, op, k) })
}

// Scan is Group.Scan over all ranks.
func (s *SRM) Scan(p *sim.Proc, rank int, send, recv []byte, dt dtype.Type, op dtype.Op) {
	s.World().Scan(p, rank, send, recv, dt, op)
}

// Exscan is Group.Exscan over all ranks.
func (s *SRM) Exscan(p *sim.Proc, rank int, send, recv []byte, dt dtype.Type, op dtype.Op) {
	s.World().Exscan(p, rank, send, recv, dt, op)
}

// ScanT is Scan in continuation-passing form: kont runs once it completes.
func (g *Group) ScanT(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, kont func()) {
	g.scan(t, rank, send, recv, dt, op, false, kont)
}

// ExscanT is Exscan in continuation-passing form: kont runs once it completes.
func (g *Group) ExscanT(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, kont func()) {
	g.scan(t, rank, send, recv, dt, op, true, kont)
}

func (g *Group) scan(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, exclusive bool, kont func()) {
	ds := dataspec{dt: dt, op: op}
	if err := ds.validate(len(send)); err != nil {
		panic(err)
	}
	if len(recv) != len(send) {
		panic(fmt.Sprintf("core: scan recv %d bytes, want %d", len(recv), len(send)))
	}
	e := g.acquire(rank, func(sc *scratch) any { return newScanState(g, sc, len(send), ds) })
	st := e.state.(*scanState)
	if st.size != len(send) || st.ds != ds {
		panic(fmt.Sprintf("core: scan mismatch at rank %d", rank))
	}
	st.run(t, rank, send, recv, exclusive, opDone(t, e, kont))
}

// ScanT is Group.ScanT over all ranks.
func (s *SRM) ScanT(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, kont func()) {
	s.World().ScanT(t, rank, send, recv, dt, op, kont)
}

// ExscanT is Group.ExscanT over all ranks.
func (s *SRM) ExscanT(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, kont func()) {
	s.World().ExscanT(t, rank, send, recv, dt, op, kont)
}

func (st *scanState) run(t *sim.Task, rank int, send, recv []byte, exclusive bool, kont func()) {
	g := st.g
	s := g.s
	gi := g.lay.li[rank] // placeholder; real group rank below
	for i, r := range g.lay.members {
		if r == rank {
			gi = i
		}
	}
	P := len(g.lay.members)
	node := g.lay.nodes[g.lay.ni[rank]]
	ep := s.dom.Endpoint(rank)

	shift := func() {
		if !exclusive {
			kont()
			return
		}
		// Exscan: shift the inclusive results right by one member.
		pull := func() {
			if gi > 0 {
				ep.WaitcntrT(t, st.sarr[gi], 1, func() {
					if st.size > 0 {
						s.m.MemcpyT(t, node, recv, st.shift[gi], kont)
						return
					}
					kont()
				})
				return
			}
			for i := range recv {
				recv[i] = 0
			}
			kont()
		}
		if gi+1 < P {
			target := g.lay.members[gi+1]
			ep.PutT(t, s.dom.Endpoint(target), st.shift[gi+1], recv, nil, st.sarr[gi+1], nil, pull)
			return
		}
		pull()
	}
	var round func(r int)
	round = func(r int) {
		if r >= st.rounds {
			shift()
			return
		}
		dist := 1 << r
		fold := func() {
			if gi-dist >= 0 {
				ep.WaitcntrT(t, st.arr[gi][r], 1, func() {
					if st.size > 0 {
						st.ds.acc(recv, st.slot[gi][r]) // commutative fold
						s.combineCharge(t, st.size, st.ds.dt.Size(), func() { round(r + 1) })
						return
					}
					round(r + 1)
				})
				return
			}
			round(r + 1)
		}
		if gi+dist < P {
			target := g.lay.members[gi+dist]
			ep.PutT(t, s.dom.Endpoint(target), st.slot[gi+dist][r], recv,
				nil, st.arr[gi+dist][r], nil, fold)
			return
		}
		fold()
	}
	// Running inclusive partial lives in recv.
	if st.size > 0 {
		s.m.MemcpyT(t, node, recv, send, func() { round(0) })
		return
	}
	round(0)
}
