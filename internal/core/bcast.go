package core

import (
	"fmt"

	"srmcoll/internal/rma"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// bcastState is the shared state of one broadcast operation (§2.4, Fig. 4).
// All node-indexed slices below are indexed by the layout's participating
// node index, so the same machinery serves whole-world broadcasts and
// arbitrary task groups (the §5 extension).
type bcastState struct {
	g     *Group
	root  int
	size  int
	emb   gEmbed
	sp    []span
	large bool

	// Small-message path: two shared receive buffers per non-root node
	// with arrival counters at the node's master and buffer-free credit
	// counters held at the parent ("the parent alternates between the two
	// buffers and sends the data after verifying that the buffer is free").
	netBuf [][2][]byte
	freeC  [][2]*rma.Counter
	// Arrival counters per node: per buffer parity on the small path ("two
	// LAPI counters", kept in order by the credits), per chunk on the large
	// path, where nothing throttles the puts and a retransmitted chunk k
	// can land after chunk k+2.
	arr [][]*rma.Counter

	// Large-message path: user-buffer address exchange (Fig. 4 right).
	userBuf    [][]byte     // per node, registered by the node's master
	registered []*sim.Event // per node, fires at the parent after the address AM

	// SMP side (Fig. 3).
	pub []publisher
}

func newBcastState(g *Group, sc *scratch, root, size int) *bcastState {
	s := g.s
	cfg := s.m.Cfg
	b := &bcastState{
		g:    g,
		root: root,
		size: size,
		emb:  g.lay.embed(s.interKind("bcast", size), s.opt.IntraTree, root),
	}
	b.large = size > cfg.SRMBcastBufSize
	switch {
	case b.large:
		b.sp = chunks(size, cfg.SRMLargeChunk)
	case size > cfg.SRMPipelineMin:
		// 8 KB < size <= 64 KB: 4 KB chunks pipelined through the two
		// shared buffers (§2.4).
		b.sp = chunks(size, cfg.SRMSmallChunk)
	default:
		b.sp = chunks(size, cfg.SRMBcastBufSize)
	}
	nn := len(g.lay.nodes)
	b.netBuf = make([][2][]byte, nn)
	b.arr = make([][]*rma.Counter, nn)
	b.freeC = make([][2]*rma.Counter, nn)
	b.userBuf = make([][]byte, nn)
	b.registered = make([]*sim.Event, nn)
	b.pub = make([]publisher, nn)
	chunkBytes := b.sp[0].n
	for x, nd := range g.lay.nodes {
		if !b.large {
			b.netBuf[x] = [2][]byte{sc.buf(chunkBytes), sc.buf(chunkBytes)}
			b.freeC[x] = [2]*rma.Counter{
				s.dom.NewCounter(1).TraceClass(trace.ClassWaitCredit),
				s.dom.NewCounter(1).TraceClass(trace.ClassWaitCredit),
			}
		}
		if b.large {
			b.arr[x] = s.arrivalCounters(len(b.sp))
		} else {
			b.arr[x] = s.arrivalCounters(2)
		}
		b.registered[x] = s.m.Env.NewEvent()
		b.pub[x] = s.newPublisher(sc, nd, g.lay.li[b.emb.masters[x]], len(g.lay.local[x]), chunkBytes)
	}
	return b
}

// Bcast broadcasts buf (len(buf) equal on all ranks) from root. On the
// root, buf is the source; elsewhere it is overwritten with the data.
func (s *SRM) Bcast(p *sim.Proc, rank int, buf []byte, root int) {
	s.World().Bcast(p, rank, buf, root)
}

// Bcast broadcasts buf from the member rank root to every group member.
func (g *Group) Bcast(p *sim.Proc, rank int, buf []byte, root int) {
	p.Await(func(t *sim.Task, k func()) { g.BcastT(t, rank, buf, root, k) })
}

// BcastT is Bcast in continuation-passing form: kont runs once it completes.
func (s *SRM) BcastT(t *sim.Task, rank int, buf []byte, root int, kont func()) {
	s.World().BcastT(t, rank, buf, root, kont)
}

// BcastT broadcasts buf from the member rank root to every group member,
// then runs kont.
func (g *Group) BcastT(t *sim.Task, rank int, buf []byte, root int, kont func()) {
	e := g.acquire(rank, func(sc *scratch) any { return newBcastState(g, sc, root, len(buf)) })
	b := e.state.(*bcastState)
	if b.root != root || b.size != len(buf) {
		panic(fmt.Sprintf("core: Bcast mismatch at rank %d: root %d/%d size %d/%d",
			rank, root, b.root, len(buf), b.size))
	}
	b.run(t, rank, buf, opDone(t, e, kont))
}

func (b *bcastState) run(t *sim.Task, rank int, buf []byte, kont func()) {
	g := b.g
	x := g.lay.ni[rank]
	l := g.lay.li[rank]
	if rank != b.emb.masters[x] {
		consumeAll(t, b.pub[x], l, b.sp, buf, kont)
		return
	}
	ep := g.s.dom.Endpoint(rank)
	enable := g.s.quietNet(ep, b.size)
	fin := func() {
		enable()
		kont()
	}
	if b.large {
		b.masterLarge(t, ep, x, buf, fin)
	} else {
		b.masterSmall(t, ep, x, buf, fin)
	}
}

// masterSmall runs a master through the small-message protocol (Fig. 4
// left): data travels between nodes through the two shared buffers.
func (b *bcastState) masterSmall(t *sim.Task, ep *rma.Endpoint, x int, buf []byte, kont func()) {
	g := b.g
	node := g.lay.nodes[x]
	kids := b.emb.inter.Children[x]
	atRoot := x == b.emb.inter.Root

	var chunk func(k int)
	chunk = func(k int) {
		if k >= len(b.sp) {
			if atRoot {
				b.pub[x].waitConsumed(t, len(b.sp)-1, kont)
				return
			}
			kont()
			return
		}
		c := b.sp[k]
		parity := k % 2
		slot := -1

		// forward sends the chunk down the inter-node tree first (§2.4:
		// "the received data is sent down the tree, and then SMP broadcast
		// is performed"), then publishes it on the node and (off-root)
		// returns buffer credit to the parent.
		forward := func(src []byte) {
			var child func(i int)
			child = func(i int) {
				if i >= len(kids) {
					// SMP broadcast of the chunk. From the root's private
					// buffer this stages through the Figure 3 buffers; from
					// the shared receive buffer it is exposed directly (no
					// extra copy).
					b.pub[x].Publish(t, k, src, !atRoot, func() {
						if atRoot {
							g.s.m.Env.Trace.End(slot)
							chunk(k + 1)
							return
						}
						// The master's own share leaves the shared buffer too.
						copied := func() {
							// Free the buffer to the parent once the node is
							// done with it (only while a chunk k+2 remains to
							// reuse this parity).
							if k+2 < len(b.sp) {
								b.pub[x].waitConsumed(t, k, func() {
									parent := b.emb.inter.Parent[x]
									ep.PutZeroT(t, g.s.dom.Endpoint(b.emb.masters[parent]), b.freeC[x][parity], func() {
										g.s.m.Env.Trace.End(slot)
										chunk(k + 1)
									})
								})
								return
							}
							g.s.m.Env.Trace.End(slot)
							chunk(k + 1)
						}
						if c.n > 0 {
							g.s.m.MemcpyT(t, node, buf[c.off:c.off+c.n], src, copied)
							return
						}
						copied()
					})
					return
				}
				ch := kids[i]
				ep.WaitcntrT(t, b.freeC[ch][parity], 1, func() {
					dst := b.netBuf[ch][parity][:c.n]
					ep.PutT(t, g.s.dom.Endpoint(b.emb.masters[ch]), dst, src, nil, b.arr[ch][parity], nil, func() {
						child(i + 1)
					})
				})
			}
			child(0)
		}

		if atRoot {
			forward(buf[c.off : c.off+c.n])
			return
		}
		// Step: wait for the chunk to land in the shared buffer.
		ep.WaitcntrT(t, b.arr[x][parity], 1, func() {
			// The chunk now occupies this parity's shared receive slot; the
			// span closes when the node is done with the buffer (credit
			// returned, or the last chunk fully forwarded and published).
			slot = g.s.m.Env.Trace.Begin(t.Track(), trace.ClassChunkSlot, "chunk:slot", int64(c.n))
			forward(b.netBuf[x][parity][:c.n])
		})
	}
	chunk(0)
}

// masterLarge runs a master through the large-message protocol (Fig. 4
// right): an address exchange, then puts straight into user buffers, with
// the SMP broadcast pipelined behind the arrivals.
func (b *bcastState) masterLarge(t *sim.Task, ep *rma.Endpoint, x int, buf []byte, kont func()) {
	g := b.g
	kids := b.emb.inter.Children[x]
	atRoot := x == b.emb.inter.Root
	b.userBuf[x] = buf

	var chunk func(k int)
	chunk = func(k int) {
		if k >= len(b.sp) {
			b.pub[x].waitConsumed(t, len(b.sp)-1, kont)
			return
		}
		c := b.sp[k]
		send := func() {
			src := buf[c.off : c.off+c.n]
			var child func(i int)
			child = func(i int) {
				if i >= len(kids) {
					b.pub[x].Publish(t, k, src, false, func() { chunk(k + 1) })
					return
				}
				ch := kids[i]
				b.registered[ch].WaitT(t, func() {
					dst := b.userBuf[ch][c.off : c.off+c.n]
					ep.PutT(t, g.s.dom.Endpoint(b.emb.masters[ch]), dst, src, nil, b.arr[ch][k], nil, func() {
						child(i + 1)
					})
				})
			}
			child(0)
		}
		if !atRoot {
			ep.WaitcntrT(t, b.arr[x][k], 1, send) // chunk landed in buf[c.off:]
			return
		}
		send()
	}

	if !atRoot {
		// Stage 1: send the user-buffer address to the inter-node parent.
		parent := b.emb.masters[b.emb.inter.Parent[x]]
		reg := b.registered[x]
		ep.AMT(t, g.s.dom.Endpoint(parent), make([]byte, 8), func([]byte) { reg.Trigger() }, func() {
			chunk(0)
		})
		return
	}
	chunk(0)
}
