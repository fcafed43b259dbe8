package core

import (
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
	"srmcoll/internal/tree"
)

// smpPub is the per-node SMP broadcast machinery of Figure 3: two shared
// buffers with a READY counter published by the master and per-task DONE
// flags, forming a two-slot pipeline. When the source of a chunk is already
// in shared memory (the inter-node receive buffers of the small-message
// broadcast), Publish skips the copy-in — "the SMP broadcast recognizing
// that the data is in shared memory avoids unnecessary data copies" (§2.4).
type smpPub struct {
	s           *SRM
	node        int
	masterLocal int
	buf         [2][]byte // shared staging buffers (A and B)
	cur         [2][]byte // slice local tasks read chunk parity from
	ready       *shm.Flag // chunks made readable (monotone count)
	done        *shm.FlagSet
}

func (s *SRM) newSmpPub(sc *scratch, node, masterLocal, count, bufSize int) *smpPub {
	pub := &smpPub{
		s:           s,
		node:        node,
		masterLocal: masterLocal,
		ready:       shm.NewFlag(s.m, node),
		done:        shm.NewFlagSet(s.m, node, count),
	}
	pub.buf[0] = sc.buf(bufSize)
	pub.buf[1] = sc.buf(bufSize)
	return pub
}

// waitConsumed blocks the master until every other local task has consumed
// chunks 0..k (done flags reach k+1).
func (pub *smpPub) waitConsumed(t *sim.Task, k int, kont func()) {
	var step func(i int)
	step = func(i int) {
		for i == pub.masterLocal {
			i++
		}
		if i >= pub.done.Len() {
			kont()
			return
		}
		pub.done.Flag(i).WaitGET(t, k+1, func() { step(i + 1) })
	}
	step(0)
}

// Publish makes chunk k (content src) readable by the node's other tasks.
// With direct=true src is already shared memory and is exposed as is;
// otherwise the master copies it into the staging buffer of parity k%2,
// first waiting for that buffer's previous chunk to be consumed.
func (pub *smpPub) Publish(t *sim.Task, k int, src []byte, direct bool, kont func()) {
	if pub.done.Len() == 1 {
		kont()
		return
	}
	id := pub.s.m.Env.Trace.Begin(t.Track(), trace.ClassSmp, "smp:publish", int64(len(src)))
	parity := k % 2
	fin := func() {
		pub.ready.Set(k + 1)
		pub.s.m.Env.Trace.End(id)
		kont()
	}
	if direct {
		pub.cur[parity] = src
		fin()
		return
	}
	stage := func() {
		pub.s.m.MemcpyT(t, pub.node, pub.buf[parity][:len(src)], src, func() {
			pub.cur[parity] = pub.buf[parity][:len(src)]
			fin()
		})
	}
	if k >= 2 {
		pub.waitConsumed(t, k-2, stage) // buffer reuse: Figure 3 flag protocol
	} else {
		stage()
	}
}

// Consume copies chunk k into dst at a non-master task.
func (pub *smpPub) Consume(t *sim.Task, local, k int, dst []byte, kont func()) {
	id := pub.s.m.Env.Trace.Begin(t.Track(), trace.ClassSmp, "smp:consume", int64(len(dst)))
	pub.ready.WaitGET(t, k+1, func() {
		fin := func() {
			pub.done.Flag(local).Set(k + 1)
			pub.s.m.Env.Trace.End(id)
			kont()
		}
		if len(dst) > 0 {
			pub.s.m.MemcpyT(t, pub.node, dst, pub.cur[k%2][:len(dst)], fin)
		} else {
			fin()
		}
	})
}

// treePub is the tree-based SMP broadcast variant §2.2 measured and
// rejected ("this algorithm has achieved a much better performance than
// the tree-based algorithms" refers to the flat one). Kept for ablation
// A2. Each interior task owns a staging buffer; chunks flow down the
// intra-node tree, one copy per level on the critical path.
type treePub struct {
	s    *SRM
	node int
	tr   tree.Tree
	buf  [][2][]byte   // per local task
	full []*shm.Flag   // chunks available at this task's buffer
	ack  [][]*shm.Flag // per task, per child: chunks pulled by that child
}

func (s *SRM) newTreePub(sc *scratch, node, masterLocal, count, bufSize int) *treePub {
	tp := &treePub{
		s:    s,
		node: node,
		tr:   tree.New(tree.Binomial, count, masterLocal),
		buf:  make([][2][]byte, count),
		full: make([]*shm.Flag, count),
		ack:  make([][]*shm.Flag, count),
	}
	for i := 0; i < count; i++ {
		tp.buf[i] = [2][]byte{sc.buf(bufSize), sc.buf(bufSize)}
		tp.full[i] = shm.NewFlag(s.m, node)
		tp.ack[i] = make([]*shm.Flag, len(tp.tr.Children[i]))
		for j := range tp.ack[i] {
			tp.ack[i][j] = shm.NewFlag(s.m, node)
		}
	}
	return tp
}

// waitAcks blocks until every child of local task v pulled chunk k.
func (tp *treePub) waitAcks(t *sim.Task, v, k int, kont func()) {
	var step func(i int)
	step = func(i int) {
		if i >= len(tp.ack[v]) {
			kont()
			return
		}
		tp.ack[v][i].WaitGET(t, k+1, func() { step(i + 1) })
	}
	step(0)
}

// Publish runs the master side: copy chunk k into the master buffer and
// mark it available; children pull it down the tree in their own Consume.
func (tp *treePub) Publish(t *sim.Task, k int, src []byte, direct bool, kont func()) {
	root := tp.tr.Root
	if len(tp.full) == 1 {
		kont()
		return
	}
	parity := k % 2
	fin := func() {
		tp.full[root].Set(k + 1)
		kont()
	}
	if direct {
		tp.buf[root][parity] = src // expose shared source without a copy
		fin()
		return
	}
	cp := func() {
		tp.s.m.MemcpyT(t, tp.node, tp.buf[root][parity][:len(src)], src, fin)
	}
	if k >= 2 {
		tp.waitAcks(t, root, k-2, cp)
	} else {
		cp()
	}
}

// Consume runs a non-master task: pull chunk k from the parent's buffer
// into dst and, if this task has children, into its own staging buffer.
func (tp *treePub) Consume(t *sim.Task, local, k int, dst []byte, kont func()) {
	parent := tp.tr.Parent[local]
	parity := k % 2
	tp.full[parent].WaitGET(t, k+1, func() {
		src := tp.buf[parent][parity][:len(dst)]
		ackParent := func() {
			for j, c := range tp.tr.Children[parent] {
				if c == local {
					tp.ack[parent][j].Set(k + 1)
				}
			}
			kont()
		}
		if len(tp.tr.Children[local]) > 0 {
			relay := func() {
				if len(dst) > 0 {
					tp.s.m.MemcpyT(t, tp.node, tp.buf[local][parity][:len(dst)], src, func() {
						tp.s.m.MemcpyT(t, tp.node, dst, tp.buf[local][parity][:len(dst)], func() {
							tp.full[local].Set(k + 1)
							ackParent()
						})
					})
					return
				}
				tp.full[local].Set(k + 1)
				ackParent()
			}
			if k >= 2 {
				tp.waitAcks(t, local, k-2, relay)
			} else {
				relay()
			}
			return
		}
		if len(dst) > 0 {
			tp.s.m.MemcpyT(t, tp.node, dst, src, ackParent)
			return
		}
		ackParent()
	})
}

// waitConsumed blocks the master until the whole subtree consumed chunk k.
// With the ack chain, the master's direct children acking chunk k implies
// their subtrees have copied it (children ack only after their own copy).
func (tp *treePub) waitConsumed(t *sim.Task, k int, kont func()) {
	tp.waitAcks(t, tp.tr.Root, k, kont)
}

// publisher abstracts the SMP broadcast variants.
type publisher interface {
	Publish(t *sim.Task, k int, src []byte, direct bool, kont func())
	Consume(t *sim.Task, local, k int, dst []byte, kont func())
	waitConsumed(t *sim.Task, k int, kont func())
}

// consumeAll runs a non-master task through every chunk of a publication:
// chunk k (span sp[k] of the message) is copied into its place in dst.
func consumeAll(t *sim.Task, pub publisher, local int, sp []span, dst []byte, kont func()) {
	var step func(k int)
	step = func(k int) {
		if k >= len(sp) {
			kont()
			return
		}
		c := sp[k]
		pub.Consume(t, local, k, dst[c.off:c.off+c.n], func() { step(k + 1) })
	}
	step(0)
}

// newPublisher picks the SMP broadcast variant per Options. count is the
// number of participating tasks on the node; masterLocal indexes them.
func (s *SRM) newPublisher(sc *scratch, node, masterLocal, count, bufSize int) publisher {
	switch {
	case s.opt.TreeSMPBcst:
		return s.newTreePub(sc, node, masterLocal, count, bufSize)
	case s.opt.BarrierSMPBcst:
		return s.newBarrierPub(sc, node, masterLocal, count, bufSize)
	default:
		return s.newSmpPub(sc, node, masterLocal, count, bufSize)
	}
}

// redNode is the per-node SMP reduce machinery of Figure 2: one shared slot
// (double-buffered for the chunk pipeline) per local task, with monotone
// full/free flags. Leaves copy their contribution in; interior tasks
// combine child slots with their own user buffer in place.
type redNode struct {
	s    *SRM
	node int
	tr   tree.Tree // intra-node reduce tree, rooted at the master
	slot [][2][]byte
	full []*shm.Flag
	free []*shm.Flag
}

func (s *SRM) newRedNode(sc *scratch, node, masterLocal, count, chunk int) *redNode {
	rn := &redNode{
		s:    s,
		node: node,
		tr:   tree.New(s.opt.IntraTree, count, masterLocal),
		slot: make([][2][]byte, count),
		full: make([]*shm.Flag, count),
		free: make([]*shm.Flag, count),
	}
	for i := 0; i < count; i++ {
		rn.slot[i] = [2][]byte{sc.buf(chunk), sc.buf(chunk)}
		rn.full[i] = shm.NewFlag(s.m, node)
		rn.free[i] = shm.NewFlag(s.m, node)
	}
	return rn
}

// worker runs the complete non-master role of the SMP reduce over all
// chunks of send: leaves copy chunks into their slot; interior tasks wait
// for child slots and combine them with their own data into their slot.
func (rn *redNode) worker(t *sim.Task, local int, send []byte, sp []span, ds dataspec, kont func()) {
	var step func(k int)
	step = func(k int) {
		if k >= len(sp) {
			kont()
			return
		}
		c := sp[k]
		parity := k % 2
		rn.free[local].WaitGET(t, k-1, func() {
			target := rn.slot[local][parity][:c.n]
			own := send[c.off : c.off+c.n]
			kids := rn.tr.Children[local]
			fin := func() {
				rn.full[local].Set(k + 1)
				step(k + 1)
			}
			if len(kids) == 0 {
				if c.n > 0 {
					rn.s.m.MemcpyT(t, rn.node, target, own, fin) // the Figure 2 leaf copy
					return
				}
				fin()
				return
			}
			rn.combineChildren(t, k, kids, target, own, ds, fin)
		})
	}
	step(0)
}

// combineChildren folds the chunk-k slots of kids together with own into
// target, charging combine time; it marks each child slot free afterwards.
func (rn *redNode) combineChildren(t *sim.Task, k int, kids []int, target, own []byte, ds dataspec, kont func()) {
	parity := k % 2
	var step func(i int, first bool)
	step = func(i int, first bool) {
		if i >= len(kids) {
			kont()
			return
		}
		c := kids[i]
		rn.full[c].WaitGET(t, k+1, func() {
			src := rn.slot[c][parity][:len(target)]
			next := func() {
				rn.free[c].Set(k + 1)
				step(i+1, false)
			}
			if len(target) > 0 {
				if first {
					ds.into(target, own, src)
				} else {
					ds.acc(target, src)
				}
				rn.s.combineCharge(t, len(target), ds.dt.Size(), next)
				return
			}
			next()
		})
	}
	step(0, true)
}

// masterChunk runs the master's local-children combine for chunk k,
// producing the node partial into target. kont receives false when the
// master has no local children (target untouched; the caller uses the
// master's own send chunk as the partial).
func (rn *redNode) masterChunk(t *sim.Task, k int, target, own []byte, ds dataspec, kont func(have bool)) {
	kids := rn.tr.Children[rn.tr.Root]
	if len(kids) == 0 {
		kont(false)
		return
	}
	rn.combineChildren(t, k, kids, target, own, ds, func() { kont(true) })
}

// barrierPub is the Sistare-style SMP broadcast the paper contrasts with
// in §4: access to the shared buffer is arbitrated by full SMP barriers
// (everyone synchronizes before the master overwrites a buffer and after
// the copy-out) instead of per-task flags. The stronger synchronization
// makes every chunk wait for the slowest task — the "susceptible to
// processor late arrivals" behaviour SRM's flag protocol avoids.
type barrierPub struct {
	s           *SRM
	node        int
	masterLocal int
	count       int
	buf         [2][]byte
	cur         [2][]byte
	epoch       *shm.Flag    // barrier generation counter
	checkin     *shm.FlagSet // per-task arrival flags
}

func (s *SRM) newBarrierPub(sc *scratch, node, masterLocal, count, bufSize int) *barrierPub {
	pub := &barrierPub{
		s:           s,
		node:        node,
		masterLocal: masterLocal,
		count:       count,
		epoch:       shm.NewFlag(s.m, node),
		checkin:     shm.NewFlagSet(s.m, node, count),
	}
	pub.buf[0] = sc.buf(bufSize)
	pub.buf[1] = sc.buf(bufSize)
	return pub
}

// barrierMaster runs one flat SMP barrier among the node's tasks, master
// side.
func (pub *barrierPub) barrierMaster(t *sim.Task, gen int, kont func()) {
	var step func(i int)
	step = func(i int) {
		for i == pub.masterLocal {
			i++
		}
		if i >= pub.count {
			pub.epoch.Set(gen)
			kont()
			return
		}
		pub.checkin.Flag(i).WaitGET(t, gen, func() { step(i + 1) })
	}
	step(0)
}

// barrierWorker is the non-master side of the same barrier.
func (pub *barrierPub) barrierWorker(t *sim.Task, local, gen int, kont func()) {
	pub.checkin.Flag(local).Set(gen)
	pub.epoch.WaitGET(t, gen, kont)
}

// Publish brackets the copy-in with two barriers: nobody may still be
// reading this parity's buffer before it, and everyone may read after it.
func (pub *barrierPub) Publish(t *sim.Task, k int, src []byte, direct bool, kont func()) {
	if pub.count == 1 {
		kont()
		return
	}
	pub.barrierMaster(t, 2*k+1, func() {
		parity := k % 2
		fill := func() { pub.barrierMaster(t, 2*k+2, kont) }
		if direct {
			pub.cur[parity] = src
			fill()
			return
		}
		pub.s.m.MemcpyT(t, pub.node, pub.buf[parity][:len(src)], src, func() {
			pub.cur[parity] = pub.buf[parity][:len(src)]
			fill()
		})
	})
}

// Consume passes both barriers, copies the chunk out, and checks in to the
// buffer-free barrier (generation 2k+3) that the master collects in its
// next Publish or in waitConsumed.
func (pub *barrierPub) Consume(t *sim.Task, local, k int, dst []byte, kont func()) {
	pub.barrierWorker(t, local, 2*k+1, func() {
		pub.barrierWorker(t, local, 2*k+2, func() {
			fin := func() {
				pub.checkin.Flag(local).Set(2*k + 3)
				kont()
			}
			if len(dst) > 0 {
				pub.s.m.MemcpyT(t, pub.node, dst, pub.cur[k%2][:len(dst)], fin)
				return
			}
			fin()
		})
	})
}

// waitConsumed runs one more barrier, which guarantees all reads of chunk k
// finished.
func (pub *barrierPub) waitConsumed(t *sim.Task, k int, kont func()) {
	if pub.count == 1 {
		kont()
		return
	}
	pub.barrierMaster(t, 2*k+3, kont)
}
