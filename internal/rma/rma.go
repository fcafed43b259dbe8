// Package rma models a LAPI-like one-sided communication layer: non-blocking
// put/get, active messages, and origin/target/completion counters with
// LAPI_Waitcntr semantics (§2.3 of the paper). Delivery follows the paper's
// interrupt and progress rules:
//
//   - if the target task is inside an RMA call, the dispatcher polls and the
//     message is delivered after the receive overhead;
//   - otherwise, with interrupts enabled, delivery costs an interrupt (plus a
//     starvation penalty when tasks on the node spin without yielding);
//   - with interrupts disabled, delivery is deferred until the target task's
//     next RMA call ("the put operation would not be able to complete
//     without implicit cooperation of the destination task").
package rma

import (
	"fmt"
	"sync"

	"srmcoll/internal/machine"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// Counter is a LAPI-style completion counter. Waitcntr blocks until the
// counter reaches a value and then subtracts it, so counters can carry
// repeated round-trip flow control (§2.4 broadcast buffer management).
type Counter struct {
	env  *sim.Env
	val  int
	cond *sim.Cond
	wcl  trace.Class // span class recorded while a process blocks here
}

// NewCounter creates a counter with the given initial value.
func NewCounter(env *sim.Env, initial int) *Counter {
	return &Counter{env: env, val: initial, cond: env.NewCond(), wcl: trace.ClassWaitCntr}
}

// TraceClass sets the wait class recorded when a process blocks on the
// counter (arrival wait, ack wait, credit wait, ...) and returns c, so
// protocol setup can chain it after NewCounter.
func (c *Counter) TraceClass(cl trace.Class) *Counter { c.wcl = cl; return c }

// Value returns the current count.
func (c *Counter) Value() int { return c.val }

// Incr adds n and wakes waiters. The RMA layer calls it on delivery;
// protocols may also use it directly for locally produced events.
func (c *Counter) Incr(n int) {
	c.val += n
	c.cond.Broadcast()
}

// waitGE blocks until the counter is at least v. The wait parks with a
// WaitDescriber instead of a closure, so the hot Waitcntr path allocates
// nothing.
func (c *Counter) waitGE(p *sim.Proc, v int) {
	if c.val >= v {
		return
	}
	id := c.env.Trace.Begin(p.Track(), c.wcl, c.wcl.String(), 0)
	for c.val < v {
		c.cond.WaitOn(p, c, v)
	}
	c.env.Trace.End(id)
}

// DescribeWait implements sim.WaitDescriber for stall reports.
func (c *Counter) DescribeWait(want int) string {
	return fmt.Sprintf("rma counter %s: value %d, want >= %d", c.cond.ID(), c.val, want)
}

// Endpoint is one task's attachment to the RMA layer.
type Endpoint struct {
	dom        *Domain
	Rank       int
	Node       int
	inCall     bool
	interrupts bool
	dead       bool     // task declared failed; deliveries are dropped
	pending    []func() // deferred deliveries awaiting a progress opportunity
}

// Domain is the RMA communication domain: one endpoint per task.
type Domain struct {
	m   *machine.Machine
	eps []*Endpoint

	// Reliable-delivery state (see reliable.go). Off by default: the
	// paper's protocols assume LAPI delivers every put exactly once.
	reliable   bool
	ackTimeout sim.Time
	backoffCap sim.Time
	sendSeq    map[chKey]int
	seen       map[chKey]map[int]bool
}

// NewDomain attaches every task of the machine to the RMA layer.
// Interrupts start enabled, as on LAPI.
func NewDomain(m *machine.Machine) *Domain {
	d := &Domain{m: m, eps: make([]*Endpoint, m.P())}
	for r := range d.eps {
		d.eps[r] = &Endpoint{dom: d, Rank: r, Node: m.NodeOf(r), interrupts: true}
	}
	return d
}

// Endpoint returns the endpoint of a global rank.
func (d *Domain) Endpoint(rank int) *Endpoint { return d.eps[rank] }

// MarkDead records that a rank's task has been declared failed. From this
// point deliveries addressed to it are dropped (the link-level machinery —
// injection, acks, retransmit suppression — keeps running in the adapter,
// so origins of in-flight reliable puts still converge), its deferred
// deliveries are discarded, and reliable retransmit loops targeting it
// stop rescheduling. Marking a rank dead twice is a no-op.
func (d *Domain) MarkDead(rank int) {
	ep := d.eps[rank]
	if ep.dead {
		return
	}
	ep.dead = true
	ep.pending = nil
	ep.inCall = false
}

// Dead reports whether the rank has been marked failed.
func (d *Domain) Dead(rank int) bool { return d.eps[rank].dead }

// Machine returns the underlying machine model.
func (d *Domain) Machine() *machine.Machine { return d.m }

// NewCounter creates a counter in the domain's environment.
func (d *Domain) NewCounter(initial int) *Counter { return NewCounter(d.m.Env, initial) }

// SetInterrupts switches the endpoint's interrupt mode. Enabling interrupts
// releases any deferred deliveries (each paying the interrupt cost).
func (ep *Endpoint) SetInterrupts(on bool) {
	ep.interrupts = on
	if on && len(ep.pending) > 0 {
		m := ep.dom.m
		for _, fn := range ep.pending {
			m.Stats.Interrupts++
			m.Env.After(m.Cfg.InterruptCost+m.SpinPenalty(ep.Node), fn)
		}
		ep.pending = nil
	}
}

// Interrupts reports the endpoint's interrupt mode.
func (ep *Endpoint) Interrupts() bool { return ep.interrupts }

// drainPending services deferred deliveries from inside an RMA call; the
// calling task's CPU pays the receive overhead for each.
func (ep *Endpoint) drainPending(p *sim.Proc) {
	for len(ep.pending) > 0 {
		fn := ep.pending[0]
		ep.pending = ep.pending[1:]
		p.Sleep(ep.dom.m.Cfg.RecvOverhead)
		fn()
	}
}

// Waitcntr blocks until the counter reaches v and subtracts v, LAPI-style.
// While waiting, the task counts as "inside an RMA call": the dispatcher
// polls, so arriving messages are delivered without interrupts.
func (ep *Endpoint) Waitcntr(p *sim.Proc, c *Counter, v int) {
	ep.drainPending(p)
	ep.inCall = true
	// Restore via defer: a crash or fault-tolerance interrupt can unwind
	// through the wait, and a stuck inCall=true would make every later
	// delivery to this (possibly surviving) task look like a poll.
	defer func() { ep.inCall = false }()
	c.waitGE(p, v)
	c.val -= v
}

// deliver routes an arrived message according to the interrupt/progress
// rules. fn performs the actual data movement and counter updates. Injected
// interrupt storms (machine.StormPenalty, zero by default) slow deliveries
// the same way spin-loop starvation does.
//
// g/par carry the put lifecycle's trace group and issuing span (-1, -1 for
// untraced messages): the delivery leg is recorded as a span from arrival
// to the moment fn runs, named after the mode that delivered it.
func (ep *Endpoint) deliver(g, par int, fn func()) {
	m := ep.dom.m
	if ep.dead {
		// The task was declared failed: its adapter still acks at the link
		// level (reliable.go), but nothing is delivered to the dead task.
		m.Stats.DeadDrops++
		return
	}
	tr := m.Env.Trace
	switch {
	case ep.inCall:
		// Even with the dispatcher polling, the service threads need CPU
		// cycles that non-yielding spin loops elsewhere on the node hold
		// (§2.4) — hence the starvation penalty here as well.
		d := m.Cfg.RecvOverhead + m.SpinPenalty(ep.Node) + m.StormPenalty(ep.Node)
		if tr != nil && g >= 0 {
			tr.Add(g, par, trace.ClassPutDeliver, "put:deliver:poll", 0, m.Env.Now(), m.Env.Now()+d)
		}
		m.Env.After(d, fn)
	case ep.interrupts:
		m.Stats.Interrupts++
		d := m.Cfg.InterruptCost + m.SpinPenalty(ep.Node) + m.StormPenalty(ep.Node)
		if tr != nil && g >= 0 {
			tr.Add(g, par, trace.ClassPutDeliver, "put:deliver:interrupt", 0, m.Env.Now(), m.Env.Now()+d)
		}
		m.Env.After(d, fn)
	default:
		m.Stats.Deferrals++
		if tr != nil && g >= 0 {
			// The deferral window is open-ended until the target's next RMA
			// call drains it; record arrival now and close at actual delivery.
			at := m.Env.Now()
			inner := fn
			fn = func() {
				tr.Add(g, par, trace.ClassPutDeliver, "put:deliver:deferred", 0, at, m.Env.Now())
				inner()
			}
		}
		ep.pending = append(ep.pending, fn)
	}
}

// Put issues a non-blocking put of src into dst at the target task. It
// returns after the origin CPU overhead; the transfer proceeds
// asynchronously. Counters may be nil:
//
//	origin  - incremented when the origin buffer is reusable (injection done)
//	target  - incremented at the target when the data has landed
//	compl   - incremented at the origin when the transaction completed
//
// len(dst) must equal len(src); a zero-byte put carries only counter
// updates, the paper's flow-control acknowledgement.
func (ep *Endpoint) Put(p *sim.Proc, target *Endpoint, dst, src []byte, origin, tgt, compl *Counter) {
	if len(dst) != len(src) {
		panic("rma: Put length mismatch")
	}
	m := ep.dom.m
	m.Stats.AddPut(len(src))
	p.Sleep(m.Cfg.SendOverhead)

	if target.Node == ep.Node {
		// Loopback through shared memory: one copy, no wire.
		m.Memcpy(p, ep.Node, dst, src)
		if origin != nil {
			origin.Incr(1)
		}
		if tgt != nil {
			tgt.Incr(1)
		}
		if compl != nil {
			compl.Incr(1)
		}
		return
	}
	par := -1
	if tr := m.Env.Trace; tr != nil {
		par = tr.Current(p.Track())
	}
	ep.putRemote(target, par, dst, src, origin, tgt, compl)
}

// putRemote runs the post-overhead leg of a remote put. Everything from here
// on is event callbacks — no process or task blocks — so the one transfer
// path serves both engines.
func (ep *Endpoint) putRemote(target *Endpoint, par int, dst, src []byte, origin, tgt, compl *Counter) {
	m := ep.dom.m
	// The adapter reads the origin buffer at injection; snapshot the payload
	// now so callers that reuse the buffer after the origin counter fires
	// stay correct (the snapshot itself is bookkeeping, not a charged copy).
	// The snapshot comes from the machine's buffer pool; the delivery path
	// recycles it after the last read of its contents.
	var snap []byte
	if len(src) > 0 {
		snap = m.Buffers.Get(len(src))
		copy(snap, src)
	}
	tr := m.Env.Trace
	if ep.dom.reliable || m.Faults != nil {
		ep.dom.wirePut(ep, target, par, dst, snap, origin, tgt, compl)
		return
	}
	injectEnd, arrival := m.NetInjectTo(ep.Node, target.Node, len(src))
	ackLat := m.Cfg.NetLatencyOf(target.Node, ep.Node)
	g := -1
	if tr != nil {
		g = tr.NewGroup()
		tr.Add(g, par, trace.ClassPutInject, "put:inject", int64(len(src)), m.Env.Now(), injectEnd)
		tr.Add(g, par, trace.ClassPutWire, "put:wire", int64(len(src)), injectEnd, arrival)
	}
	if origin != nil {
		m.Env.At(injectEnd, func() { origin.Incr(1) })
	}
	m.Env.At(arrival, func() {
		target.deliver(g, par, func() {
			copy(dst, snap)
			m.Buffers.Put(snap) // contents fully consumed by the copy above
			if tgt != nil {
				tgt.Incr(1)
			}
			if compl != nil {
				// Completion is acknowledged back to the origin over the wire.
				if tr != nil {
					tr.Add(g, par, trace.ClassPutAck, "put:ack", 0, m.Env.Now(), m.Env.Now()+ackLat)
				}
				m.Env.After(ackLat, func() { compl.Incr(1) })
			}
		})
	})
}

// PutZero sends a zero-byte put that only increments the target counter —
// the flow-control ack of §2.4.
func (ep *Endpoint) PutZero(p *sim.Proc, target *Endpoint, tgt *Counter) {
	ep.Put(p, target, nil, nil, nil, tgt, nil)
}

// Task-engine entry points. Each *T method mirrors its Proc counterpart's
// virtual-time behavior exactly — same sleeps, same counter and dispatcher
// bookkeeping, in the same order — so a protocol expressed once per engine
// produces bit-identical simulated time. The transfer itself (wire, reliable
// retransmit, delivery rules) is engine-free callback machinery shared with
// the Proc paths.

// waitGET is waitGE for the Task engine; k runs once the counter is >= v.
func (c *Counter) waitGET(t *sim.Task, v int, k func()) {
	if c.val >= v {
		k()
		return
	}
	id := c.env.Trace.Begin(t.Track(), c.wcl, c.wcl.String(), 0)
	c.cond.WaitUntilOnT(t, c, v, func() bool { return c.val >= v }, func() {
		c.env.Trace.End(id)
		k()
	})
}

// WaitValueT waits until the counter reaches v, subtracts v and runs k,
// like Endpoint.WaitcntrT but without touching any endpoint's dispatcher
// state. Helper tasks that share a task's endpoint (e.g. the broadcast side
// of the fused allreduce pipeline) use it so the main task's RMA-call
// bookkeeping stays consistent.
func (c *Counter) WaitValueT(t *sim.Task, v int, k func()) {
	c.waitGET(t, v, func() {
		c.val -= v
		k()
	})
}

// drainFrame is a pooled continuation frame for drainPendingT: the resume
// continuation is bound once per frame, so draining deferred deliveries —
// the common case for masters running with interrupts off — allocates
// nothing per delivery. Pooled-frame safety follows the retryFn contract:
// a task parks or sleeps on one thing at a time and stale waiters are
// dropped on interrupt, so a frame is referenced only between its arm and
// its resume.
type drainFrame struct {
	ep     *Endpoint
	t      *sim.Task
	k      func()
	fn     func() // delivery being serviced during the current sleep
	stepFn func()
}

var drainFramePool = sync.Pool{New: func() any { return new(drainFrame) }}

func (fr *drainFrame) step() {
	if fr.fn != nil {
		fn := fr.fn
		fr.fn = nil
		fn()
	}
	ep := fr.ep
	if len(ep.pending) == 0 {
		k := fr.k
		fr.ep = nil
		fr.t = nil
		fr.k = nil
		drainFramePool.Put(fr)
		k()
		return
	}
	fr.fn = ep.pending[0]
	ep.pending = ep.pending[1:]
	fr.t.SleepThen(ep.dom.m.Cfg.RecvOverhead, fr.stepFn)
}

// drainPendingT services deferred deliveries from inside an RMA call, one
// RecvOverhead sleep per delivery like drainPending, then runs k.
func (ep *Endpoint) drainPendingT(t *sim.Task, k func()) {
	if len(ep.pending) == 0 {
		k()
		return
	}
	fr := drainFramePool.Get().(*drainFrame)
	if fr.stepFn == nil {
		fr.stepFn = fr.step // bound once per frame, reused across the pool
	}
	fr.ep, fr.t, fr.k = ep, t, k
	fr.step()
}

// cntrFrame is the pooled continuation frame for WaitcntrT: drain resume,
// park predicate, wake continuation, and the unwind compensation are all
// bound once per frame, so counter waits — the inner loop of the put/credit
// protocols — allocate nothing per wait.
type cntrFrame struct {
	ep           *Endpoint
	c            *Counter
	t            *sim.Task
	v            int
	id           int // open trace span while parked
	k            func()
	afterDrainFn func()
	predFn       func() bool
	doneFn       func()
	unwindFn     func()
}

var cntrFramePool = sync.Pool{New: func() any { return new(cntrFrame) }}

func (fr *cntrFrame) afterDrain() {
	ep, c, t := fr.ep, fr.c, fr.t
	ep.inCall = true
	t.PushUnwind(fr.unwindFn)
	if c.val >= fr.v {
		fr.finish()
		return
	}
	fr.id = c.env.Trace.Begin(t.Track(), c.wcl, c.wcl.String(), 0)
	c.cond.WaitUntilOnT(t, c, fr.v, fr.predFn, fr.doneFn)
}

func (fr *cntrFrame) pred() bool { return fr.c.val >= fr.v }

func (fr *cntrFrame) done() {
	fr.c.env.Trace.End(fr.id)
	fr.finish()
}

// finish consumes the counter and leaves the RMA call, same order as the
// Proc path: subtract, clear inCall, discard the compensation, resume.
func (fr *cntrFrame) finish() {
	ep, c, t, v, k := fr.ep, fr.c, fr.t, fr.v, fr.k
	fr.release()
	c.val -= v
	ep.inCall = false
	t.PopUnwind()
	k()
}

// unwind restores inCall when a fault-tolerance interrupt abandons the
// wait; the waiter entry is already dropped, so the frame recycles here.
func (fr *cntrFrame) unwind() {
	ep := fr.ep
	fr.release()
	ep.inCall = false
}

func (fr *cntrFrame) release() {
	fr.ep = nil
	fr.c = nil
	fr.t = nil
	fr.k = nil
	cntrFramePool.Put(fr)
}

// WaitcntrT is Waitcntr for the Task engine. The endpoint counts as inside
// an RMA call (dispatcher polling) from the moment the wait arms until k is
// about to run. The Proc version restores inCall via defer when a crash or
// fault-tolerance interrupt unwinds through the wait; here the same
// compensation rides the task's unwind stack (a no-op unless fault-tolerant
// execution armed it).
func (ep *Endpoint) WaitcntrT(t *sim.Task, c *Counter, v int, k func()) {
	fr := cntrFramePool.Get().(*cntrFrame)
	if fr.afterDrainFn == nil {
		// Bound once per frame, reused across the pool for its lifetime.
		fr.afterDrainFn = fr.afterDrain
		fr.predFn = fr.pred
		fr.doneFn = fr.done
		fr.unwindFn = fr.unwind
	}
	fr.ep, fr.c, fr.t, fr.v, fr.k = ep, c, t, v, k
	ep.drainPendingT(t, fr.afterDrainFn)
}

// ProbeT gives the dispatcher one progress opportunity without blocking
// (the equivalent of calling into LAPI without waiting), then runs k.
func (ep *Endpoint) ProbeT(t *sim.Task, k func()) { ep.drainPendingT(t, k) }

// putFrame is the pooled continuation frame for PutT: the post-overhead
// injection step and the loopback copy completion are bound once per frame,
// so the put fan-outs of a massive-rank run allocate nothing per call.
type putFrame struct {
	ep, target         *Endpoint
	t                  *sim.Task
	dst, src           []byte
	origin, tgt, compl *Counter
	k                  func()
	sendFn             func()
	copyFn             func()
}

var putFramePool = sync.Pool{New: func() any { return new(putFrame) }}

func (fr *putFrame) send() {
	ep, target, t := fr.ep, fr.target, fr.t
	m := ep.dom.m
	if target.Node == ep.Node {
		m.MemcpyT(t, ep.Node, fr.dst, fr.src, fr.copyFn)
		return
	}
	par := -1
	if tr := m.Env.Trace; tr != nil {
		par = tr.Current(t.Track())
	}
	dst, src, origin, tgt, compl, k := fr.dst, fr.src, fr.origin, fr.tgt, fr.compl, fr.k
	fr.release()
	ep.putRemote(target, par, dst, src, origin, tgt, compl)
	k()
}

func (fr *putFrame) copyDone() {
	origin, tgt, compl, k := fr.origin, fr.tgt, fr.compl, fr.k
	fr.release()
	if origin != nil {
		origin.Incr(1)
	}
	if tgt != nil {
		tgt.Incr(1)
	}
	if compl != nil {
		compl.Incr(1)
	}
	k()
}

func (fr *putFrame) release() {
	fr.ep = nil
	fr.target = nil
	fr.t = nil
	fr.dst = nil
	fr.src = nil
	fr.origin = nil
	fr.tgt = nil
	fr.compl = nil
	fr.k = nil
	putFramePool.Put(fr)
}

// PutT is Put for the Task engine: k runs once the origin CPU has paid the
// send overhead (and, for a loopback put, the shared-memory copy) — the
// point at which Put would have returned to the calling process.
func (ep *Endpoint) PutT(t *sim.Task, target *Endpoint, dst, src []byte, origin, tgt, compl *Counter, k func()) {
	if len(dst) != len(src) {
		panic("rma: PutT length mismatch")
	}
	m := ep.dom.m
	m.Stats.AddPut(len(src))
	fr := putFramePool.Get().(*putFrame)
	if fr.sendFn == nil {
		// Bound once per frame, reused across the pool for its lifetime.
		fr.sendFn = fr.send
		fr.copyFn = fr.copyDone
	}
	fr.ep, fr.target, fr.t = ep, target, t
	fr.dst, fr.src = dst, src
	fr.origin, fr.tgt, fr.compl = origin, tgt, compl
	fr.k = k
	t.SleepThen(m.Cfg.SendOverhead, fr.sendFn)
}

// PutZeroT is PutZero for the Task engine.
func (ep *Endpoint) PutZeroT(t *sim.Task, target *Endpoint, tgt *Counter, k func()) {
	ep.PutT(t, target, nil, nil, nil, tgt, nil, k)
}

// AMT sends an active message: handler runs at the target on arrival
// (after the header-handler cost), following the same delivery rules as
// Put. The payload is passed to the handler by reference; handlers must
// copy what they keep. k runs once the origin CPU has paid the send
// overhead (plus, for an intra-node message, the handler cost).
func (ep *Endpoint) AMT(t *sim.Task, target *Endpoint, payload []byte, handler func([]byte), k func()) {
	m := ep.dom.m
	m.Stats.ActiveMsgs++
	t.SleepThen(m.Cfg.SendOverhead, func() {
		if target.Node == ep.Node {
			t.SleepThen(m.Cfg.AMHandlerCost, func() {
				handler(payload)
				k()
			})
			return
		}
		_, arrival := m.NetInjectTo(ep.Node, target.Node, len(payload))
		m.Env.At(arrival, func() {
			target.deliver(-1, -1, func() {
				m.Env.After(m.Cfg.AMHandlerCost, func() { handler(payload) })
			})
		})
		k()
	})
}

// Get issues a non-blocking get: src at the target is fetched into dst at
// the origin; compl (at the origin) is incremented when the data has
// landed. The request is serviced at the target under the usual delivery
// rules, then the reply is injected from the target's adapter.
func (ep *Endpoint) Get(p *sim.Proc, target *Endpoint, dst, src []byte, compl *Counter) {
	if len(dst) != len(src) {
		panic("rma: Get length mismatch")
	}
	m := ep.dom.m
	m.Stats.AddGet(len(src))
	p.Sleep(m.Cfg.SendOverhead)

	if target.Node == ep.Node {
		m.Memcpy(p, ep.Node, dst, src)
		if compl != nil {
			compl.Incr(1)
		}
		return
	}

	_, reqArrival := m.NetInjectTo(ep.Node, target.Node, 0)
	m.Env.At(reqArrival, func() {
		target.deliver(-1, -1, func() {
			_, replyArrival := m.NetInjectTo(target.Node, ep.Node, len(src))
			m.Env.At(replyArrival, func() {
				copy(dst, src)
				if compl != nil {
					compl.Incr(1)
				}
			})
		})
	})
}

// GetBlocking fetches src at the target into dst and waits for completion.
func (ep *Endpoint) GetBlocking(p *sim.Proc, target *Endpoint, dst, src []byte) {
	c := ep.dom.NewCounter(0)
	ep.Get(p, target, dst, src, c)
	ep.Waitcntr(p, c, 1)
}

// RmwOp selects a LAPI_Rmw-style atomic operation.
type RmwOp int

const (
	FetchAndAdd RmwOp = iota
	Swap
	CompareAndSwap // applies only when the current value equals cmp
)

// Word is a remotely accessible 64-bit word, the target of Rmw operations.
// It lives at one task's endpoint; the dispatcher there applies updates
// atomically in arrival order.
type Word struct {
	Owner *Endpoint
	val   int64
}

// NewWord allocates an RMW word at the endpoint, initialized to v.
func (ep *Endpoint) NewWord(v int64) *Word { return &Word{Owner: ep, val: v} }

// Value returns the current contents (for the owner's local inspection).
func (w *Word) Value() int64 { return w.val }

// Rmw performs an atomic read-modify-write on the remote word (§2.3 lists
// atomic read-modify-write among LAPI's RMA capabilities). The previous
// value is returned once the round trip completes; the calling process
// blocks for it. op semantics: FetchAndAdd adds operand; Swap stores
// operand; CompareAndSwap stores operand only if the value equals cmp.
func (ep *Endpoint) Rmw(p *sim.Proc, w *Word, op RmwOp, operand, cmp int64) int64 {
	m := ep.dom.m
	var prev int64
	apply := func() {
		prev = w.val
		switch op {
		case FetchAndAdd:
			w.val += operand
		case Swap:
			w.val = operand
		case CompareAndSwap:
			if w.val == cmp {
				w.val = operand
			}
		default:
			panic("rma: unknown RmwOp")
		}
	}
	p.Sleep(m.Cfg.SendOverhead)
	if w.Owner.Node == ep.Node {
		// Loopback: the update is a local atomic.
		apply()
		return prev
	}
	done := ep.dom.NewCounter(0)
	_, reqArrival := m.NetInjectTo(ep.Node, w.Owner.Node, headerWord)
	m.Env.At(reqArrival, func() {
		w.Owner.deliver(-1, -1, func() {
			apply()
			_, replyArrival := m.NetInjectTo(w.Owner.Node, ep.Node, headerWord)
			m.Env.At(replyArrival, func() { done.Incr(1) })
		})
	})
	ep.Waitcntr(p, done, 1)
	return prev
}

// headerWord is the wire size of an RMW request or reply.
const headerWord = 16
