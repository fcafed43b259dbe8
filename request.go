package srmcoll

// Non-blocking collectives. Each I-variant (IBcast, IAllreduce, ...) issues
// the operation and returns immediately with a *Request; the caller may run
// Compute and complete the operation later with Wait or Test. The
// operation itself executes on a helper — the rank's communication service
// thread, mirroring the single LAPI service thread per task of the paper's
// §2.3 — synchronized with the issuing rank through sim events.
//
// Ordering: each rank owns one request stream. Requests execute and
// complete in issue order (helper N+1 first waits for helper N), so the
// SPMD call-matching rules of the blocking API carry over unchanged: ranks
// must agree on the sequence of collectives per communicator, counting
// blocking and non-blocking calls alike. A blocking collective first
// drains the rank's outstanding requests (see Comm.quiesce). Because the
// per-rank service thread serializes that rank's operations, two requests
// from one rank never overlap each other — they overlap the caller's
// Compute and other ranks' work, which is where the §2.3 asynchrony wins.
//
// Timing: issuing, parking and waking cost zero virtual time, and the
// helpers run their operation slices in the same relative order the ranks
// would have inline, so an issue followed immediately by Wait is
// bit-identical — bytes, Result.Time, Stats — to the blocking call.
//
// One stream for both engines: admission, Wait and Test are written once,
// in continuation-passing form on a *sim.Task. A Task-engine rank runs them
// on its own task; a goroutine rank runs them on its Proc's hosted task
// through sim.Proc.Await, which adds no event-loop items, so both engines
// see the same schedule. Only the helper is per engine: a goroutine Proc
// under Run, because the MPI baselines' collectives are Proc-only, and a
// Task under RunT's Task engine.
//
// Misuse diagnostics (wired through internal/check, recovered into
// *RunError at the Run boundary): Wait on an already-completed request,
// a request never completed when the Run body returns, and issuing a
// request whose buffers overlap a buffer owned by an outstanding request.

import (
	"fmt"
	"strings"

	"srmcoll/internal/check"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// MaxOutstanding bounds the number of incomplete non-blocking requests one
// rank may have in flight. Issuing beyond the bound blocks the caller
// until the oldest outstanding request completes (backpressure, not an
// error); completed-but-unwaited requests do not count against the bound.
const MaxOutstanding = 64

// Request is the handle of a non-blocking collective issued with one of
// Comm's I-methods. Exactly one Wait (or one Test returning true) must
// complete it, from the issuing rank, before the Run body returns. The
// buffers passed to the operation are owned by it until then: reading or
// writing them is undefined, and issuing another request over them is a
// diagnosed error.
type Request struct {
	c        *Comm
	name     string // span name, e.g. "ibcast"
	op       string // public name, e.g. "IBcast"
	seq      int    // per-rank issue index
	bytes    int64
	done     *sim.Event
	group    int // trace group linking issue/op/wait spans, -1 untraced
	bufs     []check.Buf
	consumed bool
	err      error // fault-tolerance outcome, set before done triggers
}

// String identifies the request in errors and stall reports.
func (r *Request) String() string { return fmt.Sprintf("%s#%d", r.name, r.seq) }

// TRequest is the handle of a non-blocking collective issued with one of
// TComm's I-methods; see Request for the completion contract.
type TRequest struct {
	req *Request
	tc  *TComm
}

// String identifies the request in errors and stall reports.
func (r *TRequest) String() string { return r.req.String() }

// Err returns the request's completion error; see Request.Err.
func (r *TRequest) Err() error { return r.req.Err() }

// reqStream is one rank's request bookkeeping: the completion event of the
// most recently issued request (the chain helpers serialize on) and the
// issued-but-not-yet-completed requests in issue order.
type reqStream struct {
	seq  int
	tail *sim.Event
	live []*Request
}

// proc is a rank or request-helper process on either engine: a *sim.Proc
// or a *sim.Task.
type proc interface {
	Name() string
	SetTrack(track int)
}

// runState is the per-Run bookkeeping shared by every Comm of the run: the
// engine the ranks run on and their processes, per-rank completion times,
// request streams, helper attribution for failure reports, trace track
// allocation for helpers, and the sub-communicator cache that makes
// Comm.Sub return one canonical Comm per (parent, member list) so request
// ordering is well defined per communicator.
type runState struct {
	env        *sim.Env
	eng        rankEngine
	ranks      []proc    // rank processes, by rank
	perRank    []float64 // completion time by rank (0 until the body returns)
	streams    []*reqStream
	helperRank map[string]int // helper name -> issuing rank
	helpers    map[int][]proc // issuing rank -> helpers (FT kills them with the rank)
	nextTrack  int            // next helper trace track (ranks use 0..P-1, core helpers P..2P-1)
	subs       map[subKey]*Comm
	ft         *ftState // nil unless the cluster enabled fault tolerance
}

type subKey struct {
	parent  *Comm
	members string
}

func newRunState(env *sim.Env, eng rankEngine, p int) *runState {
	rs := &runState{
		env:        env,
		eng:        eng,
		ranks:      make([]proc, p),
		perRank:    make([]float64, p),
		streams:    make([]*reqStream, p),
		helperRank: make(map[string]int),
		helpers:    make(map[int][]proc),
		nextTrack:  2 * p,
		subs:       make(map[subKey]*Comm),
	}
	for i := range rs.streams {
		rs.streams[i] = &reqStream{}
	}
	return rs
}

// quiesceT orders a blocking operation after every outstanding request of
// this rank, on t (the rank's task, or its Proc's hosted task): the
// blocking operation's protocol slices must not interleave with a
// still-running request on the same rank. Costs an already-done event test
// when no requests are in flight, so the blocking paths' timing is
// untouched.
func (c *Comm) quiesceT(t *sim.Task, k func()) {
	if st := c.rs.streams[c.rank]; st.tail != nil && !st.tail.Done() {
		st.tail.WaitT(t, k)
		return
	}
	k()
}

// quiesce is quiesceT for a goroutine rank. It enters Await only when a
// request is in flight.
func (c *Comm) quiesce() {
	if st := c.rs.streams[c.rank]; st.tail != nil && !st.tail.Done() {
		c.p.Await(func(t *sim.Task, k func()) { st.tail.WaitT(t, k) })
	}
}

// admit is request admission for both engines, run on t (the issuing
// rank's task, or its Proc's hosted task): it diagnoses buffers that
// overlap an outstanding request's, applies the outstanding-request bound,
// fails fast on a communicator already known broken, records the issue
// span, and chains a helper after the rank's previous request. spawn
// starts req's helper, which must first wait for prev (nil when the stream
// is idle); k receives the admitted request.
func (c *Comm) admit(t *sim.Task, op string, bytes int64, bufs []check.Buf,
	spawn func(req *Request, prev *sim.Event) proc, k func(*Request)) {
	name := strings.ToLower(op)
	st := c.rs.streams[c.rank]
	for _, nb := range bufs {
		for _, o := range st.live {
			for _, ob := range o.bufs {
				if nb.Overlaps(ob) {
					panic(&check.RequestError{
						Op: "srmcoll." + op, Rank: c.rank, Req: o.String(),
						Reason: fmt.Sprintf("%s buffer overlaps the outstanding request's %s buffer; buffers are owned by a request until Wait",
							nb.Label, ob.Label),
					})
				}
			}
		}
	}
	inflight, oldest := 0, (*Request)(nil)
	for _, o := range st.live {
		if !o.done.Done() {
			if oldest == nil {
				oldest = o
			}
			inflight++
		}
	}
	if inflight >= MaxOutstanding {
		// Backpressure: admission runs again, re-checking the whole live
		// set, once the oldest outstanding request completed.
		oldest.done.WaitT(t, func() { c.admit(t, op, bytes, bufs, spawn, k) })
		return
	}
	req := &Request{c: c, name: name, op: op, seq: st.seq, bytes: bytes, group: -1, bufs: bufs}
	st.seq++
	req.done = c.rs.env.NewEvent().Named(fmt.Sprintf("request %s on rank %d", req, c.rank))
	if ft := c.rs.ft; ft != nil {
		if fr := ft.failedIn(c.memberList()); len(fr) > 0 {
			// The communicator is already known broken: complete the request
			// immediately with the failure instead of spawning a helper that
			// would error on registration anyway. The stream tail is left
			// unchanged — there is nothing to serialize after.
			req.err = &RankFailedError{Op: name, Rank: c.rank, Failed: fr}
			req.done.Trigger()
			st.live = append(st.live, req)
			k(req)
			return
		}
	}
	if c.tr != nil {
		req.group = c.tr.NewGroup()
		iid := c.tr.Begin(t.Track(), trace.ClassReqIssue, "issue:"+name, bytes)
		c.tr.Link(iid, req.group)
		c.tr.End(iid)
	}
	h := spawn(req, st.tail)
	c.rs.helperRank[h.Name()] = c.rank
	c.rs.helpers[c.rank] = append(c.rs.helpers[c.rank], h)
	st.tail = req.done
	st.live = append(st.live, req)
	k(req)
}

// beginOp opens the request's operation span on its helper h, which gets a
// trace track of its own. Tracks are allocated as helpers start their
// operations, in completion order. Returns -1 untraced.
func (r *Request) beginOp(h proc) int {
	c := r.c
	if c.tr == nil {
		return -1
	}
	track := c.rs.nextTrack
	c.rs.nextTrack++
	h.SetTrack(track)
	c.tr.NameTrack(track, h.Name())
	oid := c.tr.Begin(track, trace.ClassReqOp, r.name, r.bytes)
	c.tr.Link(oid, r.group)
	return oid
}

// complete records the helper's outcome, closes the operation span and
// releases the stream.
func (r *Request) complete(oid int, err error) {
	r.err = err
	r.c.tr.End(oid)
	r.done.Trigger()
}

// issue starts a non-blocking operation from a goroutine rank: admission
// runs on the rank's hosted task, and the helper is a goroutine process
// running the Proc form of the collective, so the I-methods serve the MPI
// baselines too.
func (c *Comm) issue(op string, bytes int64, bufs []check.Buf, run func(hp *sim.Proc)) *Request {
	var req *Request
	c.p.Await(func(t *sim.Task, k func()) {
		c.admit(t, op, bytes, bufs, func(r *Request, prev *sim.Event) proc {
			return c.rs.env.SpawnIndexed(fmt.Sprintf("rank%d.req", c.rank), r.seq, func(hp *sim.Proc) {
				if prev != nil {
					// Wait as a task, like every other waiter on the stream:
					// Event.Trigger wakes goroutine waiters before task
					// waiters, so mixing the kinds would reorder the wakes
					// against the Task engine.
					hp.Await(func(ht *sim.Task, k func()) { prev.WaitT(ht, k) })
				}
				oid := r.beginOp(hp)
				r.complete(oid, c.ftRun(r.name, hp, func() { run(hp) }))
			})
		}, func(r *Request) {
			req = r
			k()
		})
	})
	return req
}

// issue starts a non-blocking operation from a Task-engine rank, with the
// helper spawned as a task running the collective's Task body.
func (tc *TComm) issue(op string, bytes int64, bufs []check.Buf, run func(ht *sim.Task, fin func()), k func(*TRequest)) {
	c := tc.c
	c.admit(tc.t, op, bytes, bufs, func(r *Request, prev *sim.Event) proc {
		return c.rs.env.SpawnTask(fmt.Sprintf("rank%d.req", c.rank), r.seq, func(ht *sim.Task) {
			start := func() {
				oid := r.beginOp(ht)
				c.ftRunT(r.name, ht, func(fin func()) { run(ht, fin) }, func(err error) { r.complete(oid, err) })
			}
			if prev == nil {
				start()
				return
			}
			prev.WaitT(ht, start)
		})
	}, func(r *Request) { k(&TRequest{req: r, tc: tc}) })
}

// consume marks the request completed and releases its buffers.
func (r *Request) consume() {
	st := r.c.rs.streams[r.c.rank]
	for i, o := range st.live {
		if o == r {
			st.live = append(st.live[:i], st.live[i+1:]...)
			break
		}
	}
	r.consumed = true
}

// wait is Wait on t (the issuing rank's task, or its Proc's hosted task):
// k runs once the request completed and was consumed; its outcome is r.err.
func (r *Request) wait(t *sim.Task, k func()) {
	c := r.c
	if r.consumed {
		panic(&check.RequestError{
			Op: "srmcoll.Request.Wait", Rank: c.rank, Req: r.String(),
			Reason: "request already completed (double Wait, or Wait after Test returned true)",
		})
	}
	fin := func() {
		r.consume()
		k()
	}
	if c.tr == nil {
		r.done.WaitT(t, fin)
		return
	}
	wid := c.tr.Begin(t.Track(), trace.ClassReqWait, "wait:"+r.name, r.bytes)
	c.tr.Link(wid, r.group)
	r.done.WaitT(t, func() {
		c.tr.End(wid)
		fin()
	})
}

// Wait blocks the issuing rank until the operation has completed, then
// releases the request's buffers back to the caller. It returns nil on
// success or the *RankFailedError the operation died with when a member of
// the communicator was declared failed mid-flight. Waiting on a request
// that already completed (a second Wait, or Wait after Test returned true)
// is a diagnosed error.
func (r *Request) Wait() error {
	r.c.p.Await(r.wait)
	return r.err
}

// Wait completes the request and releases its buffers; see Request.Wait.
// The continuation receives nil or the *RankFailedError the operation died
// with.
func (r *TRequest) Wait(k func(error)) {
	if r.tc.t == nil {
		k(r.req.Wait())
		return
	}
	r.req.wait(r.tc.t, func() { k(r.req.err) })
}

// Err returns the request's completion error: nil while in flight or on
// success, the *RankFailedError otherwise. Valid any time; authoritative
// once the request completed (Wait returned or Test reported true).
func (r *Request) Err() error { return r.err }

// test is Test on t: k reports whether the request has completed after one
// yield, consuming it if so.
func (r *Request) test(t *sim.Task, k func(bool)) {
	if r.consumed {
		k(true)
		return
	}
	t.YieldThen(func() {
		if !r.done.Done() {
			k(false)
			return
		}
		r.consume()
		k(true)
	})
}

// Test polls the request: it yields the rank's time slice once and reports
// whether the operation has completed, consuming the request if so (a later
// Wait would be an error; further Tests keep returning true). A Test loop
// must interleave Compute — virtual time only advances when the rank
// spends it, so a bare spin would poll the same instant forever.
func (r *Request) Test() bool {
	var ok bool
	r.c.p.Await(func(t *sim.Task, k func()) {
		r.test(t, func(b bool) {
			ok = b
			k()
		})
	})
	return ok
}

// Test polls the request after yielding once; see Request.Test. The
// continuation reports whether the operation has completed (consuming the
// request if so).
func (r *TRequest) Test(k func(bool)) {
	if r.tc.t == nil {
		k(r.req.Test())
		return
	}
	r.req.test(r.tc.t, k)
}

// checkDrained panics (diagnosed at the Run boundary) if the rank's body
// returned with requests never completed — a dropped request would
// otherwise leave helper processes running past the body and, on other
// ranks, peers blocked forever.
func (c *Comm) checkDrained() {
	st := c.rs.streams[c.rank]
	if len(st.live) == 0 {
		return
	}
	panic(&check.RequestError{
		Op: "srmcoll.Run", Rank: c.rank, Req: st.live[0].String(),
		Reason: fmt.Sprintf("%d request(s) dropped: the Run body returned without Wait", len(st.live)),
	})
}

// sendRecv names the buffers a two-buffer request owns until Wait.
func sendRecv(send, recv []byte) []check.Buf {
	return []check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)}
}

// IBarrier starts a non-blocking barrier.
func (c *Comm) IBarrier() *Request {
	return c.issue("IBarrier", 0, nil, func(hp *sim.Proc) {
		c.coll.Barrier(hp, c.rank)
	})
}

// IBcast starts a non-blocking broadcast of buf from root; see Bcast.
func (c *Comm) IBcast(buf []byte, root int) *Request {
	return c.issue("IBcast", int64(len(buf)), []check.Buf{check.BufOf("buf", buf)},
		func(hp *sim.Proc) { c.coll.Bcast(hp, c.rank, buf, root) })
}

// IReduce starts a non-blocking reduction into recv at root; see Reduce.
func (c *Comm) IReduce(send, recv []byte, dt Datatype, op Op, root int) *Request {
	return c.issue("IReduce", int64(len(send)), sendRecv(send, recv),
		func(hp *sim.Proc) { c.coll.Reduce(hp, c.rank, send, recv, dt, op, root) })
}

// IAllreduce starts a non-blocking allreduce; see Allreduce.
func (c *Comm) IAllreduce(send, recv []byte, dt Datatype, op Op) *Request {
	return c.issue("IAllreduce", int64(len(send)), sendRecv(send, recv),
		func(hp *sim.Proc) { c.coll.Allreduce(hp, c.rank, send, recv, dt, op) })
}

// IGather starts a non-blocking gather into recv at root; see Gather.
func (c *Comm) IGather(send, recv []byte, root int) *Request {
	return c.issue("IGather", int64(len(send)), sendRecv(send, recv),
		func(hp *sim.Proc) { c.coll.Gather(hp, c.rank, send, recv, root) })
}

// IScatter starts a non-blocking scatter from root's send; see Scatter.
func (c *Comm) IScatter(send, recv []byte, root int) *Request {
	return c.issue("IScatter", int64(len(recv)), sendRecv(send, recv),
		func(hp *sim.Proc) { c.coll.Scatter(hp, c.rank, send, recv, root) })
}

// IAllgather starts a non-blocking allgather; see Allgather.
func (c *Comm) IAllgather(send, recv []byte) *Request {
	return c.issue("IAllgather", int64(len(send)), sendRecv(send, recv),
		func(hp *sim.Proc) { c.coll.Allgather(hp, c.rank, send, recv) })
}

// IAlltoall starts a non-blocking all-to-all exchange; see Alltoall.
func (c *Comm) IAlltoall(send, recv []byte) *Request {
	return c.issue("IAlltoall", int64(len(send)), sendRecv(send, recv),
		func(hp *sim.Proc) { c.coll.Alltoall(hp, c.rank, send, recv) })
}

// IReduceScatter starts a non-blocking reduce-scatter; see ReduceScatter.
func (c *Comm) IReduceScatter(send, recv []byte, dt Datatype, op Op) *Request {
	return c.issue("IReduceScatter", int64(len(send)), sendRecv(send, recv),
		func(hp *sim.Proc) { c.coll.ReduceScatter(hp, c.rank, send, recv, dt, op) })
}

// IScan starts a non-blocking inclusive prefix reduction; see Scan.
func (c *Comm) IScan(send, recv []byte, dt Datatype, op Op) *Request {
	return c.issue("IScan", int64(len(send)), sendRecv(send, recv),
		func(hp *sim.Proc) { c.coll.Scan(hp, c.rank, send, recv, dt, op) })
}

// IExscan starts a non-blocking exclusive prefix reduction; see Exscan.
func (c *Comm) IExscan(send, recv []byte, dt Datatype, op Op) *Request {
	return c.issue("IExscan", int64(len(send)), sendRecv(send, recv),
		func(hp *sim.Proc) { c.coll.Exscan(hp, c.rank, send, recv, dt, op) })
}

// IBarrier starts a non-blocking barrier.
func (tc *TComm) IBarrier(k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IBarrier(), tc: tc})
		return
	}
	tc.issue("IBarrier", 0, nil, func(ht *sim.Task, fin func()) {
		tc.g.BarrierT(ht, tc.c.rank, fin)
	}, k)
}

// IBcast starts a non-blocking broadcast of buf from root; see Bcast.
func (tc *TComm) IBcast(buf []byte, root int, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IBcast(buf, root), tc: tc})
		return
	}
	tc.issue("IBcast", int64(len(buf)), []check.Buf{check.BufOf("buf", buf)},
		func(ht *sim.Task, fin func()) { tc.g.BcastT(ht, tc.c.rank, buf, root, fin) }, k)
}

// IReduce starts a non-blocking reduction into recv at root; see Reduce.
func (tc *TComm) IReduce(send, recv []byte, dt Datatype, op Op, root int, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IReduce(send, recv, dt, op, root), tc: tc})
		return
	}
	tc.issue("IReduce", int64(len(send)), sendRecv(send, recv),
		func(ht *sim.Task, fin func()) { tc.g.ReduceT(ht, tc.c.rank, send, recv, dt, op, root, fin) }, k)
}

// IAllreduce starts a non-blocking allreduce; see Allreduce.
func (tc *TComm) IAllreduce(send, recv []byte, dt Datatype, op Op, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IAllreduce(send, recv, dt, op), tc: tc})
		return
	}
	tc.issue("IAllreduce", int64(len(send)), sendRecv(send, recv),
		func(ht *sim.Task, fin func()) { tc.g.AllreduceT(ht, tc.c.rank, send, recv, dt, op, fin) }, k)
}

// IGather starts a non-blocking gather into recv at root; see Gather.
func (tc *TComm) IGather(send, recv []byte, root int, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IGather(send, recv, root), tc: tc})
		return
	}
	tc.issue("IGather", int64(len(send)), sendRecv(send, recv),
		func(ht *sim.Task, fin func()) { tc.g.GatherT(ht, tc.c.rank, send, recv, root, fin) }, k)
}

// IScatter starts a non-blocking scatter from root's send; see Scatter.
func (tc *TComm) IScatter(send, recv []byte, root int, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IScatter(send, recv, root), tc: tc})
		return
	}
	tc.issue("IScatter", int64(len(recv)), sendRecv(send, recv),
		func(ht *sim.Task, fin func()) { tc.g.ScatterT(ht, tc.c.rank, send, recv, root, fin) }, k)
}

// IAllgather starts a non-blocking allgather; see Allgather.
func (tc *TComm) IAllgather(send, recv []byte, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IAllgather(send, recv), tc: tc})
		return
	}
	tc.issue("IAllgather", int64(len(send)), sendRecv(send, recv),
		func(ht *sim.Task, fin func()) { tc.g.AllgatherT(ht, tc.c.rank, send, recv, fin) }, k)
}

// IAlltoall starts a non-blocking all-to-all exchange; see Alltoall.
func (tc *TComm) IAlltoall(send, recv []byte, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IAlltoall(send, recv), tc: tc})
		return
	}
	tc.issue("IAlltoall", int64(len(send)), sendRecv(send, recv),
		func(ht *sim.Task, fin func()) { tc.g.AlltoallT(ht, tc.c.rank, send, recv, fin) }, k)
}

// IReduceScatter starts a non-blocking reduce-scatter; see ReduceScatter.
func (tc *TComm) IReduceScatter(send, recv []byte, dt Datatype, op Op, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IReduceScatter(send, recv, dt, op), tc: tc})
		return
	}
	tc.issue("IReduceScatter", int64(len(send)), sendRecv(send, recv),
		func(ht *sim.Task, fin func()) { tc.g.ReduceScatterT(ht, tc.c.rank, send, recv, dt, op, fin) }, k)
}

// IScan starts a non-blocking inclusive prefix reduction; see Scan.
func (tc *TComm) IScan(send, recv []byte, dt Datatype, op Op, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IScan(send, recv, dt, op), tc: tc})
		return
	}
	tc.issue("IScan", int64(len(send)), sendRecv(send, recv),
		func(ht *sim.Task, fin func()) { tc.g.ScanT(ht, tc.c.rank, send, recv, dt, op, fin) }, k)
}

// IExscan starts a non-blocking exclusive prefix reduction; see Exscan.
func (tc *TComm) IExscan(send, recv []byte, dt Datatype, op Op, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IExscan(send, recv, dt, op), tc: tc})
		return
	}
	tc.issue("IExscan", int64(len(send)), sendRecv(send, recv),
		func(ht *sim.Task, fin func()) { tc.g.ExscanT(ht, tc.c.rank, send, recv, dt, op, fin) }, k)
}
