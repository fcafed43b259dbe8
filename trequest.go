package srmcoll

// Non-blocking collectives on the Task engine. The ordering and misuse
// contracts are those request.go documents — one request stream per rank,
// issue-order execution and completion, MaxOutstanding backpressure,
// buffer ownership until Wait — implemented over helper tasks instead of
// helper goroutines. TRequest wraps the same Request record, so the stream
// bookkeeping (live set, tail chaining, overlap diagnosis, checkDrained)
// is shared verbatim between the engines and the timings stay
// bit-identical.

import (
	"fmt"
	"strings"

	"srmcoll/internal/check"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

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

// issueT is issue for the Task engine: same validation, backpressure, and
// stream chaining, with the helper spawned as a task. The continuation
// receives the handle once the request is admitted (immediately unless the
// MaxOutstanding bound blocks the issuing rank).
func (tc *TComm) issueT(op string, bytes int64, bufs []check.Buf, run func(ht *sim.Task, fin func()), k func(*TRequest)) {
	c := tc.c
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
	// Backpressure re-checks the whole live set after every wake, exactly
	// like issue's re-loop: the oldest request completing may not be enough
	// if Waits consumed requests meanwhile.
	var admit func()
	admit = func() {
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
			oldest.done.WaitT(tc.t, admit)
			return
		}
		req := &Request{c: c, name: name, op: op, seq: st.seq, bytes: bytes, group: -1, bufs: bufs}
		st.seq++
		req.done = c.rs.env.NewEvent().Named(fmt.Sprintf("request %s on rank %d", req, c.rank))
		if ft := c.rs.ft; ft != nil {
			if fr := ft.failedIn(c.memberList()); len(fr) > 0 {
				// Already known broken: complete immediately with the failure;
				// the stream tail is left unchanged (see issue).
				req.err = &RankFailedError{Op: name, Rank: c.rank, Failed: fr}
				req.done.Trigger()
				st.live = append(st.live, req)
				k(&TRequest{req: req, tc: tc})
				return
			}
		}
		if c.tr != nil {
			req.group = c.tr.NewGroup()
			iid := c.tr.Begin(tc.t.Track(), trace.ClassReqIssue, "issue:"+name, bytes)
			c.tr.Link(iid, req.group)
			c.tr.End(iid)
		}
		prev := st.tail
		ht := c.rs.env.SpawnTask(fmt.Sprintf("rank%d.req", c.rank), req.seq, func(ht *sim.Task) {
			start := func() {
				oid := -1
				if c.tr != nil {
					// Helper tracks are allocated when the helper starts its
					// operation (completion order), matching issue.
					track := c.rs.nextTrack
					c.rs.nextTrack++
					ht.SetTrack(track)
					c.tr.NameTrack(track, ht.Name())
					oid = c.tr.Begin(track, trace.ClassReqOp, name, bytes)
					c.tr.Link(oid, req.group)
				}
				tc.ftRunT(name, ht, func(fin func()) { run(ht, fin) }, func(err error) {
					req.err = err
					c.tr.End(oid)
					req.done.Trigger()
				})
			}
			if prev != nil {
				prev.WaitT(ht, start)
				return
			}
			start()
		})
		c.rs.helperRank[ht.Name()] = c.rank
		c.rs.thelpers[c.rank] = append(c.rs.thelpers[c.rank], ht)
		st.tail = req.done
		st.live = append(st.live, req)
		k(&TRequest{req: req, tc: tc})
	}
	admit()
}

// Wait completes the request and releases its buffers; see Request.Wait.
// The continuation receives nil or the *RankFailedError the operation died
// with.
func (r *TRequest) Wait(k func(error)) {
	if r.tc.t == nil {
		k(r.req.Wait())
		return
	}
	c := r.req.c
	if r.req.consumed {
		panic(&check.RequestError{
			Op: "srmcoll.Request.Wait", Rank: c.rank, Req: r.req.String(),
			Reason: "request already completed (double Wait, or Wait after Test returned true)",
		})
	}
	fin := func() {
		r.req.consume()
		k(r.req.err)
	}
	if c.tr != nil {
		wid := c.tr.Begin(r.tc.t.Track(), trace.ClassReqWait, "wait:"+r.req.name, r.req.bytes)
		c.tr.Link(wid, r.req.group)
		r.req.done.WaitT(r.tc.t, func() {
			c.tr.End(wid)
			fin()
		})
		return
	}
	r.req.done.WaitT(r.tc.t, fin)
}

// Test polls the request after yielding once; see Request.Test. The
// continuation reports whether the operation has completed (consuming the
// request if so).
func (r *TRequest) Test(k func(bool)) {
	if r.tc.t == nil {
		k(r.req.Test())
		return
	}
	if r.req.consumed {
		k(true)
		return
	}
	r.tc.t.YieldThen(func() {
		if !r.req.done.Done() {
			k(false)
			return
		}
		r.req.consume()
		k(true)
	})
}

// IBarrier starts a non-blocking barrier.
func (tc *TComm) IBarrier(k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IBarrier(), tc: tc})
		return
	}
	tc.issueT("IBarrier", 0, nil, func(ht *sim.Task, fin func()) {
		tc.g.BarrierT(ht, tc.c.rank, fin)
	}, k)
}

// IBcast starts a non-blocking broadcast of buf from root; see Bcast.
func (tc *TComm) IBcast(buf []byte, root int, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IBcast(buf, root), tc: tc})
		return
	}
	tc.issueT("IBcast", int64(len(buf)), []check.Buf{check.BufOf("buf", buf)},
		func(ht *sim.Task, fin func()) { tc.g.BcastT(ht, tc.c.rank, buf, root, fin) }, k)
}

// IReduce starts a non-blocking reduction into recv at root; see Reduce.
func (tc *TComm) IReduce(send, recv []byte, dt Datatype, op Op, root int, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IReduce(send, recv, dt, op, root), tc: tc})
		return
	}
	tc.issueT("IReduce", int64(len(send)),
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)},
		func(ht *sim.Task, fin func()) { tc.g.ReduceT(ht, tc.c.rank, send, recv, dt, op, root, fin) }, k)
}

// IAllreduce starts a non-blocking allreduce; see Allreduce.
func (tc *TComm) IAllreduce(send, recv []byte, dt Datatype, op Op, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IAllreduce(send, recv, dt, op), tc: tc})
		return
	}
	tc.issueT("IAllreduce", int64(len(send)),
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)},
		func(ht *sim.Task, fin func()) { tc.g.AllreduceT(ht, tc.c.rank, send, recv, dt, op, fin) }, k)
}

// IGather starts a non-blocking gather into recv at root; see Gather.
func (tc *TComm) IGather(send, recv []byte, root int, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IGather(send, recv, root), tc: tc})
		return
	}
	tc.issueT("IGather", int64(len(send)),
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)},
		func(ht *sim.Task, fin func()) { tc.g.GatherT(ht, tc.c.rank, send, recv, root, fin) }, k)
}

// IScatter starts a non-blocking scatter from root's send; see Scatter.
func (tc *TComm) IScatter(send, recv []byte, root int, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IScatter(send, recv, root), tc: tc})
		return
	}
	tc.issueT("IScatter", int64(len(recv)),
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)},
		func(ht *sim.Task, fin func()) { tc.g.ScatterT(ht, tc.c.rank, send, recv, root, fin) }, k)
}

// IAllgather starts a non-blocking allgather; see Allgather.
func (tc *TComm) IAllgather(send, recv []byte, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IAllgather(send, recv), tc: tc})
		return
	}
	tc.issueT("IAllgather", int64(len(send)),
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)},
		func(ht *sim.Task, fin func()) { tc.g.AllgatherT(ht, tc.c.rank, send, recv, fin) }, k)
}

// IAlltoall starts a non-blocking all-to-all exchange; see Alltoall.
func (tc *TComm) IAlltoall(send, recv []byte, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IAlltoall(send, recv), tc: tc})
		return
	}
	tc.issueT("IAlltoall", int64(len(send)),
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)},
		func(ht *sim.Task, fin func()) { tc.g.AlltoallT(ht, tc.c.rank, send, recv, fin) }, k)
}

// IReduceScatter starts a non-blocking reduce-scatter; see ReduceScatter.
func (tc *TComm) IReduceScatter(send, recv []byte, dt Datatype, op Op, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IReduceScatter(send, recv, dt, op), tc: tc})
		return
	}
	tc.issueT("IReduceScatter", int64(len(send)),
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)},
		func(ht *sim.Task, fin func()) { tc.g.ReduceScatterT(ht, tc.c.rank, send, recv, dt, op, fin) }, k)
}

// IScan starts a non-blocking inclusive prefix reduction; see Scan.
func (tc *TComm) IScan(send, recv []byte, dt Datatype, op Op, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IScan(send, recv, dt, op), tc: tc})
		return
	}
	tc.issueT("IScan", int64(len(send)),
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)},
		func(ht *sim.Task, fin func()) { tc.g.ScanT(ht, tc.c.rank, send, recv, dt, op, fin) }, k)
}

// IExscan starts a non-blocking exclusive prefix reduction; see Exscan.
func (tc *TComm) IExscan(send, recv []byte, dt Datatype, op Op, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IExscan(send, recv, dt, op), tc: tc})
		return
	}
	tc.issueT("IExscan", int64(len(send)),
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)},
		func(ht *sim.Task, fin func()) { tc.g.ExscanT(ht, tc.c.rank, send, recv, dt, op, fin) }, k)
}
