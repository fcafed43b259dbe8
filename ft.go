package srmcoll

// Fault-tolerant collectives (ULFM-style). When a cluster enables fault
// tolerance, a heartbeat failure detector watches every rank: a crashed
// task stops acknowledging its heartbeats and is *declared failed* one
// suspicion timeout after the first missed beat. Declaration is a global,
// deterministic event in virtual time that
//
//   - marks the rank's RMA endpoint dead, so in-flight and future puts
//     targeting it are dropped (and reliable-mode retransmit loops cut);
//   - kills the rank's request-helper processes (the service thread dies
//     with its task);
//   - interrupts every surviving rank blocked inside a collective that
//     includes the failed rank, unwinding the protocol into a structured
//     *RankFailedError instead of a hang;
//   - re-checks pending Agree/Shrink rendezvous, which complete over the
//     survivors.
//
// Survivors repair the communicator with Comm.Shrink (rebuild over the
// survivors) and agree on application state with Comm.Agree (fault-
// tolerant agreement: bitwise AND over the survivors' contributions).
// Both are rendezvous operations: every surviving member of the
// communicator must call the same sequence of FT operations on it, and a
// rank is released only once all survivors arrived (ranks declared failed
// mid-rendezvous are excluded, so the rendezvous itself never hangs on a
// crash). The whole recovery path is deterministic: same seed, same plan,
// same declarations, bit-identical replay.
//
// One runtime serves both engines. Detection, declaration, failure
// classification and the Agree/Shrink rendezvous are engine-agnostic; the
// rendezvous runs in continuation-passing form on a *sim.Task, which a
// goroutine rank reaches through sim.Proc.Await. Only the op runner is per
// engine, because only it touches how a blocked operation unwinds: a Proc
// is unwound by Env.Interrupt raising a panic through its goroutine stack
// (ftRun recovers it), a Task by Env.InterruptTask running its OnInterrupt
// handler (ftRunT). Both deliver the same *RankFailedError at the same
// virtual time.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// FTConfig enables and tunes the fault-tolerance subsystem. Times are
// simulated microseconds.
type FTConfig struct {
	// Enabled turns fault tolerance on: collectives return structured
	// errors instead of hanging when a member rank crashes, and Agree /
	// Shrink become available. Off (the default), crashed runs report
	// the crash itself and every timing stays bit-identical to a cluster
	// that never heard of fault tolerance.
	Enabled bool

	// HeartbeatPeriod is the interval between heartbeats (default 50).
	// A crash is noticed at the first beat after it happens.
	HeartbeatPeriod float64

	// SuspicionTimeout is how long after a missed beat the rank is
	// declared failed (default 100). Declaration time for a crash at time
	// t is floor(t/period)*period + period + timeout: the beat at or
	// before the death went out, the next one is missed.
	SuspicionTimeout float64
}

// DefaultFTConfig returns an enabled config with the default detector
// timing (heartbeat every 50 us, declared failed 100 us after a missed
// beat).
func DefaultFTConfig() FTConfig {
	return FTConfig{Enabled: true, HeartbeatPeriod: 50, SuspicionTimeout: 100}
}

// SetFaultTolerance installs the fault-tolerance configuration for
// subsequent runs. Zero HeartbeatPeriod / SuspicionTimeout fall back to
// the defaults (50 / 100).
func (cl *Cluster) SetFaultTolerance(cfg FTConfig) { cl.ft = cfg }

// FaultTolerance returns the cluster's current fault-tolerance config.
func (cl *Cluster) FaultTolerance() FTConfig { return cl.ft }

// RankFailedError is returned by a collective (or carried by a *Request)
// when a member of the communicator has been declared failed: the
// operation cannot complete and the communicator needs repair (Shrink)
// before further collectives on it can succeed.
type RankFailedError struct {
	Op     string // the operation that observed the failure, e.g. "allreduce"
	Rank   int    // the calling rank that got the error
	Failed []int  // communicator members declared failed, ascending member order
}

func (e *RankFailedError) Error() string {
	return fmt.Sprintf("srmcoll: %s on rank %d: rank(s) %v declared failed; shrink the communicator to continue",
		e.Op, e.Rank, e.Failed)
}

// ErrRankFailed is the sentinel matched by errors.Is for every
// *RankFailedError.
var ErrRankFailed = errors.New("rank declared failed")

func (e *RankFailedError) Unwrap() error { return ErrRankFailed }

// FailureRecord reports one declared rank failure of a run.
type FailureRecord struct {
	Rank       int     // global rank that crashed
	CrashedAt  float64 // virtual time the task died
	DeclaredAt float64 // virtual time the detector declared it failed
}

// RepairRecord reports one completed Agree/Shrink rendezvous.
type RepairRecord struct {
	Kind        string  // "agree" or "shrink"
	Comm        string  // communicator key ("world" or the member list)
	StartedAt   float64 // first survivor entered
	CompletedAt float64 // rendezvous completed (last survivor entered or last straggler declared)
	Survivors   []int   // members that completed the rendezvous, ascending member order
}

// ftInterrupt is the panic payload delivered to a rank blocked inside a
// collective when a member of its communicator is declared failed; the
// ftRun recover (ftRunT's OnInterrupt handler on the Task engine) turns it
// into a *RankFailedError.
type ftInterrupt struct{ failed []int }

// ftReg is one in-progress fault-sensitive operation: the process running
// it (the rank itself, or a request helper) and the communicator it runs
// on. Registered operations are interrupted when a member is declared.
type ftReg struct {
	p      proc
	c      *Comm
	active bool
}

// ftGather is one pending Agree/Shrink rendezvous: per-member entry flags
// and the completion event survivors park on.
type ftGather struct {
	key       string // comm key + "#" + round
	kind      string // "agree" or "shrink"
	members   []int  // global ranks, in member order
	entered   map[int]uint64
	ev        *sim.Event
	done      bool
	startedAt float64
	result    uint64
	survivors []int
}

// ftState is the per-Run fault-tolerance bookkeeping, shared by every Comm
// of the run. All mutation happens on the single simulator thread.
type ftState struct {
	env *sim.Env
	det *sim.Detector
	rs  *runState
	cfg FTConfig

	markDead func(rank int) // cuts RMA delivery to the rank

	failed     []bool // declared failed, by global rank
	crashed    []bool // actually dead (declaration may be pending)
	inflight   []*ftReg
	gathers    map[string]*ftGather
	rounds     map[string]map[int]int // comm key -> rank -> FT ops entered
	failures   []FailureRecord
	repairs    []RepairRecord
	unexpected []sim.ProcFailure // failures that are not plan crashes or their fallout
}

func newFTState(env *sim.Env, markDead func(int), n int, rs *runState, cfg FTConfig) *ftState {
	if cfg.HeartbeatPeriod <= 0 {
		cfg.HeartbeatPeriod = 50
	}
	if cfg.SuspicionTimeout <= 0 {
		cfg.SuspicionTimeout = 100
	}
	ft := &ftState{
		env:      env,
		rs:       rs,
		cfg:      cfg,
		markDead: markDead,
		failed:   make([]bool, n),
		crashed:  make([]bool, n),
		gathers:  make(map[string]*ftGather),
		rounds:   make(map[string]map[int]int),
	}
	ft.det = sim.NewDetector(env, cfg.HeartbeatPeriod, cfg.SuspicionTimeout)
	ft.det.OnDeclare = ft.declare
	return ft
}

// rankOf resolves a rank process to its rank, -1 for helpers.
func (ft *ftState) rankOf(p proc) int {
	for r, rp := range ft.rs.ranks {
		if rp == p {
			return r
		}
	}
	return -1
}

// onFailure is the failure hook of both engines (Env.OnFailure and
// Env.OnTaskFailure): classify each process death as an expected plan crash
// (start detection, take the rank's service helpers down with it), the
// fallout of one (a helper killed with its rank), or an unexpected failure
// (a real bug — surfaced as a *RunError). It runs before the failing
// process yields, so it may schedule events but must not park.
func (ft *ftState) onFailure(p proc, f sim.ProcFailure) {
	if _, isCrash := f.Cause.(sim.Crashed); isCrash {
		if r := ft.rankOf(p); r >= 0 {
			ft.crashed[r] = true
			// The rank's communication service thread dies with the task:
			// kill its request helpers so they cannot keep driving the
			// dead rank's side of a protocol.
			for _, h := range ft.rs.helpers[r] {
				ft.rs.eng.kill(ft.env, h, fmt.Sprintf("rank %d crashed", r))
			}
			ft.det.NotifyDeath(r, f.Time)
			return
		}
		if r, ok := ft.rs.helperRank[p.Name()]; ok && ft.crashed[r] {
			return // a helper killed above: fallout, not a new failure
		}
	}
	ft.unexpected = append(ft.unexpected, f)
}

// declare marks rank d failed at the current virtual time and propagates:
// endpoint death, interrupts into blocked collectives, rendezvous
// re-checks. Deterministic: runs as a scheduled simulator event.
func (ft *ftState) declare(d int, diedAt float64) {
	if ft.failed[d] {
		return
	}
	ft.failed[d] = true
	now := float64(ft.env.Now())
	ft.failures = append(ft.failures, FailureRecord{Rank: d, CrashedAt: diedAt, DeclaredAt: now})
	ft.markDead(d)
	if tr := ft.env.Trace; tr != nil {
		g := tr.NewGroup()
		tr.Add(g, -1, trace.ClassDetect, fmt.Sprintf("detect:rank%d", d), 0, diedAt, now)
	}
	// Interrupt every registered operation whose communicator contains the
	// failed rank. Registration order is deterministic, so so is this.
	for _, reg := range ft.inflight {
		if !reg.active || !reg.c.hasMember(d) {
			continue
		}
		ft.rs.eng.interrupt(ft.env, reg.p, ftInterrupt{failed: ft.failedIn(reg.c.memberList())})
	}
	// Pending rendezvous may now be complete (the failed rank was the
	// straggler). Sorted key order keeps the replay bit-identical.
	keys := make([]string, 0, len(ft.gathers))
	for k := range ft.gathers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ft.checkGather(ft.gathers[k])
	}
}

// failedIn returns the declared-failed ranks of a member list (nil =
// world), in member order.
func (ft *ftState) failedIn(members []int) []int {
	var out []int
	if members == nil {
		for r, f := range ft.failed {
			if f {
				out = append(out, r)
			}
		}
		return out
	}
	for _, r := range members {
		if ft.failed[r] {
			out = append(out, r)
		}
	}
	return out
}

// register adds an in-progress operation, run by p, to the interrupt set.
func (ft *ftState) register(p proc, c *Comm) *ftReg {
	reg := &ftReg{p: p, c: c, active: true}
	ft.inflight = append(ft.inflight, reg)
	return reg
}

// deregister removes a finished operation. The slice stays compact: the
// common case removes near the end.
func (ft *ftState) deregister(reg *ftReg) {
	reg.active = false
	for i := len(ft.inflight) - 1; i >= 0; i-- {
		if ft.inflight[i] == reg {
			ft.inflight = append(ft.inflight[:i], ft.inflight[i+1:]...)
			return
		}
	}
}

// checkGather completes a rendezvous once every member has either entered
// or been declared failed.
func (ft *ftState) checkGather(g *ftGather) {
	if g.done {
		return
	}
	for _, r := range g.members {
		if _, in := g.entered[r]; !in && !ft.failed[r] {
			return
		}
	}
	g.done = true
	g.result = ^uint64(0)
	for _, r := range g.members {
		if ft.failed[r] {
			continue
		}
		g.survivors = append(g.survivors, r)
		g.result &= g.entered[r]
	}
	ft.repairs = append(ft.repairs, RepairRecord{
		Kind: g.kind, Comm: g.key, StartedAt: g.startedAt,
		CompletedAt: float64(ft.env.Now()),
		Survivors:   append([]int(nil), g.survivors...),
	})
	delete(ft.gathers, g.key)
	g.ev.Trigger()
}

// ftRun executes a fault-sensitive operation on behalf of proc p (the rank
// itself for blocking calls, a request helper for non-blocking ones). It
// registers the operation for failure interrupts, re-checks membership
// after registering (closing the window against a declaration landing
// between an earlier check and the park), and recovers the interrupt
// unwind into a *RankFailedError.
func (c *Comm) ftRun(opName string, p *sim.Proc, fn func()) (err error) {
	ft := c.rs.ft
	if ft == nil {
		fn()
		return nil
	}
	reg := ft.register(p, c)
	defer ft.deregister(reg)
	if fr := ft.failedIn(c.memberList()); len(fr) > 0 {
		return &RankFailedError{Op: opName, Rank: c.rank, Failed: fr}
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		fi, ok := r.(ftInterrupt)
		if !ok {
			panic(r)
		}
		// The unwind may have skipped an interrupt re-enable inside the
		// protocol (the barrier manages interrupts inline); restoring is
		// idempotent when nothing was pending.
		c.dom.Endpoint(c.rank).SetInterrupts(true)
		err = &RankFailedError{Op: opName, Rank: c.rank, Failed: fi.failed}
	}()
	fn()
	return nil
}

// ftRunT is ftRun for task t (the rank itself for blocking calls, a request
// helper for non-blocking ones), in continuation-passing form. fn receives
// the completion continuation it must call when the operation finishes; k
// receives nil on success or the *RankFailedError when a member
// declaration interrupts the operation or is already known at entry. A
// Task has no stack to unwind: declaration delivers Env.InterruptTask, and
// the OnInterrupt handler armed here runs the task's unwind stack in place
// of the Proc's deferred restores.
func (c *Comm) ftRunT(opName string, t *sim.Task, fn func(fin func()), k func(error)) {
	ft := c.rs.ft
	if ft == nil {
		fn(func() { k(nil) })
		return
	}
	// Register before the membership check, exactly like ftRun: a
	// declaration landing between the check and the operation's first park
	// must find the registration.
	reg := ft.register(t, c)
	if fr := ft.failedIn(c.memberList()); len(fr) > 0 {
		ft.deregister(reg)
		k(&RankFailedError{Op: opName, Rank: c.rank, Failed: fr})
		return
	}
	prevH := t.OnInterrupt
	prevArmed := t.UnwindArmed()
	t.SetUnwindArmed(true)
	restore := func() {
		t.OnInterrupt = prevH
		t.SetUnwindArmed(prevArmed)
		ft.deregister(reg)
	}
	t.OnInterrupt = func(payload any) {
		fi, ok := payload.(ftInterrupt)
		if !ok {
			// Not a failure declaration: die with the payload, as a Proc
			// re-panics from ftRun's recover (the armed unwinds run in
			// failTask, like the Proc's defers).
			panic(payload)
		}
		t.RunUnwinds()
		restore()
		// The unwind may have skipped an interrupt re-enable inside the
		// protocol; restoring is idempotent when nothing was pending.
		c.dom.Endpoint(c.rank).SetInterrupts(true)
		k(&RankFailedError{Op: opName, Rank: c.rank, Failed: fi.failed})
	}
	fn(func() {
		restore()
		k(nil)
	})
}

// ftKey names this communicator's rendezvous stream: the member list, or
// "world".
func (c *Comm) ftKey() string {
	if c.members == nil {
		return "world"
	}
	return fmt.Sprint(c.members)
}

// memberList returns the communicator's global ranks (nil = world).
func (c *Comm) memberList() []int { return c.members }

// hasMember reports whether global rank r belongs to this communicator.
func (c *Comm) hasMember(r int) bool {
	if c.members == nil {
		return true
	}
	for _, m := range c.members {
		if m == r {
			return true
		}
	}
	return false
}

// Members returns the communicator's global ranks in member order.
func (c *Comm) Members() []int {
	if c.members == nil {
		out := make([]int, c.size)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return append([]int(nil), c.members...)
}

// FailedRanks returns the communicator members declared failed so far, in
// member order. Empty without fault tolerance.
func (c *Comm) FailedRanks() []int {
	if c.rs.ft == nil {
		return nil
	}
	return c.rs.ft.failedIn(c.memberList())
}

// ftSync runs one rendezvous round on the communicator, on t (the rank's
// task, or its Proc's hosted task): every surviving member must call it
// (in the same per-communicator FT-op order), and all are released
// together once the last survivor arrives. The round is charged a
// dissemination-style cost of 2*ceil(log2 n) message latencies. The
// bookkeeping runs synchronously; only the survivor park and the cost
// sleep suspend t.
func (c *Comm) ftSync(t *sim.Task, kind string, flag uint64, k func(*ftGather, error)) {
	ft := c.rs.ft
	if ft == nil {
		k(nil, errors.New("srmcoll: "+kind+" requires fault tolerance (Cluster.SetFaultTolerance)"))
		return
	}
	if ft.failed[c.rank] {
		// A declared rank that is somehow still running (cannot happen
		// for real crashes) must not join the survivors' rendezvous.
		k(nil, &RankFailedError{Op: kind, Rank: c.rank, Failed: []int{c.rank}})
		return
	}
	c.quiesceT(t, func() {
		key := c.ftKey()
		byRank := ft.rounds[key]
		if byRank == nil {
			byRank = make(map[int]int)
			ft.rounds[key] = byRank
		}
		round := byRank[c.rank]
		byRank[c.rank] = round + 1
		gkey := key + "#" + strconv.Itoa(round)
		g := ft.gathers[gkey]
		if g == nil {
			g = &ftGather{
				key: gkey, kind: kind, members: c.Members(),
				entered:   make(map[int]uint64),
				ev:        ft.env.NewEvent().Named(kind + " " + gkey),
				startedAt: float64(ft.env.Now()),
			}
			ft.gathers[gkey] = g
		}
		if g.kind != kind {
			panic(fmt.Sprintf("srmcoll: rank %d entered %s on %s but other members are in %s: FT operations must be called in the same order on every member",
				c.rank, kind, key, g.kind))
		}
		g.entered[c.rank] = flag
		ft.checkGather(g)
		var cls trace.Class
		if kind == "agree" {
			cls = trace.ClassAgree
		} else {
			cls = trace.ClassShrink
		}
		id := c.tr.Begin(t.Track(), cls, kind, 0)
		fin := func() {
			t.SleepThen(c.ftSyncCost(len(g.members)), func() {
				c.tr.End(id)
				k(g, nil)
			})
		}
		if !g.done {
			g.ev.WaitT(t, fin)
			return
		}
		fin()
	})
}

// ftSyncP runs ftSync for a goroutine rank, on its hosted task.
func (c *Comm) ftSyncP(kind string, flag uint64) (g *ftGather, err error) {
	c.p.Await(func(t *sim.Task, k func()) {
		c.ftSync(t, kind, flag, func(gg *ftGather, e error) {
			g, err = gg, e
			k()
		})
	})
	return g, err
}

// ftSyncCost models the agreement protocol's latency: dissemination over
// the members, two passes (propose, commit).
func (c *Comm) ftSyncCost(n int) float64 {
	if n <= 1 {
		return 0
	}
	rounds := int(math.Ceil(math.Log2(float64(n))))
	cfg := c.m.Cfg
	return 2 * float64(rounds) * float64(cfg.SendOverhead+cfg.NetLatency+cfg.RecvOverhead)
}

// Agree is fault-tolerant agreement on a 64-bit flag word: it returns the
// bitwise AND of the flags contributed by every member that completed the
// rendezvous (members declared failed mid-agreement are excluded). All
// survivors receive the same result, even when some observe a failure and
// others do not — the tool for deciding, after an error, how far the
// computation verifiably got. Every surviving member of the communicator
// must call it (the call blocks until they do); unlike a collective it
// does not error on membership failures.
func (c *Comm) Agree(flags uint64) (uint64, error) {
	g, err := c.ftSyncP("agree", flags)
	if err != nil {
		return 0, err
	}
	return g.result, nil
}

// Shrink repairs the communicator after a failure: it synchronizes the
// surviving members and returns a new communicator over exactly the ranks
// that completed the rendezvous, with rank maps and collective trees
// rebuilt. Every surviving member must call it and receives the same
// member list. The calling rank keeps its global rank; Size() shrinks.
// Collectives on the new communicator succeed as long as no *further*
// failure hits it — another crash means another Shrink.
func (c *Comm) Shrink() (*Comm, error) {
	g, err := c.ftSyncP("shrink", 0)
	if err != nil {
		return nil, err
	}
	return c.Sub(g.survivors), nil
}

// Agree is fault-tolerant agreement on a 64-bit flag word; see Comm.Agree.
func (tc *TComm) Agree(flags uint64, k func(uint64, error)) {
	done := func(g *ftGather, err error) {
		if err != nil {
			k(0, err)
			return
		}
		k(g.result, nil)
	}
	if tc.t == nil {
		done(tc.c.ftSyncP("agree", flags))
		return
	}
	tc.c.ftSync(tc.t, "agree", flags, done)
}

// Shrink repairs the communicator after a failure; see Comm.Shrink. The
// continuation receives the repaired communicator over the survivors.
func (tc *TComm) Shrink(k func(*TComm, error)) {
	done := func(g *ftGather, err error) {
		if err != nil {
			k(nil, err)
			return
		}
		k(tc.Sub(g.survivors), nil)
	}
	if tc.t == nil {
		done(tc.c.ftSyncP("shrink", 0))
		return
	}
	tc.c.ftSync(tc.t, "shrink", 0, done)
}
