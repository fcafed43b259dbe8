// Package core implements the paper's contribution: SRM
// (Shared-Remote-Memory) collective operations — barrier, broadcast,
// reduce and allreduce — built directly on shared memory inside each SMP
// node and one-sided RMA (put) between nodes, instead of on point-to-point
// message passing.
//
// The structure follows §2 of the paper:
//
//   - communication trees are embedded into the cluster so that intra-node
//     edges use shared memory and only one master task per node touches the
//     network (internal/tree);
//   - the SMP broadcast uses a flat algorithm with two shared buffers and
//     per-task READY flags (Figure 3); the SMP reduce uses a binomial tree
//     where only the lowest level copies data (Figure 2); the SMP barrier
//     uses one flag per task and a master that resets them;
//   - between nodes, broadcast uses put into two per-node shared buffers
//     with counter-based flow control for small messages and address
//     exchange plus direct puts into user buffers for large ones
//     (Figure 4); reduce pipelines chunks up the tree; allreduce uses
//     recursive-doubling pairwise exchange up to 16 KB and a four-stage
//     chunk pipeline above (Figure 5); barrier uses dissemination-style
//     pairwise puts;
//   - interrupts are disabled during small-message operations and
//     re-enabled on completion (§2.3).
//
// Every operation moves real bytes; tests verify results against
// sequential references.
package core

import (
	"fmt"

	"srmcoll/internal/bufpool"
	"srmcoll/internal/machine"
	"srmcoll/internal/rma"
	"srmcoll/internal/trace"
	"srmcoll/internal/tree"
)

// smallMsgInterruptLimit is the size at or below which masters turn
// interrupts off for the duration of the operation (§2.3).
const smallMsgInterruptLimit = 4096

// Options selects algorithm variants; the zero value is the paper's
// configuration. The ablation benches flip individual fields.
type Options struct {
	InterTree   tree.Kind // tree between node masters (default Binomial, §2.1)
	IntraTree   tree.Kind // tree for the SMP reduce (default Binomial)
	TreeSMPBcst bool      // use a tree-based SMP broadcast instead of the
	// flat two-buffer algorithm (the variant §2.2 found inferior)
	BarrierSMPBcst bool // arbitrate shared buffers with SMP barriers, the
	// Sistare-style design §4 contrasts with (more sensitive to late arrivals)
	KeepInterrupts bool // never disable interrupts for small messages (§2.3 off)

	// TreeFor, when set, resolves the inter-node tree kind per operation
	// ("bcast", "reduce", "allreduce") and message size, overriding
	// InterTree. The autotuner's decision table installs a resolver here;
	// nil keeps the static InterTree for every operation.
	TreeFor func(op string, size int) tree.Kind

	// AllreduceAlg selects the allreduce algorithm family (default AlgAuto,
	// the paper's size-switched recursive-doubling / chunk-pipeline pair).
	AllreduceAlg Alg
	// AlgFor, when set, resolves the allreduce algorithm per message size;
	// a non-Auto return overrides AllreduceAlg. The autotuner's decision
	// table installs a resolver here.
	AlgFor func(size int) Alg
}

// interKind resolves the inter-node tree kind for one operation instance.
func (s *SRM) interKind(op string, size int) tree.Kind {
	if s.opt.TreeFor != nil {
		return s.opt.TreeFor(op, size)
	}
	return s.opt.InterTree
}

// Alg selects the allreduce algorithm family between node masters. The SMP
// stages (Figure-2 reduce in, Figure-3 broadcast out) are shared by every
// family; Alg only changes the inter-node exchange.
type Alg int

const (
	// AlgAuto is the paper's configuration: recursive doubling up to
	// SRMAllreduceRD bytes, the four-stage chunk pipeline above.
	AlgAuto Alg = iota
	// AlgRing is the bandwidth-optimal ring: a reduce-scatter pass followed
	// by an allgather pass, each node sending to its right neighbour.
	AlgRing
	// AlgRHD is Rabenseifner's recursive halving/doubling: halve the vector
	// while reduce-scattering across power-of-two masters, then double back
	// up in an allgather; non-power-of-two counts fold extras in and out.
	AlgRHD
	// AlgDualRoot is Träff's doubly-pipelined dual-root scheme: chunks
	// alternate between two trees rooted at different nodes so both the
	// reduce and broadcast pipelines stay busy in both directions.
	AlgDualRoot
)

// String returns the tuner/Variant spelling of the algorithm.
func (a Alg) String() string {
	switch a {
	case AlgAuto:
		return "auto"
	case AlgRing:
		return "ring"
	case AlgRHD:
		return "rhd"
	case AlgDualRoot:
		return "dualroot"
	}
	return fmt.Sprintf("Alg(%d)", int(a))
}

// ParseAlg parses the spelling String produces.
func ParseAlg(s string) (Alg, error) {
	switch s {
	case "auto", "":
		return AlgAuto, nil
	case "ring":
		return AlgRing, nil
	case "rhd":
		return AlgRHD, nil
	case "dualroot":
		return AlgDualRoot, nil
	}
	return AlgAuto, fmt.Errorf("core: unknown allreduce algorithm %q", s)
}

// allreduceAlg resolves the algorithm for one allreduce instance. The
// resolver is a pure function of the message size, so every rank of a group
// picks the same family for the same call.
func (s *SRM) allreduceAlg(size int) Alg {
	if s.opt.AlgFor != nil {
		if a := s.opt.AlgFor(size); a != AlgAuto {
			return a
		}
	}
	return s.opt.AllreduceAlg
}

// SRM is the collective-operations engine for one machine. All tasks share
// one SRM instance and call its methods SPMD-style from their simulated
// processes; every task must make the same sequence of collective calls.
// Methods on SRM operate over all ranks; SRM.Group carves out arbitrary
// task subsets (§5).
type SRM struct {
	m      *machine.Machine
	dom    *rma.Domain
	opt    Options
	groups map[string]*Group
	world  *Group
}

// opEntry is one operation instance of a group's stream: the state every
// member shares, and the scratch buffers that state draws from the pool.
type opEntry struct {
	scratch
	g       *Group
	seq     int
	state   any
	done    int
	unwound bool   // some member left through its unwind stack
	abort   func() // e.unwind, bound once per entry for the unwind stack
}

// scratchPoolMin is the smallest scratch buffer drawn from the machine's
// pool. Smaller ones are plain allocations: pooled, they stay live between
// operations, which at thousands of ranks of tiny messages raised the peak
// heap more than it saved in allocation.
const scratchPoolMin = 4096

// scratch owns the per-operation buffers of one operation's state: shared
// staging, slot and partial-sum buffers that one-sided puts and shared
// memory copies write into. Buffers come back to the pool only when the
// operation retires cleanly (see opEntry.leave).
type scratch struct {
	pool *bufpool.Pool
	bufs [][]byte
}

// buf returns an n-byte scratch buffer. Pooled contents are unspecified:
// every reader must read only bytes this operation wrote first.
func (sc *scratch) buf(n int) []byte {
	if n < scratchPoolMin {
		return make([]byte, n)
	}
	b := sc.pool.Get(n)
	sc.bufs = append(sc.bufs, b)
	return b
}

// unwind retires a member that left through its unwind stack (killed or
// interrupted). Its puts may still be in flight, so the entry's scratch is
// never recycled.
func (e *opEntry) unwind() {
	e.unwound = true
	e.leave()
}

// leave counts one member out of the operation; opDone calls it when the
// member completes normally. The last member out retires the entry. Its
// scratch goes back to the pool only if every member completed normally
// and no write can still land in it: every put into scratch has its
// arrival awaited by some member before that member completes, and
// delivery is exactly once when the domain is reliable (duplicates are
// dropped before the copy) or no faults are injected.
func (e *opEntry) leave() {
	e.done++
	if e.done < len(e.g.lay.members) {
		return
	}
	delete(e.g.ops, e.seq)
	s := e.g.s
	if !e.unwound && (s.dom.Reliable() || s.m.Faults == nil) {
		for _, b := range e.bufs {
			e.pool.Put(b)
		}
	}
}

// New creates the engine. The domain must belong to the machine.
func New(m *machine.Machine, dom *rma.Domain, opt Options) *SRM {
	return &SRM{
		m:      m,
		dom:    dom,
		opt:    opt,
		groups: make(map[string]*Group),
	}
}

// Machine returns the underlying machine.
func (s *SRM) Machine() *machine.Machine { return s.m }

// World returns the group of all ranks.
func (s *SRM) World() *Group {
	if s.world == nil {
		all := make([]int, s.m.P())
		for i := range all {
			all[i] = i
		}
		s.world = s.Group(all)
	}
	return s.world
}

// span is one pipeline chunk of a message.
type span struct{ off, n int }

// chunks splits total bytes into pipeline chunks of at most chunk bytes.
// A zero-byte message still yields one empty chunk so control flow (flags,
// counters) runs once.
func chunks(total, chunk int) []span {
	if chunk < 1 {
		panic(fmt.Sprintf("core: chunk size %d", chunk))
	}
	if total == 0 {
		return []span{{0, 0}}
	}
	out := make([]span, 0, (total+chunk-1)/chunk)
	for off := 0; off < total; off += chunk {
		n := chunk
		if total-off < n {
			n = total - off
		}
		out = append(out, span{off, n})
	}
	return out
}

// arrivalCounters returns n zero counters that count data arrivals.
func (s *SRM) arrivalCounters(n int) []*rma.Counter {
	cs := make([]*rma.Counter, n)
	for i := range cs {
		cs[i] = s.dom.NewCounter(0).TraceClass(trace.ClassWaitArrive)
	}
	return cs
}

// quietNet turns interrupts off for small-message operations at a master
// endpoint and returns the function that re-enables them (§2.3), which the
// caller runs in the operation's final continuation.
func (s *SRM) quietNet(ep *rma.Endpoint, size int) func() {
	if s.opt.KeepInterrupts || size > smallMsgInterruptLimit {
		return func() {}
	}
	ep.SetInterrupts(false)
	return func() { ep.SetInterrupts(true) }
}
