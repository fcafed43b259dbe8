package core

import (
	"fmt"
	"sort"
	"strings"

	"srmcoll/internal/machine"
	"srmcoll/internal/tree"
)

// layout describes the tasks participating in a collective: which global
// ranks take part and how they sit on the SMP nodes. The whole-world
// layout is the paper's setting; arbitrary subsets implement the §5
// extension ("embedding spanning trees for arbitrary MPI task groups").
type layout struct {
	members []int       // global ranks in group order (group rank = index)
	nodes   []int       // participating machine node ids, ascending
	local   [][]int     // per participating node: its member ranks, group order
	ni      map[int]int // global rank -> index into nodes
	li      map[int]int // global rank -> index into local[ni]
	spans   []int       // hierarchy group widths (machine.Config.TierSpans)
}

// newLayout validates members and builds the node-grouped layout.
func newLayout(m *machine.Machine, members []int) layout {
	if len(members) == 0 {
		panic("core: empty task group")
	}
	lay := layout{
		members: append([]int(nil), members...),
		ni:      make(map[int]int, len(members)),
		li:      make(map[int]int, len(members)),
		spans:   m.Cfg.TierSpans(),
	}
	byNode := make(map[int][]int)
	for _, r := range members {
		if r < 0 || r >= m.P() {
			panic(fmt.Sprintf("core: group rank %d out of range [0,%d)", r, m.P()))
		}
		if _, dup := lay.ni[r]; dup {
			panic(fmt.Sprintf("core: duplicate rank %d in group", r))
		}
		lay.ni[r] = -1 // reserve; filled below
		byNode[m.NodeOf(r)] = append(byNode[m.NodeOf(r)], r)
	}
	for nd := range byNode {
		lay.nodes = append(lay.nodes, nd)
	}
	sort.Ints(lay.nodes)
	lay.local = make([][]int, len(lay.nodes))
	for x, nd := range lay.nodes {
		lay.local[x] = byNode[nd]
		for l, r := range lay.local[x] {
			lay.ni[r] = x
			lay.li[r] = l
		}
	}
	return lay
}

// key returns a canonical identity for group registries.
func (lay layout) key() string {
	parts := make([]string, len(lay.members))
	for i, r := range lay.members {
		parts[i] = fmt.Sprint(r)
	}
	return strings.Join(parts, ",")
}

// contains reports whether the global rank participates.
func (lay layout) contains(rank int) bool {
	_, ok := lay.ni[rank]
	return ok
}

// gEmbed is a communication tree embedded into the participating subset of
// the cluster: an inter-node tree over participating node indices plus an
// intra-node tree over each node's members (generalizing Figure 1).
type gEmbed struct {
	inter   tree.Tree // over indices into lay.nodes
	intra   []tree.Tree
	masters []int // global master rank per node index
}

// embed builds the group embedding rooted at the given member rank.
func (lay layout) embed(interKind, intraKind tree.Kind, root int) gEmbed {
	rootNI, ok := lay.ni[root]
	if !ok {
		panic(fmt.Sprintf("core: root %d is not a group member", root))
	}
	// The inter-node tree is hierarchy-aware: node ids plus the machine's
	// tier spans let multilevel trees group participants by switch.
	e := gEmbed{
		inter:   tree.NewHier(interKind, lay.nodes, rootNI, lay.spans),
		intra:   make([]tree.Tree, len(lay.nodes)),
		masters: make([]int, len(lay.nodes)),
	}
	for x := range lay.nodes {
		rootLocal := 0
		if x == rootNI {
			rootLocal = lay.li[root]
		}
		e.intra[x] = tree.New(intraKind, len(lay.local[x]), rootLocal)
		e.masters[x] = lay.local[x][rootLocal]
	}
	return e
}

// Group is a task subset with its own collective-operation stream. Obtain
// one from SRM.Group; the same member list always yields the same Group,
// so SPMD callers share operation state. Every member must make the same
// sequence of calls on the group.
type Group struct {
	s   *SRM
	lay layout
	seq map[int]int
	ops map[int]*opEntry
}

// Group returns the (shared, cached) group for the given member ranks.
// Order matters: it defines group ranks and the default masters.
func (s *SRM) Group(members []int) *Group {
	lay := newLayout(s.m, members)
	key := lay.key()
	if g, ok := s.groups[key]; ok {
		return g
	}
	g := &Group{
		s:   s,
		lay: lay,
		seq: make(map[int]int, len(members)),
		ops: make(map[int]*opEntry),
	}
	s.groups[key] = g
	return g
}

// Size returns the number of member tasks.
func (g *Group) Size() int { return len(g.lay.members) }

// Members returns the member ranks in group order.
func (g *Group) Members() []int { return append([]int(nil), g.lay.members...) }

// Contains reports whether the global rank is a member.
func (g *Group) Contains(rank int) bool { return g.lay.contains(rank) }

// acquire returns the entry of the caller's next operation on the group's
// stream, building its state with mk on first arrival. The caller hands the
// entry to opDone, which retires it for this member.
func (g *Group) acquire(rank int, mk func(sc *scratch) any) *opEntry {
	if !g.lay.contains(rank) {
		panic(fmt.Sprintf("core: rank %d is not a member of the group", rank))
	}
	seq := g.seq[rank]
	g.seq[rank] = seq + 1
	e := g.ops[seq]
	if e == nil {
		e = &opEntry{scratch: scratch{pool: g.s.m.Buffers}, g: g, seq: seq}
		e.abort = e.unwind
		e.state = mk(&e.scratch)
		g.ops[seq] = e
	}
	return e
}

// Sub returns the group over a subset of this group's members (groups are
// global by member list, so nesting just resolves through the registry).
func (g *Group) Sub(members []int) *Group {
	for _, r := range members {
		if !g.lay.contains(r) {
			panic(fmt.Sprintf("core: rank %d is not a member of the parent group", r))
		}
	}
	return g.s.Group(members)
}
