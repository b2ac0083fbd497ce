// Package cfg builds control-flow graphs over assembled programs and
// derives the reconvergence information both execution models need:
//
//   - For the baseline stack model, every conditional branch is annotated
//     with its reconvergence PC (the start of its immediate postdominator
//     block), which the hardware stack pushes on divergence.
//   - For the thread-frontier model of Diamos et al. (used by SBI/SWI),
//     SYNC instructions are inserted at reconvergence points. Each SYNC
//     carries the divergence point PCdiv — the last instruction of the
//     immediate dominator of the reconvergence block — implementing the
//     paper's selective synchronization barrier (§3.3).
//
// The package also validates the thread-frontier code-layout property
// that every reconvergence point lies at a higher address than its
// divergence point; violations (as in the paper's TMD1 benchmark) are
// reported as warnings and the affected SYNCs are skipped.
package cfg

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/isa"
)

// Block is a basic block: instructions [Start, End) with CFG edges.
type Block struct {
	Start, End int
	Succs      []int // successor block indices; exit blocks have none
	Preds      []int
}

// Graph is the control-flow graph of a program. Block 0 is the entry.
type Graph struct {
	Prog    *isa.Program
	Blocks  []Block
	blockOf []int // pc -> block index
}

// BlockOf returns the index of the block containing pc.
func (g *Graph) BlockOf(pc int) int { return g.blockOf[pc] }

// Build constructs the CFG of p.
func Build(p *isa.Program) (*Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(p.Code)

	// Leaders: entry, branch targets, instructions following branches and
	// exits.
	leader := make([]bool, n)
	leader[0] = true
	for pc := 0; pc < n; pc++ {
		ins := &p.Code[pc]
		switch ins.Op {
		case isa.OpBra:
			if ins.Target < n {
				leader[ins.Target] = true
			}
			if pc+1 < n {
				leader[pc+1] = true
			}
		case isa.OpExit:
			if pc+1 < n {
				leader[pc+1] = true
			}
		}
	}

	g := &Graph{Prog: p, blockOf: make([]int, n)}
	start := 0
	for pc := 1; pc <= n; pc++ {
		if pc == n || leader[pc] {
			g.Blocks = append(g.Blocks, Block{Start: start, End: pc})
			start = pc
		}
	}
	for bi := range g.Blocks {
		for pc := g.Blocks[bi].Start; pc < g.Blocks[bi].End; pc++ {
			g.blockOf[pc] = bi
		}
	}

	// Edges.
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		last := &p.Code[b.End-1]
		switch {
		case last.Op == isa.OpExit:
			// no successors
		case last.Op == isa.OpBra && last.SrcA == isa.RegNone:
			g.addEdge(bi, g.blockOf[last.Target])
		case last.Op == isa.OpBra:
			g.addEdge(bi, g.blockOf[last.Target])
			if b.End < n {
				g.addEdge(bi, g.blockOf[b.End])
			}
		default:
			// Fallthrough. Validate guarantees the last instruction of the
			// program terminates, so b.End < n here.
			g.addEdge(bi, g.blockOf[b.End])
		}
	}
	return g, nil
}

func (g *Graph) addEdge(from, to int) {
	for _, s := range g.Blocks[from].Succs {
		if s == to {
			return
		}
	}
	g.Blocks[from].Succs = append(g.Blocks[from].Succs, to)
	g.Blocks[to].Preds = append(g.Blocks[to].Preds, from)
}

// Dominators returns the immediate dominator of each block (-1 for the
// entry block and for blocks unreachable from the entry).
func (g *Graph) Dominators() []int {
	n := len(g.Blocks)
	// dom[i] = bitset of blocks dominating i.
	dom := make([]bitset, n)
	full := newBitset(n)
	for i := 0; i < n; i++ {
		full.set(i)
	}
	for i := range dom {
		if i == 0 {
			dom[i] = newBitset(n)
			dom[i].set(0)
		} else {
			dom[i] = full.clone()
		}
	}
	order := g.reversePostOrder()
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			if b == 0 {
				continue
			}
			var acc bitset
			first := true
			for _, p := range g.Blocks[b].Preds {
				if first {
					acc = dom[p].clone()
					first = false
				} else {
					acc.intersect(dom[p])
				}
			}
			if first {
				continue // unreachable
			}
			acc.set(b)
			if !acc.equal(dom[b]) {
				dom[b] = acc
				changed = true
			}
		}
	}
	return immediateFrom(dom, 0, g.reachableFromEntry())
}

// PostDominators returns the immediate postdominator of each block.
// A virtual exit postdominates every block that can terminate; blocks
// whose only postdominator is the virtual exit get -1.
func (g *Graph) PostDominators() []int {
	n := len(g.Blocks)
	// Work on the reverse graph with a virtual exit node at index n.
	preds := make([][]int, n+1) // preds in reverse graph = succs in forward
	for i := 0; i < n; i++ {
		if len(g.Blocks[i].Succs) == 0 {
			preds[i] = append(preds[i], n)
		} else {
			preds[i] = append(preds[i], g.Blocks[i].Succs...)
		}
	}
	pdom := make([]bitset, n+1)
	full := newBitset(n + 1)
	for i := 0; i <= n; i++ {
		full.set(i)
	}
	for i := range pdom {
		if i == n {
			pdom[i] = newBitset(n + 1)
			pdom[i].set(n)
		} else {
			pdom[i] = full.clone()
		}
	}
	// Iterate to fixpoint (order: descending PC is a decent reverse
	// topological approximation; fixpoint iteration is correct anyway).
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			var acc bitset
			first := true
			for _, s := range preds[i] {
				if first {
					acc = pdom[s].clone()
					first = false
				} else {
					acc.intersect(pdom[s])
				}
			}
			if first {
				continue
			}
			acc.set(i)
			if !acc.equal(pdom[i]) {
				pdom[i] = acc
				changed = true
			}
		}
	}
	reach := make([]bool, n+1)
	for i := range reach {
		reach[i] = true
	}
	ipdom := immediateFrom(pdom, n, reach)
	res := make([]int, n)
	for i := 0; i < n; i++ {
		if ipdom[i] == n {
			res[i] = -1 // virtual exit
		} else {
			res[i] = ipdom[i]
		}
	}
	return res
}

// immediateFrom derives immediate dominators from dominator sets.
// root's idom is -1.
func immediateFrom(dom []bitset, root int, reachable []bool) []int {
	n := len(dom)
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	for b := 0; b < n; b++ {
		if b == root || !reachable[b] {
			continue
		}
		// idom(b) = the dominator d != b dominated by all other
		// dominators of b (the one with the largest dominator set).
		best, bestCount := -1, -1
		for d := 0; d < n; d++ {
			if d == b || !dom[b].has(d) {
				continue
			}
			c := dom[d].count()
			if c > bestCount {
				best, bestCount = d, c
			}
		}
		idom[b] = best
	}
	return idom
}

func (g *Graph) reachableFromEntry() []bool {
	seen := make([]bool, len(g.Blocks))
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Blocks[b].Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

func (g *Graph) reversePostOrder() []int {
	n := len(g.Blocks)
	seen := make([]bool, n)
	var post []int
	var dfs func(int)
	dfs = func(b int) {
		seen[b] = true
		for _, s := range g.Blocks[b].Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(0)
	// reverse
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// AnnotateReconvergence computes, for every conditional branch, the PC of
// its reconvergence point (start of its immediate postdominator block)
// and stores it in the instruction's RecPC field. Branches whose paths
// only rejoin at thread exit get RecPC = len(code) (the exit sentinel).
func AnnotateReconvergence(p *isa.Program) error {
	g, err := Build(p)
	if err != nil {
		return err
	}
	ipdom := g.PostDominators()
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		last := &p.Code[b.End-1]
		if !last.Conditional() {
			continue
		}
		if ipdom[bi] < 0 {
			last.RecPC = len(p.Code)
		} else {
			last.RecPC = g.Blocks[ipdom[bi]].Start
		}
	}
	return nil
}

// LayoutViolation describes a divergence whose reconvergence point lies
// at or below it in the address order, breaking the thread-frontier
// layout property.
type LayoutViolation struct {
	BranchPC int
	RecPC    int
}

func (v LayoutViolation) String() string {
	return fmt.Sprintf("branch at pc %d reconverges at pc %d (not below it)", v.BranchPC, v.RecPC)
}

// ValidateFrontierLayout reports the conditional branches whose
// reconvergence point is not strictly below the branch. A program in
// thread-frontier order has none. RecPC annotations must be present
// (AnnotateReconvergence).
func ValidateFrontierLayout(p *isa.Program) []LayoutViolation {
	var out []LayoutViolation
	for pc := range p.Code {
		ins := &p.Code[pc]
		if !ins.Conditional() || ins.RecPC < 0 {
			continue
		}
		if ins.RecPC <= pc {
			out = append(out, LayoutViolation{BranchPC: pc, RecPC: ins.RecPC})
		}
	}
	return out
}

// InsertSyncs returns a copy of p with thread-frontier SYNC instructions
// inserted at every reconvergence point reachable from a conditional
// branch, following the paper's §3.3: the SYNC is placed at the start of
// the reconvergence block and its payload is PCdiv, the last instruction
// of the immediate dominator of the reconvergence block. Reconvergence
// points that violate the layout property (PCrec ≤ PCdiv, as in TMD1)
// are skipped, mirroring the paper's observation that improper layout
// forfeits the constraint mechanism.
//
// All branch targets, RecPC annotations and labels are remapped to the
// new addresses. The input program is not modified.
func InsertSyncs(p *isa.Program) (*isa.Program, error) {
	if err := AnnotateReconvergence(p); err != nil {
		return nil, err
	}
	g, err := Build(p)
	if err != nil {
		return nil, err
	}
	idom := g.Dominators()
	ipdom := g.PostDominators()

	// Collect reconvergence blocks: ipdom blocks of conditional-branch
	// blocks. PCdiv for block R = last instruction of idom(R).
	type syncPoint struct {
		atPC  int // old PC where the sync goes (start of reconv block)
		pcDiv int // old PC of the divergence point
	}
	syncAt := map[int]int{} // reconv block -> PCdiv
	for bi := range g.Blocks {
		last := &p.Code[g.Blocks[bi].End-1]
		if !last.Conditional() {
			continue
		}
		r := ipdom[bi]
		if r < 0 {
			continue // reconverges at exit; EXIT handles it
		}
		d := idom[r]
		if d < 0 {
			continue
		}
		pcDiv := g.Blocks[d].End - 1
		pcRec := g.Blocks[r].Start
		if pcRec <= pcDiv {
			continue // layout violation: constraint not applicable
		}
		if old, ok := syncAt[r]; !ok || pcDiv < old {
			// Multiple divergence points can share one reconvergence
			// point (unstructured flow); the immediate dominator is the
			// conservative single choice (paper §3.3), and it is unique
			// per reconvergence block, so this branch is defensive.
			syncAt[r] = pcDiv
		}
	}

	var points []syncPoint
	for r, pcDiv := range syncAt {
		points = append(points, syncPoint{atPC: g.Blocks[r].Start, pcDiv: pcDiv})
	}
	slices.SortFunc(points, func(a, b syncPoint) int { return cmp.Compare(a.atPC, b.atPC) }) // reconv blocks start at distinct PCs

	// Two old→new PC maps: relocPC says where old instruction i lands;
	// targetPC says where a control transfer to old PC i should go. They
	// differ exactly at sync insertion points: the relocated instruction
	// moves below the sync, while branches to that address must execute
	// the sync (it IS the reconvergence point).
	n := len(p.Code)
	relocPC := make([]int, n+1)
	targetPC := make([]int, n+1)
	shift := 0
	pi := 0
	for pc := 0; pc <= n; pc++ {
		targetPC[pc] = pc + shift
		if pi < len(points) && points[pi].atPC == pc {
			shift++
			pi++
		}
		relocPC[pc] = pc + shift
	}

	out := &isa.Program{
		Name:         p.Name,
		SharedMem:    p.SharedMem,
		Labels:       make(map[string]int, len(p.Labels)),
		SyncInserted: true,
	}
	pi = 0
	for pc := 0; pc < n; pc++ {
		if pi < len(points) && points[pi].atPC == pc {
			out.Code = append(out.Code, isa.Instruction{
				Op:     isa.OpSync,
				Dst:    isa.RegNone,
				SrcA:   isa.RegNone,
				SrcB:   isa.RegNone,
				SrcC:   isa.RegNone,
				RecPC:  -1,
				Target: relocPC[points[pi].pcDiv],
				Line:   p.Code[pc].Line,
			})
			pi++
		}
		ins := p.Code[pc]
		if ins.Op == isa.OpBra {
			ins.Target = targetPC[ins.Target]
		}
		if ins.RecPC >= 0 {
			ins.RecPC = targetPC[ins.RecPC]
		}
		out.Code = append(out.Code, ins)
	}
	for name, pc := range p.Labels {
		out.Labels[name] = targetPC[pc]
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("cfg: sync insertion produced invalid program: %w", err)
	}
	return out, nil
}

// bitset is a simple dense bitset over block indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

func (b bitset) intersect(o bitset) {
	for i := range b {
		b[i] &= o[i]
	}
}

func (b bitset) equal(o bitset) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

func (b bitset) count() int {
	c := 0
	for _, w := range b {
		for ; w != 0; w &= w - 1 {
			c++
		}
	}
	return c
}
