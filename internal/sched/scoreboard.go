package sched

import (
	"math"

	"repro/internal/isa"
)

// DepMode selects how a scoreboard decides whether an in-flight
// instruction and a candidate instruction of the same warp can have
// common threads (and therefore a register dependency).
type DepMode uint8

const (
	// DepWarp is the baseline rule: any two instructions of the same
	// warp conflict. Exact for warps without splits, conservative when
	// thread-frontier splits exist.
	DepWarp DepMode = iota

	// DepMatrix is the paper's §3.4 design: each entry carries a
	// dependency row over {primary, secondary, cold} warp-split slots,
	// updated every cycle by the transition matrix of the
	// divergence-convergence graph. Conservative (transitive closure).
	DepMatrix

	// DepMask is the brute-force oracle the paper rejects for storage
	// cost: each entry stores its exact execution mask. Used as the
	// ground truth in tests and available as an ablation.
	DepMask
)

func (m DepMode) String() string {
	switch m {
	case DepWarp:
		return "warp"
	case DepMatrix:
		return "matrix"
	case DepMask:
		return "mask"
	}
	return "dep(?)"
}

// Row is a dependency row over warp-split slots: Row[j] is set when some
// thread that executed the entry's instruction is now in slot j
// (0 = primary, 1 = secondary, 2 = cold contexts).
type Row [3]bool

// Matrix is a one-cycle slot transition matrix: Matrix[i][j] is set when
// a thread in slot i before the transition is in slot j after it.
type Matrix [3][3]bool

// Identity is the no-movement transition.
var Identity = Matrix{{true, false, false}, {false, true, false}, {false, false, true}}

// Transition derives the transition matrix from the slot masks before
// and after a heap mutation.
func Transition(pre, post [3]uint64) Matrix {
	var t Matrix
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			t[i][j] = pre[i]&post[j] != 0
		}
	}
	return t
}

// Mul advances a dependency row by one transition: out[j] = OR_i
// (r[i] AND t[i][j]).
func (r Row) Mul(t Matrix) Row {
	var out Row
	for j := 0; j < 3; j++ {
		for i := 0; i < 3; i++ {
			if r[i] && t[i][j] {
				out[j] = true
				break
			}
		}
	}
	return out
}

// Compose chains two transitions (a then b).
func (a Matrix) Compose(b Matrix) Matrix {
	var out Matrix
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 3; k++ {
				if a[i][k] && b[k][j] {
					out[i][j] = true
					break
				}
			}
		}
	}
	return out
}

// Entry is one in-flight register write tracked by the scoreboard.
type Entry struct {
	Dst  isa.Reg
	WB   int64  // cycle the result is written back (entry frees)
	Row  Row    // DepMatrix state
	Mask uint64 // DepMask state: exact execution mask
}

// Stats counts scoreboard events.
type Stats struct {
	Checks       uint64 // dependency queries
	Stalls       uint64 // queries answered "not yet"
	Structural   uint64 // stalls caused by a full entry table
	FalseSharing uint64 // DepMatrix stalls the DepMask oracle would not take (when tracked)
}

// Scoreboard tracks in-flight destination registers per warp, bounding
// entries per warp as in the paper's table 2 (6 entries per warp).
type Scoreboard struct {
	mode    DepMode
	perWarp int
	entries [][]Entry // ragged: live entries per warp
	horizon []int64   // Horizon scratch: live writeback times, sorted

	Stats Stats
}

// NewScoreboard builds a scoreboard for numWarps warps with perWarp
// in-flight entries each.
func NewScoreboard(mode DepMode, numWarps, perWarp int) *Scoreboard {
	return &Scoreboard{
		mode:    mode,
		perWarp: perWarp,
		entries: make([][]Entry, numWarps),
		horizon: make([]int64, 0, perWarp+2),
	}
}

// Mode returns the dependency mode.
func (s *Scoreboard) Mode() DepMode { return s.mode }

// prune drops entries whose writeback time has passed. The common case
// — every entry still in flight — returns without rewriting the slice,
// since prune runs on every scoreboard query.
func (s *Scoreboard) prune(warp int, now int64) {
	es := s.entries[warp]
	i := 0
	for i < len(es) && es[i].WB > now {
		i++
	}
	if i == len(es) {
		return
	}
	out := es[:i]
	for _, e := range es[i+1:] {
		if e.WB > now {
			out = append(out, e)
		}
	}
	s.entries[warp] = out
}

// depends reports whether entry e and a candidate issuing from slot with
// execution mask mask can share threads.
func (s *Scoreboard) depends(e *Entry, slot int, mask uint64) bool {
	switch s.mode {
	case DepMatrix:
		return e.Row[slot]
	case DepMask:
		return e.Mask&mask != 0
	default:
		return true
	}
}

// ReadyAt returns the earliest cycle at which the candidate instruction
// may issue, considering RAW and WAW hazards against in-flight entries
// and the structural entry limit. A result <= now means "ready now".
// srcs must hold the candidate's source registers (isa.SrcRegs).
func (s *Scoreboard) ReadyAt(warp int, ins *isa.Instruction, srcs []isa.Reg, slot int, mask uint64, now int64) int64 {
	s.prune(warp, now)
	s.Stats.Checks++
	ready := now
	es := s.entries[warp]
	for i := range es {
		e := &es[i]
		if !s.depends(e, slot, mask) {
			continue
		}
		hazard := ins.Op.HasDst() && ins.Dst == e.Dst // WAW
		for _, r := range srcs {
			if r == e.Dst {
				hazard = true // RAW
				break
			}
		}
		if hazard && e.WB > ready {
			ready = e.WB
		}
	}
	if ins.Op.HasDst() && len(es) >= s.perWarp {
		// Structural: must wait for the earliest writeback to free a slot.
		minWB := int64(math.MaxInt64)
		for i := range es {
			if es[i].WB < minWB {
				minWB = es[i].WB
			}
		}
		if minWB > ready {
			ready = minWB
			s.Stats.Structural++
		}
	}
	if ready > now {
		s.Stats.Stalls++
	}
	return ready
}

// Horizon reports, without touching statistics, the quantities that
// govern a frozen candidate's readiness while no new entries are
// allocated. Entries whose writeback time is at or before q are pruned
// — they are dead for every query at or after q — so a caller that
// queries only Horizon (never ReadyAt) still keeps at most perWarp+1
// entries per warp.
//
//   - hazardWB is the latest writeback time among live entries that
//     conflict with the candidate (thread-sharing per the dependency
//     mode and a RAW or WAW register match): a ReadyAt query at q' >= q
//     stalls on a hazard exactly while q' < hazardWB. hasHazard is
//     false when no live entry conflicts.
//   - structWB is the writeback time at which the entry table stops
//     being structurally full for a destination-writing candidate:
//     ReadyAt at q' >= q reports a structural stall exactly while
//     hazardWB <= q' < structWB. hasStruct is false when the candidate
//     writes no destination or the table is not full.
func (s *Scoreboard) Horizon(warp int, ins *isa.Instruction, srcs []isa.Reg, slot int, mask uint64, q int64) (hazardWB int64, hasHazard bool, structWB int64, hasStruct bool) {
	es := s.entries[warp]
	live := s.horizon[:0]
	n := 0
	for i := range es {
		if es[i].WB <= q {
			continue
		}
		if n != i {
			es[n] = es[i]
		}
		e := &es[n]
		n++
		live = append(live, e.WB)
		if !s.depends(e, slot, mask) {
			continue
		}
		hazard := ins.Op.HasDst() && ins.Dst == e.Dst // WAW
		for _, r := range srcs {
			if r == e.Dst {
				hazard = true // RAW
				break
			}
		}
		if hazard && (!hasHazard || e.WB > hazardWB) {
			hazardWB, hasHazard = e.WB, true
		}
	}
	s.entries[warp] = es[:n]
	s.horizon = live
	if ins.Op.HasDst() && len(live) >= s.perWarp {
		// Insertion sort (allocation-free; at most perWarp+1 entries).
		for i := 1; i < len(live); i++ {
			v := live[i]
			j := i - 1
			for ; j >= 0 && live[j] > v; j-- {
				live[j+1] = live[j]
			}
			live[j+1] = v
		}
		// The table stays full (>= perWarp live entries) until the
		// (n-perWarp+1)-th earliest writeback has passed.
		structWB, hasStruct = live[len(live)-s.perWarp], true
	}
	return hazardWB, hasHazard, structWB, hasStruct
}

// Issue records the candidate's destination write. Instructions without
// a destination register allocate no entry.
func (s *Scoreboard) Issue(warp int, ins *isa.Instruction, slot int, mask uint64, wb int64) {
	if !ins.Op.HasDst() {
		return
	}
	var row Row
	if slot >= 0 && slot < 3 {
		row[slot] = true
	}
	s.entries[warp] = append(s.entries[warp], Entry{Dst: ins.Dst, WB: wb, Row: row, Mask: mask})
}

// Transition advances the dependency rows of a warp's entries by one
// slot-transition matrix (DepMatrix mode; no-op otherwise).
func (s *Scoreboard) Transition(warp int, t Matrix) {
	if s.mode != DepMatrix {
		return
	}
	es := s.entries[warp]
	for i := range es {
		es[i].Row = es[i].Row.Mul(t)
	}
}

// InFlight returns the number of live entries for a warp.
func (s *Scoreboard) InFlight(warp int, now int64) int {
	s.prune(warp, now)
	return len(s.entries[warp])
}
