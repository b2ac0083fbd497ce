package sched

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func mkIns(op isa.Opcode, dst, a, b isa.Reg) *isa.Instruction {
	return &isa.Instruction{Op: op, Dst: dst, SrcA: a, SrcB: b, SrcC: isa.RegNone}
}

func srcsOf(ins *isa.Instruction) []isa.Reg { return ins.SrcRegs(nil) }

func TestScoreboardRAW(t *testing.T) {
	sb := NewScoreboard(DepWarp, 4, 6)
	prod := mkIns(isa.OpIAdd, 1, 2, 3)
	sb.Issue(0, prod, 0, 0xF, 100)

	cons := mkIns(isa.OpIMul, 4, 1, 5) // reads r1
	if got := sb.ReadyAt(0, cons, srcsOf(cons), 0, 0xF, 10); got != 100 {
		t.Errorf("RAW ReadyAt = %d, want 100", got)
	}
	// After writeback the dependency clears.
	if got := sb.ReadyAt(0, cons, srcsOf(cons), 0, 0xF, 100); got != 100 {
		t.Errorf("post-WB ReadyAt = %d, want 100", got)
	}
}

func TestScoreboardWAW(t *testing.T) {
	sb := NewScoreboard(DepWarp, 4, 6)
	sb.Issue(0, mkIns(isa.OpIAdd, 1, 2, 3), 0, 0xF, 50)
	w := mkIns(isa.OpIMul, 1, 4, 5) // writes r1 again
	if got := sb.ReadyAt(0, w, srcsOf(w), 0, 0xF, 10); got != 50 {
		t.Errorf("WAW ReadyAt = %d, want 50", got)
	}
}

func TestScoreboardIndependentRegsDontStall(t *testing.T) {
	sb := NewScoreboard(DepWarp, 4, 6)
	sb.Issue(0, mkIns(isa.OpIAdd, 1, 2, 3), 0, 0xF, 50)
	ind := mkIns(isa.OpIMul, 4, 5, 6)
	if got := sb.ReadyAt(0, ind, srcsOf(ind), 0, 0xF, 10); got != 10 {
		t.Errorf("independent ReadyAt = %d, want 10", got)
	}
}

func TestScoreboardOtherWarpUnaffected(t *testing.T) {
	sb := NewScoreboard(DepWarp, 4, 6)
	sb.Issue(0, mkIns(isa.OpIAdd, 1, 2, 3), 0, 0xF, 50)
	cons := mkIns(isa.OpIMul, 4, 1, 5)
	if got := sb.ReadyAt(1, cons, srcsOf(cons), 0, 0xF, 10); got != 10 {
		t.Errorf("other warp ReadyAt = %d, want 10", got)
	}
}

func TestScoreboardStructuralLimit(t *testing.T) {
	sb := NewScoreboard(DepWarp, 1, 2)
	sb.Issue(0, mkIns(isa.OpIAdd, 1, 9, 9), 0, 0xF, 30)
	sb.Issue(0, mkIns(isa.OpIAdd, 2, 9, 9), 0, 0xF, 40)
	ind := mkIns(isa.OpIMul, 3, 8, 8)
	// Table is full: must wait for the earliest writeback (30).
	if got := sb.ReadyAt(0, ind, srcsOf(ind), 0, 0xF, 10); got != 30 {
		t.Errorf("structural ReadyAt = %d, want 30", got)
	}
	if sb.Stats.Structural == 0 {
		t.Error("structural stall not counted")
	}
	// Instructions without a destination (stores) need no entry.
	st := &isa.Instruction{Op: isa.OpStG, Dst: isa.RegNone, SrcA: 8, SrcC: 8}
	if got := sb.ReadyAt(0, st, srcsOf(st), 0, 0xF, 10); got != 10 {
		t.Errorf("store ReadyAt = %d, want 10", got)
	}
}

func TestScoreboardMatrixDisjointSplits(t *testing.T) {
	// Producer issued from slot 0; the secondary split (slot 1) holds
	// disjoint threads, so in matrix mode the consumer from slot 1 must
	// NOT stall, while in warp mode it must.
	mk := func(mode DepMode) *Scoreboard {
		sb := NewScoreboard(mode, 1, 6)
		sb.Issue(0, mkIns(isa.OpIAdd, 1, 2, 3), 0, 0x0F, 100)
		return sb
	}
	cons := mkIns(isa.OpIMul, 4, 1, 5)

	if got := mk(DepMatrix).ReadyAt(0, cons, srcsOf(cons), 1, 0xF0, 10); got != 10 {
		t.Errorf("matrix: disjoint split ReadyAt = %d, want 10", got)
	}
	if got := mk(DepWarp).ReadyAt(0, cons, srcsOf(cons), 1, 0xF0, 10); got != 100 {
		t.Errorf("warp: ReadyAt = %d, want 100", got)
	}
	if got := mk(DepMask).ReadyAt(0, cons, srcsOf(cons), 1, 0xF0, 10); got != 10 {
		t.Errorf("mask: disjoint ReadyAt = %d, want 10", got)
	}
}

func TestScoreboardMatrixTransitionPropagates(t *testing.T) {
	sb := NewScoreboard(DepMatrix, 1, 6)
	sb.Issue(0, mkIns(isa.OpIAdd, 1, 2, 3), 0, 0x0F, 100)

	// The producing split's threads move from slot 0 to slot 1 (e.g. a
	// lower-PC split got promoted to primary).
	var swap Matrix
	swap[0][1] = true
	swap[1][0] = true
	swap[2][2] = true
	sb.Transition(0, swap)

	cons := mkIns(isa.OpIMul, 4, 1, 5)
	if got := sb.ReadyAt(0, cons, srcsOf(cons), 1, 0x0F, 10); got != 100 {
		t.Errorf("after swap, slot-1 consumer ReadyAt = %d, want 100", got)
	}
	if got := sb.ReadyAt(0, cons, srcsOf(cons), 0, 0xF0, 10); got != 10 {
		t.Errorf("after swap, slot-0 consumer ReadyAt = %d, want 10", got)
	}
}

func TestTransitionFromMasks(t *testing.T) {
	pre := [3]uint64{0x0F, 0xF0, 0x00}
	post := [3]uint64{0x03, 0x0C, 0xF0} // slot0 split in two, old slot1 went cold
	tr := Transition(pre, post)
	want := Matrix{
		{true, true, false},
		{false, false, true},
		{false, false, false},
	}
	if tr != want {
		t.Errorf("Transition = %v, want %v", tr, want)
	}
}

func TestRowMulIdentity(t *testing.T) {
	r := Row{true, false, true}
	if got := r.Mul(Identity); got != r {
		t.Errorf("r*I = %v", got)
	}
}

func TestMatrixCompose(t *testing.T) {
	var a, b Matrix
	a[0][1] = true
	b[1][2] = true
	c := a.Compose(b)
	if !c[0][2] {
		t.Error("compose must chain 0->1->2")
	}
	if c[0][1] || c[1][2] {
		t.Error("compose must not keep one-step edges")
	}
}

// The matrix scoreboard must be conservative with respect to the exact
// mask oracle: whenever the oracle reports a dependency, the matrix
// must too. We replay a random warp-split history against both.
func TestQuickMatrixConservative(t *testing.T) {
	f := func(moves []uint16) bool {
		mx := NewScoreboard(DepMatrix, 1, 16)
		or := NewScoreboard(DepMask, 1, 16)

		// Slot masks: three disjoint groups that random moves permute.
		slots := [3]uint64{0x000F, 0x00F0, 0x0F00}
		issueIdx := 0
		for _, mv := range moves {
			switch mv % 3 {
			case 0: // issue from a random slot
				slot := int(mv>>2) % 3
				reg := isa.Reg(mv>>4) % 8
				ins := mkIns(isa.OpIAdd, reg, 30, 30)
				mx.Issue(0, ins, slot, slots[slot], int64(1000+issueIdx))
				or.Issue(0, ins, slot, slots[slot], int64(1000+issueIdx))
				issueIdx++
			case 1: // move some threads between two slots
				from := int(mv>>2) % 3
				to := int(mv>>4) % 3
				if from == to || slots[from] == 0 {
					continue
				}
				pre := slots
				moved := slots[from] & (slots[from] - 1) // drop lowest set bit... keep rest
				moved = slots[from] &^ moved             // lowest set bit only
				slots[from] &^= moved
				slots[to] |= moved
				mx.Transition(0, Transition(pre, slots))
			case 2: // swap two whole slots
				a := int(mv>>2) % 3
				b := int(mv>>4) % 3
				pre := slots
				slots[a], slots[b] = slots[b], slots[a]
				mx.Transition(0, Transition(pre, slots))
			}
			// Probe: every (slot, reg) candidate the oracle blocks, the
			// matrix must block at least as long.
			for slot := 0; slot < 3; slot++ {
				if slots[slot] == 0 {
					continue
				}
				for reg := isa.Reg(0); reg < 8; reg++ {
					cand := mkIns(isa.OpIMul, 20, reg, 21)
					oracle := or.ReadyAt(0, cand, srcsOf(cand), slot, slots[slot], 0)
					matrix := mx.ReadyAt(0, cand, srcsOf(cand), slot, slots[slot], 0)
					if matrix < oracle {
						return false // missed a true dependency
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestScoreboardInFlight(t *testing.T) {
	sb := NewScoreboard(DepWarp, 1, 6)
	sb.Issue(0, mkIns(isa.OpIAdd, 1, 2, 3), 0, 1, 20)
	sb.Issue(0, mkIns(isa.OpIAdd, 2, 2, 3), 0, 1, 40)
	if got := sb.InFlight(0, 10); got != 2 {
		t.Errorf("InFlight = %d, want 2", got)
	}
	if got := sb.InFlight(0, 30); got != 1 {
		t.Errorf("InFlight after first WB = %d, want 1", got)
	}
	if got := sb.InFlight(0, 50); got != 0 {
		t.Errorf("InFlight after all WB = %d, want 0", got)
	}
}

// clone returns an independent copy of the scoreboard's entry tables
// and counters.
func (s *Scoreboard) clone() *Scoreboard {
	c := NewScoreboard(s.mode, len(s.entries), s.perWarp)
	for w, es := range s.entries {
		c.entries[w] = append([]Entry(nil), es...)
	}
	c.Stats = s.Stats
	return c
}

// TestHorizonMatchesReadyAt checks the step function Horizon reports
// against ReadyAt: for random entry tables under every dependency mode,
// and for every query cycle q' in a window after the Horizon query, a
// fresh copy of the scoreboard stalls at q' exactly while
// q' < max(hazardWB, structWB), and counts a structural stall exactly
// while hazardWB <= q' < structWB. It also checks that Horizon pruned
// exactly the entries dead at its query cycle.
func TestHorizonMatchesReadyAt(t *testing.T) {
	const q = 20
	rng := rand.New(rand.NewPCG(1, 2))
	slotMasks := [3]uint64{0x000F, 0x00F0, 0x0F00}
	for _, mode := range []DepMode{DepWarp, DepMatrix, DepMask} {
		for trial := 0; trial < 2000; trial++ {
			perWarp := 1 + rng.IntN(6)
			sb := NewScoreboard(mode, 1, perWarp)
			masks := slotMasks
			for n := rng.IntN(perWarp + 2); n > 0; n-- {
				slot := rng.IntN(3)
				dst := isa.Reg(rng.IntN(6))
				sb.Issue(0, mkIns(isa.OpIAdd, dst, 30, 30), slot, masks[slot], int64(q-8+rng.IntN(40)))
				if mode == DepMatrix && rng.IntN(2) == 0 {
					pre := masks
					masks[0], masks[1], masks[2] = uint64(rng.Uint32())&0xFFF, uint64(rng.Uint32())&0xFFF, uint64(rng.Uint32())&0xFFF
					sb.Transition(0, Transition(pre, masks))
				}
			}
			var cand *isa.Instruction
			if rng.IntN(3) == 0 {
				cand = &isa.Instruction{Op: isa.OpStG, Dst: isa.RegNone, SrcA: isa.Reg(rng.IntN(6)), SrcB: isa.RegNone, SrcC: isa.Reg(rng.IntN(6))}
			} else {
				cand = mkIns(isa.OpIMul, isa.Reg(rng.IntN(6)), isa.Reg(rng.IntN(6)), isa.Reg(rng.IntN(6)))
			}
			slot := rng.IntN(3)
			mask := uint64(rng.Uint32()) & 0xFFF

			var live []Entry
			for _, e := range sb.entries[0] {
				if e.WB > q {
					live = append(live, e)
				}
			}
			hazWB, hasHaz, structWB, hasStruct := sb.Horizon(0, cand, srcsOf(cand), slot, mask, q)
			if got := sb.entries[0]; !slices.Equal(got, live) {
				t.Fatalf("%v trial %d: Horizon(%d) left entries %v, want the live ones %v", mode, trial, q, got, live)
			}
			haz, str := int64(math.MinInt64), int64(math.MinInt64)
			if hasHaz {
				haz = hazWB
			}
			if hasStruct {
				str = structWB
			}
			for qq := int64(q); qq < q+45; qq++ {
				c := sb.clone()
				stalled := c.ReadyAt(0, cand, srcsOf(cand), slot, mask, qq) > qq
				structural := c.Stats.Structural == 1
				if want := qq < max(haz, str); stalled != want {
					t.Fatalf("%v trial %d, q'=%d: ReadyAt stalled=%v, Horizon predicts %v (hazard %d/%v, struct %d/%v)",
						mode, trial, qq, stalled, want, hazWB, hasHaz, structWB, hasStruct)
				}
				if want := haz <= qq && qq < str; structural != want {
					t.Fatalf("%v trial %d, q'=%d: structural stall=%v, Horizon predicts %v (hazard %d/%v, struct %d/%v)",
						mode, trial, qq, structural, want, hazWB, hasHaz, structWB, hasStruct)
				}
			}
		}
	}
}

// TestHorizonBoundsEntries drives one warp the way the SM's cached
// stall gate does — Horizon after every issue, Issue whenever the last
// Horizon says the candidate may go, and never ReadyAt — and checks that
// the warp's entry table stays within perWarp+1 entries. Without the
// pruning in Horizon nothing would ever drop dead entries on this path.
func TestHorizonBoundsEntries(t *testing.T) {
	const perWarp = 6
	rng := rand.New(rand.NewPCG(3, 4))
	sb := NewScoreboard(DepWarp, 1, perWarp)
	cand := mkIns(isa.OpIAdd, 1, 2, 3)
	gate, issues := int64(math.MinInt64), 0
	for now := int64(0); now < 20000; now++ {
		if now < gate {
			continue
		}
		sb.Issue(0, cand, 0, 1, now+1+int64(rng.IntN(40)))
		issues++
		if n := len(sb.entries[0]); n > perWarp+1 {
			t.Fatalf("cycle %d: %d entries after an issue, want at most %d", now, n, perWarp+1)
		}
		cand = mkIns(isa.OpIAdd, isa.Reg(rng.IntN(20)), isa.Reg(20+rng.IntN(4)), isa.Reg(20+rng.IntN(4)))
		hazWB, hasHaz, structWB, hasStruct := sb.Horizon(0, cand, srcsOf(cand), 0, 1, now)
		gate = math.MinInt64
		if hasHaz {
			gate = hazWB
		}
		if hasStruct {
			gate = max(gate, structWB)
		}
	}
	if issues < 1000 {
		t.Fatalf("only %d issues: the test no longer fills the entry table", issues)
	}
}
