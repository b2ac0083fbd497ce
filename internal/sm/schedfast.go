package sm

// This file holds the incrementally maintained scheduler state and the
// idle-cycle fast-forward. Together they replace the seed's per-cycle
// full rescan of every warp context, and its per-probe scoreboard scan,
// with event-driven bookkeeping in three layers:
//
//   - readySet / slotOf cache, per warp, whether the front-end's
//     pre-scoreboard checks pass (resident, not at a barrier, primary
//     slot exists and is not suspended) and which hot slot the primary
//     front-end follows. The cache is refreshed at exactly the events
//     that can change it — an issue on the warp (heap mutation, barrier
//     arrival, thread exit), a barrier release, a block launch or
//     retire — so per-cycle scheduling walks only live candidates.
//   - gates caches, per schedulable warp, the scoreboard verdict on its
//     primary candidate as a step function of the cycle (stallGate).
//     The verdict can change only when the warp's candidate or its
//     scoreboard entries do — an issue on the warp (Issue, and the
//     DepMatrix Transition of its heap mutation), a barrier release, a
//     block launch — which are the very events that refresh the first
//     layer, so one Scoreboard.Horizon query per event replaces a
//     ReadyAt scan on every primary and SWI buddy probe.
//   - fastForward advances s.now across spans in which no candidate can
//     issue. During such a span every scheduler-visible input is frozen
//     (issues are the only events, and none happen), so the wake-up
//     cycle is the earliest gate opening folded with the unit free
//     times, and the scoreboard counters the skipped probes would have
//     incremented are reproduced arithmetically from the same gates.
//
// All layers are cycle- and statistics-exact with the seed's rescan
// loop by construction: they probe the same candidates in the same
// ascending-warp order, and a gate ticks the scoreboard counters
// exactly as the ReadyAt query it replaces, so counters and
// tie-breaking draws are identical. The golden-stats fixtures pin the
// absolute results, scoreboard counters included, on every
// architecture.

import (
	"math"
	"math/bits"
)

// warpBits is a bitset over the SM's warp contexts, iterated in
// ascending warp order — the order the reference rescan visits warps,
// which oldest-first selection and tie-breaking depend on.
type warpBits []uint64

func newWarpBits(n int) warpBits { return make(warpBits, (n+63)/64) }

func (b warpBits) set(i int)   { b[i>>6] |= 1 << uint(i&63) }
func (b warpBits) clear(i int) { b[i>>6] &^= 1 << uint(i&63) }

// refreshWarp recomputes the cached schedulability of one warp after an
// event that may have changed it. The invariant maintained: a warp's
// readySet bit is set if and only if the reference scheduler's
// pre-scoreboard checks would pass for it this cycle, slotOf holds its
// primary front-end slot, and — while the bit is set — gates holds the
// scoreboard verdict on that slot's candidate. Everything these read —
// block residency, barrier state, the warp's own heap or stack and its
// scoreboard entries — is local to the warp, so refreshing on the
// warp's own events suffices.
//
//sbwi:hotpath
func (s *SM) refreshWarp(w *warp) {
	if w.block != nil && !w.deadCounted && w.done() {
		// First observation of the warp's completion: fold it into the
		// block's live counter for the O(blocks) retire/barrier sweeps.
		w.deadCounted = true
		w.block.live--
	}
	slot := 0
	ok := false
	if w.block != nil && !w.atBarrier {
		if w.heap != nil {
			if !w.heap.Done() {
				slot = s.primarySlot(w)
				ok = w.heap.Eligible(slot)
			}
		} else if _, _, live := w.stack.Active(); live {
			ok = true
		}
	}
	s.slotOf[w.id] = int8(slot)
	if ok {
		s.readySet.set(w.id)
		s.refreshGate(w, slot)
	} else {
		s.readySet.clear(w.id)
	}
}

// stallGate is a warp's scoreboard verdict on its primary candidate.
// With the candidate and the warp's scoreboard entries unchanged, a
// probe's outcome is a step function of the cycle t:
//
//	t <  hazT:            the scoreboard reports a data-hazard stall
//	hazT <= t < structT:  the entry table is structurally full (counted
//	                      as both a stall and a structural stall)
//	t >= stallT:          the scoreboard is clear; only the target
//	                      unit's busy time holds the candidate back
//
// where stallT = max(hazT, structT).
type stallGate struct {
	hazT    int64
	structT int64
	stallT  int64
}

// refreshGate recomputes the stall gate of a schedulable warp's primary
// candidate in the given slot from the scoreboard horizon at this
// cycle's query point.
//
//sbwi:hotpath
func (s *SM) refreshGate(w *warp, slot int) {
	pc, mask := s.primaryOf(w, slot)
	d := s.cfg.IssueDelay
	hazWB, hasHaz, structWB, hasStruct := s.sb.Horizon(w.id, s.prog.At(pc), s.srcsOf[pc], slot, mask, s.now-d)
	g := &s.gates[w.id]
	g.hazT = negInf
	if hasHaz {
		g.hazT = hazWB + d
	}
	g.structT = g.hazT // empty structural window by default
	if hasStruct {
		g.structT = structWB + d
	}
	g.stallT = max(g.hazT, g.structT)
}

// gateOpen charges one scoreboard probe of a warp's primary candidate
// at the current cycle against its cached gate, ticking the counters
// exactly as the ReadyAt query it stands for, and reports whether the
// scoreboard lets the candidate issue.
//
//sbwi:hotpath
func (s *SM) gateOpen(id int) bool {
	g := &s.gates[id]
	st := &s.sb.Stats
	st.Checks++
	if s.now < g.stallT {
		st.Stalls++
		if s.now >= g.hazT {
			st.Structural++
		}
		return false
	}
	return true
}

// primaryOf returns the PC and thread mask of a schedulable warp's
// candidate in the given slot (slot 0 for the stack model).
//
//sbwi:hotpath
func (s *SM) primaryOf(w *warp, slot int) (int, uint64) {
	if w.heap != nil {
		c := w.heap.Slot(slot)
		return c.PC, c.Mask
	}
	pc, mask, _ := w.stack.Active()
	return pc, mask
}

// negInf is a sentinel "always in the past" threshold, kept far from
// the int64 edge so adding IssueDelay cannot overflow.
const negInf = math.MinInt64 / 4

// fastForward is called after a cycle that issued nothing. It computes
// the earliest cycle at which any candidate can issue, accounts the
// scoreboard counters the skipped per-cycle probes would have
// incremented, and jumps s.now there. When nothing can ever wake
// (no schedulable candidate exists and no issue will create one), it
// reproduces the reference loop's livelock abort at the cycle limit.
//
//sbwi:hotpath
func (s *SM) fastForward(maxCycles int64) error {
	wake := int64(math.MaxInt64)
	for base, word := range s.readySet {
		for ; word != 0; word &= word - 1 {
			id := base<<6 | bits.TrailingZeros64(word)
			pc, _ := s.primaryOf(s.warps[id], int(s.slotOf[id]))
			wake = min(wake, max(s.gates[id].stallT, s.units.freeAt(s.prog.At(pc).Op.Unit())))
		}
	}

	// The reference loop would burn idle cycles one at a time until the
	// wake-up — or until the cycle limit trips with s.now just past it.
	if wake > maxCycles+1 {
		wake = maxCycles + 1
	}
	if wake <= s.now {
		return nil
	}
	s.accountIdle(s.now, wake-1)
	s.now = wake
	if s.now > maxCycles {
		return s.livelockErr(maxCycles)
	}
	return nil
}

// accountIdle reproduces, arithmetically, the scoreboard counters the
// reference loop would have incremented over the idle cycles [a, b]:
// each cycle the primary scheduler probes every schedulable candidate
// once, and — on the SWI architectures, with no primary found — the
// substitute secondary probes the candidates of buddy set (cycle mod
// numSets) a second time. Every probe's verdict is read off the
// candidate's stall gate.
//
//sbwi:hotpath
func (s *SM) accountIdle(a, b int64) {
	st := &s.sb.Stats
	numSets := int64(len(s.setBits)) // 0 unless the architecture has SWI
	for base, word := range s.readySet {
		for ; word != 0; word &= word - 1 {
			id := base<<6 | bits.TrailingZeros64(word)
			g := &s.gates[id]
			stallHi := min(b, g.stallT-1)
			structLo := max(a, g.hazT)
			structHi := min(b, g.structT-1)

			st.Checks += count(a, b)
			st.Stalls += count(a, stallHi)
			st.Structural += count(structLo, structHi)

			if numSets > 0 {
				r := int64(s.memberOf[id])
				st.Checks += countResidue(a, b, r, numSets)
				st.Stalls += countResidue(a, stallHi, r, numSets)
				st.Structural += countResidue(structLo, structHi, r, numSets)
			}
		}
	}
}

// count returns the number of integers in [lo, hi] (0 when empty).
//
//sbwi:hotpath
func count(lo, hi int64) uint64 {
	if hi < lo {
		return 0
	}
	return uint64(hi - lo + 1)
}

// countResidue returns the number of integers t in [lo, hi] with
// t mod m == r (lo >= 0, 0 <= r < m).
//
//sbwi:hotpath
func countResidue(lo, hi, r, m int64) uint64 {
	if hi < lo {
		return 0
	}
	if m == 1 {
		return uint64(hi - lo + 1)
	}
	first := lo + (r-lo%m+m)%m
	if first > hi {
		return 0
	}
	return uint64((hi-first)/m + 1)
}
