package sm

import (
	"context"
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/reconv"
	"repro/internal/replay"
	"repro/internal/sched"
)

// SM is one simulated Streaming Multiprocessor mid-run.
type SM struct {
	cfg    Config
	launch *exec.Launch
	prog   *isa.Program
	hier   *mem.Hierarchy
	sb     *sched.Scoreboard
	lookup *sched.Lookup
	rng    *sched.XorShift64
	units  *units

	warps   []*warp
	blocks  []*block
	nextCTA int
	ctaEnd  int
	now     int64

	// Incrementally maintained scheduler state (see schedfast.go):
	// readySet holds exactly the warps the per-cycle rescan would probe
	// past its pre-scoreboard checks, slotOf their primary front-end
	// slot, and gates the scoreboard verdict on that slot's candidate as
	// a step function of the cycle. All three are refreshed at the
	// events that change them — issue, barrier release, block launch and
	// retire — instead of being re-derived from every warp context, and
	// re-scanned from the scoreboard, each cycle.
	readySet warpBits
	slotOf   []int8
	gates    []stallGate
	setBits  []warpBits // SWI: per-buddy-set warp masks
	memberOf []int      // SWI: buddy-set index containing each warp
	nextPoll int64      // next context-poll cycle

	// srcsOf caches each instruction's source-register list, indexed by
	// PC — static per program, recomputed by the seed on every probe.
	srcsOf [][]isa.Reg

	// Reusable scratch buffers: the steady-state issue path performs no
	// heap allocation (enforced by TestSteadyStateZeroAllocs).
	swiTies  []candidate
	freeBuf  []*warp
	txnBuf   []uint32
	txnReady []int64

	// rec / rp wire the trace-replay engine (package replay): with rec,
	// this full simulation additionally streams per-thread branch
	// outcomes and memory addresses into a recording; with rp, the
	// functional layer is skipped entirely and those streams are read
	// back instead — the scheduler, scoreboard, reconvergence and
	// memory-timing machinery still run for real, which is what keeps
	// replayed Stats bit-identical. At most one of the two is non-nil.
	rec *replay.Sink
	rp  *replay.Session

	stats Stats
	trace *Trace
}

// Result is the outcome of one simulation.
type Result struct {
	Stats Stats
	Trace *Trace

	// Waves holds the per-wave statistics when a Device partitioned the
	// launch into CTA waves simulated on independent SM instances; it is
	// nil for a plain single-SM Run. Stats is the deterministic merge of
	// the wave entries (wave order) plus, when the device models the
	// shared memory system, the L2/NoC counters of the one shared L2 and
	// crossbar every wave accessed inline (Stats.Mem.L2 and
	// Stats.Mem.NoC, zero in every per-wave entry). Without the modeled
	// memory system, merged Stats are identical for any SM or worker
	// count; with it, the waves contend on one shared clock, so Stats
	// depend on the configured SM count (the physical packing) but never
	// on the host worker count.
	Waves []Stats

	// SMCycles is the per-SM busy-cycle total under the device's
	// round-robin wave assignment (wave j runs on SM j mod N). Unlike
	// Stats, it depends on the configured SM count: more SMs spread the
	// same waves wider — and when the device models the shared L2 and
	// interconnect, each wave's cycles already include the contention
	// its accesses met on the shared clock. Nil for a plain single-SM
	// Run.
	SMCycles []int64

	// NoCPorts holds the per-SM interconnect port counters when the
	// device models the shared memory system (port i belongs to SM i;
	// length 1 for an unpartitioned single-SM run). Taken live from the
	// crossbar the waves accessed, so the per-port split reflects the
	// device's wave-to-SM packing. Nil under the flat-latency DRAM
	// model.
	NoCPorts []noc.Stats

	// Replayed reports that the result was produced by the trace-replay
	// engine (device.WithTraceReplay) instead of a full simulation;
	// Stats are bit-identical either way, but a replayed run leaves the
	// launch's global memory untouched.
	Replayed bool
}

// DeviceCycles returns the modeled device wall-clock: the busiest SM's
// cycle total, or Stats.Cycles when the launch ran on a single SM.
func (r *Result) DeviceCycles() int64 {
	if len(r.SMCycles) == 0 {
		return r.Stats.Cycles
	}
	var m int64
	for _, c := range r.SMCycles {
		if c > m {
			m = c
		}
	}
	return m
}

// candidate is an issueable (warp, split) pair resolved by a scheduler.
// It is passed by pointer into scratch storage, never heap-allocated on
// the issue path.
type candidate struct {
	w    *warp
	slot int // hot-context slot for heap configs; 0 for the stack
	pc   int
	mask uint64
	lane uint64
	ins  *isa.Instruction
}

// Run simulates the launch to completion on an SM configured by cfg and
// returns the statistics. The launch's global memory is mutated in
// place; callers needing the initial image should use CloneGlobal.
func Run(cfg Config, l *exec.Launch) (*Result, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return RunRange(context.Background(), cfg, l, 0, l.GridDim)
}

// ResidentCTAs returns how many CTAs of the launch are co-resident on
// one SM: the warp contexts divided by the warps one block needs. It is
// the wave size a Device uses to partition a grid across SM instances.
func ResidentCTAs(cfg Config, l *exec.Launch) int {
	warpsPerBlock := (l.BlockDim + cfg.WarpWidth - 1) / cfg.WarpWidth
	if warpsPerBlock <= 0 || warpsPerBlock > cfg.NumWarps {
		return 0
	}
	return cfg.NumWarps / warpsPerBlock
}

// RunOpts carries per-run wiring that is not part of the modeled
// micro-architecture (Config): how the SM's L1 talks to the rest of
// the device's memory system.
type RunOpts struct {
	// Lower, when non-nil, services the L1's miss fills and
	// write-through stores in place of the flat-latency DRAM port —
	// the device wires an interconnect port backed by the shared L2
	// here. The Lower is called from the simulation goroutine at the
	// cycle each transaction leaves the L1, so a shared Lower must only
	// ever see one access stream at a time — the device interleaves
	// concurrent waves onto a shared Lower through one serial driver
	// (see sm.Runner and package device).
	Lower mem.Lower

	// Record, when non-nil, streams this full simulation's per-thread
	// branch outcomes and memory addresses into a trace recording (one
	// sink per SM instance; see replay.Recorder). Functional execution
	// is unchanged.
	Record *replay.Sink

	// Replay, when non-nil, replaces functional execution with the
	// recorded streams: no operand decode, no ALU evaluation, no
	// load/store — global memory stays untouched — while all scheduling
	// and timing machinery runs for real. The run fails loudly if the
	// replayed execution diverges from the recording (the configuration
	// left the trace's validity domain). Mutually exclusive with
	// Record.
	Replay *replay.Session
}

// RunRange simulates the CTA sub-range [ctaStart, ctaEnd) of the launch
// on a fresh SM. The SM model is re-entrant: independent RunRange calls
// over disjoint sub-ranges of one launch may run concurrently as long
// as each operates on its own global-memory image (see the Launch
// write-sharing contract in package exec). Thread environments still
// see the full grid (%nctaid is l.GridDim), so functional behavior is
// position-independent. The context is polled about every 1k cycles;
// cancellation aborts the simulation with ctx.Err().
func RunRange(ctx context.Context, cfg Config, l *exec.Launch, ctaStart, ctaEnd int) (*Result, error) {
	return RunRangeOpts(ctx, cfg, l, ctaStart, ctaEnd, RunOpts{})
}

// RunRangeOpts is RunRange with explicit memory-system wiring.
func RunRangeOpts(ctx context.Context, cfg Config, l *exec.Launch, ctaStart, ctaEnd int, opts RunOpts) (*Result, error) {
	s, err := newSM(cfg, l, ctaStart, ctaEnd, opts)
	if err != nil {
		return nil, err
	}
	if err := s.run(ctx); err != nil {
		return nil, err
	}
	return s.result(), nil
}

// newSM validates the configuration and launch and builds a fresh SM
// with every scratch buffer preallocated, ready to simulate the CTA
// sub-range [ctaStart, ctaEnd).
func newSM(cfg Config, l *exec.Launch, ctaStart, ctaEnd int, opts RunOpts) (*SM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if ctaStart < 0 || ctaEnd > l.GridDim || ctaStart >= ctaEnd {
		return nil, fmt.Errorf("sm: %s: CTA range [%d, %d) outside grid of %d",
			l.Prog.Name, ctaStart, ctaEnd, l.GridDim)
	}
	warpsPerBlock := (l.BlockDim + cfg.WarpWidth - 1) / cfg.WarpWidth
	if warpsPerBlock > cfg.NumWarps {
		return nil, fmt.Errorf("sm: block of %d threads needs %d warps, SM has %d",
			l.BlockDim, warpsPerBlock, cfg.NumWarps)
	}
	if !cfg.usesHeap() {
		for pc := range l.Prog.Code {
			ins := &l.Prog.Code[pc]
			if ins.Conditional() && ins.RecPC < 0 {
				return nil, fmt.Errorf("sm: %s: pc %d: stack architecture needs RecPC annotations (run cfg.AnnotateReconvergence)", l.Prog.Name, pc)
			}
		}
	}

	s := &SM{
		cfg:     cfg,
		launch:  l,
		prog:    l.Prog,
		hier:    mem.NewHierarchy(cfg.Mem),
		sb:      sched.NewScoreboard(cfg.DepMode, cfg.NumWarps, cfg.ScoreboardEntries),
		rng:     sched.NewXorShift64(cfg.Seed),
		units:   newUnits(&cfg),
		warps:   make([]*warp, cfg.NumWarps),
		nextCTA: ctaStart,
		ctaEnd:  ctaEnd,
	}
	lk, err := sched.NewLookup(cfg.NumWarps, cfg.Assoc)
	if err != nil {
		return nil, err
	}
	s.lookup = lk
	if opts.Record != nil && opts.Replay != nil {
		return nil, fmt.Errorf("sm: %s: a run cannot both record and replay a trace", l.Prog.Name)
	}
	if opts.Record != nil && !opts.Record.Matches(l.GridDim, l.BlockDim) {
		return nil, fmt.Errorf("sm: %s: trace recorder sized for a different launch geometry", l.Prog.Name)
	}
	if opts.Replay != nil && !opts.Replay.Matches(l.GridDim, l.BlockDim, ctaStart, ctaEnd) {
		return nil, fmt.Errorf("sm: %s: replay session covers a different launch geometry or CTA range", l.Prog.Name)
	}
	s.rec, s.rp = opts.Record, opts.Replay
	s.hier.SetLower(opts.Lower)
	for i := range s.warps {
		s.warps[i] = &warp{id: i}
	}
	if cfg.TraceCap > 0 {
		s.trace = &Trace{cap: cfg.TraceCap}
	}

	flat := make([]isa.Reg, 0, 3*l.Prog.Len()) // SrcRegs appends at most 3, so flat never reallocates
	s.srcsOf = make([][]isa.Reg, l.Prog.Len())
	for pc := 0; pc < l.Prog.Len(); pc++ {
		start := len(flat)
		flat = l.Prog.At(pc).SrcRegs(flat)
		s.srcsOf[pc] = flat[start:len(flat):len(flat)]
	}

	s.readySet = newWarpBits(cfg.NumWarps)
	s.slotOf = make([]int8, cfg.NumWarps)
	s.gates = make([]stallGate, cfg.NumWarps)
	s.swiTies = make([]candidate, 0, cfg.NumWarps)
	s.freeBuf = make([]*warp, 0, cfg.NumWarps)
	s.txnBuf = make([]uint32, 0, cfg.WarpWidth)
	s.txnReady = make([]int64, 0, cfg.WarpWidth)
	if cfg.Arch == ArchSWI || cfg.Arch == ArchSBISWI {
		ns := lk.NumSets()
		s.setBits = make([]warpBits, ns)
		s.memberOf = make([]int, cfg.NumWarps)
		for si := 0; si < ns; si++ {
			m := newWarpBits(cfg.NumWarps)
			for _, wid := range lk.SetWarps(si) {
				m.set(wid)
				s.memberOf[wid] = si
			}
			s.setBits[si] = m
		}
	}
	return s, nil
}

// run drives the simulation to completion (or error), polling the
// context about every 1k cycles.
func (s *SM) run(ctx context.Context) error {
	maxCycles := s.cfg.MaxCycles
	if maxCycles <= 0 {
		maxCycles = defaultMaxCycles
	}
	for {
		if s.now >= s.nextPoll {
			select {
			case <-ctx.Done():
				return s.abortErr(ctx)
			default:
			}
			s.nextPoll = (s.now &^ 1023) + 1024
		}
		done, err := s.step(maxCycles)
		if err != nil {
			return err
		}
		if done {
			return s.finishReplay()
		}
	}
}

// finishReplay verifies, at completion of a replayed run, that every
// covered thread consumed its recorded streams exactly — the backstop
// against a timing configuration that silently left the trace's
// validity domain. No-op for normal runs.
func (s *SM) finishReplay() error {
	if s.rp == nil {
		return nil
	}
	if err := s.rp.Finish(); err != nil {
		return fmt.Errorf("sm: %s: %w", s.prog.Name, err)
	}
	return nil
}

// step advances the simulation by one front-end iteration: block
// retire/launch, barrier release, one scheduling cycle, and — when the
// cycle issued nothing — the idle-span fast-forward. It reports whether
// the sub-range has completed. Exposed inside the package so tests can
// drive and measure the hot loop directly.
//
//sbwi:hotpath
func (s *SM) step(maxCycles int64) (bool, error) {
	s.retireBlocks()
	s.launchBlocks()
	if s.done() {
		return true, nil
	}
	s.releaseBarriers()
	issued, err := s.cycle()
	if err != nil {
		return false, err
	}
	s.now++
	if s.now > maxCycles {
		return false, s.livelockErr(maxCycles)
	}
	if !issued {
		if err := s.fastForward(maxCycles); err != nil {
			return false, err
		}
	}
	return false, nil
}

func (s *SM) livelockErr(maxCycles int64) error {
	return &LivelockError{
		Prog:  s.prog.Name,
		Arch:  s.cfg.Arch,
		Limit: maxCycles,
		Cycle: s.now,
		State: s.dumpState(),
	}
}

// result finalizes and packages the run statistics.
func (s *SM) result() *Result {
	s.stats.Cycles = s.now
	s.stats.ScoreboardChecks = s.sb.Stats.Checks
	s.stats.ScoreboardStalls = s.sb.Stats.Stalls
	s.stats.StructuralStalls = s.sb.Stats.Structural
	s.stats.Mem = s.hier.Stats
	s.collectHeapStats()
	return &Result{Stats: s.stats, Trace: s.trace}
}

// collectHeapStats folds per-warp reconvergence statistics of the still
// resident warps into the run statistics (retired warps fold in
// retireBlocks).
func (s *SM) collectHeapStats() {
	for _, w := range s.warps {
		s.foldWarpStats(w)
	}
}

func (s *SM) foldWarpStats(w *warp) {
	if w.heap != nil {
		st := w.heap.Stats
		s.stats.Merges += st.Merges
		s.stats.DegradedInserts += st.DegradedInser
		s.stats.CCTOverflows += st.CCTOverflows
		if st.MaxSplits > s.stats.MaxSplits {
			s.stats.MaxSplits = st.MaxSplits
		}
		w.heap.Stats = reconv.HeapStats{}
	}
	if w.stack != nil {
		if d := w.stack.MaxDepth(); d > s.stats.MaxStackDepth {
			s.stats.MaxStackDepth = d
		}
	}
}

// done reports whether every CTA of the sub-range has been run to
// completion.
//
//sbwi:hotpath
func (s *SM) done() bool {
	return s.nextCTA >= s.ctaEnd && len(s.blocks) == 0
}

// dumpState renders a one-line-per-warp summary for livelock reports.
func (s *SM) dumpState() string {
	var out strings.Builder
	fmt.Fprintf(&out, "  cycle %d, next CTA %d of [., %d)\n", s.now, s.nextCTA, s.ctaEnd)
	for _, w := range s.warps {
		if w.block == nil {
			continue
		}
		fmt.Fprintf(&out, "  warp %d (cta %d) atBarrier=%v: ", w.id, w.block.cta, w.atBarrier)
		if w.heap != nil {
			for i := 0; i < reconv.HotContexts; i++ {
				if c := w.heap.Slot(i); c != nil {
					fmt.Fprintf(&out, "slot%d{pc=%d mask=%x wait=%d parked=%v} ",
						i, c.PC, c.Mask, c.WaitDiv, c.Parked)
				}
			}
			out.WriteString(w.heap.String())
		} else if pc, mask, ok := w.stack.Active(); ok {
			fmt.Fprintf(&out, "stack{pc=%d mask=%x}", pc, mask)
		}
		out.WriteByte('\n')
	}
	return out.String()
}

// retireBlocks frees the warps of completed blocks.
//
//sbwi:hotpath
func (s *SM) retireBlocks() {
	out := s.blocks[:0]
	for _, b := range s.blocks {
		if b.live > 0 {
			out = append(out, b) //sbwi:alloc-ok compacts live blocks in place into s.blocks[:0]
			continue
		}
		for _, w := range b.warps {
			s.foldWarpStats(w)
			w.block = nil
			s.refreshWarp(w)
		}
		s.stats.BlocksRun++
	}
	s.blocks = out
}

// launchBlocks assigns pending CTAs to free warp contexts.
//
//sbwi:hotpath
func (s *SM) launchBlocks() {
	warpsPerBlock := (s.launch.BlockDim + s.cfg.WarpWidth - 1) / s.cfg.WarpWidth
	for s.nextCTA < s.ctaEnd {
		free := s.freeBuf[:0]
		for _, w := range s.warps {
			if w.block == nil {
				free = append(free, w) //sbwi:alloc-ok fills s.freeBuf scratch sized to the warp contexts
				if len(free) == warpsPerBlock {
					break
				}
			}
		}
		if len(free) < warpsPerBlock {
			return
		}
		s.startBlock(s.nextCTA, free)
		s.nextCTA++
	}
}

// startBlock initializes warp state for one CTA. ws may be scratch; the
// block keeps its own copy. A replayed run skips the per-thread
// register and environment setup (and the shared-memory image): the
// functional layer never executes, so none of it would be read.
func (s *SM) startBlock(cta int, ws []*warp) {
	b := &block{cta: cta, warps: append([]*warp(nil), ws...)}
	if s.rp == nil {
		b.shared = make([]byte, s.prog.SharedMem)
	}
	b.live = len(b.warps)
	for wi, w := range b.warps {
		w.block = b
		w.base = wi * s.cfg.WarpWidth
		w.valid = 0
		w.atBarrier = false
		w.deadCounted = false
		w.lastIssue = -1
		if w.laneOf == nil {
			w.laneOf = s.cfg.Shuffle.Permutation(w.id, s.cfg.WarpWidth, s.cfg.NumWarps)
			w.identity = true
			for i, l := range w.laneOf {
				if l != i {
					w.identity = false
					break
				}
			}
		}
		if s.rp != nil {
			for t := 0; t < s.cfg.WarpWidth; t++ {
				if w.base+t < s.launch.BlockDim {
					w.valid |= 1 << uint(t)
				}
			}
			if s.cfg.usesHeap() {
				w.heap = reconv.NewHeap(w.valid, s.cfg.CCTCap)
				w.stack = nil
			} else {
				w.stack = reconv.NewStack(w.valid)
				w.heap = nil
			}
			s.refreshWarp(w)
			continue
		}
		if cap(w.regs) < s.cfg.WarpWidth {
			w.regs = make([]exec.Regs, s.cfg.WarpWidth)
			w.envs = make([]exec.Env, s.cfg.WarpWidth)
		}
		w.regs = w.regs[:s.cfg.WarpWidth]
		w.envs = w.envs[:s.cfg.WarpWidth]
		for t := 0; t < s.cfg.WarpWidth; t++ {
			tid := w.base + t
			w.regs[t] = exec.Regs{}
			if tid >= s.launch.BlockDim {
				continue
			}
			w.valid |= 1 << uint(t)
			w.envs[t] = exec.Env{
				Tid:    uint32(tid),
				NTid:   uint32(s.launch.BlockDim),
				Ctaid:  uint32(cta),
				NCta:   uint32(s.launch.GridDim),
				Params: &s.launch.Params,
			}
		}
		if s.cfg.usesHeap() {
			w.heap = reconv.NewHeap(w.valid, s.cfg.CCTCap)
			w.stack = nil
		} else {
			w.stack = reconv.NewStack(w.valid)
			w.heap = nil
		}
		s.refreshWarp(w)
	}
	s.blocks = append(s.blocks, b)
}

// releaseBarriers opens block barriers once every live warp arrived.
//
//sbwi:hotpath
func (s *SM) releaseBarriers() {
	for _, b := range s.blocks {
		if !b.barrierReady() {
			continue
		}
		for _, w := range b.warps {
			if w.done() || !w.atBarrier {
				continue
			}
			w.atBarrier = false
			if w.heap != nil {
				if c := w.heap.Slot(0); c != nil {
					next := c.PC + 1
					s.mutateHeap(w, func() { w.heap.Advance(0, next, s.now) }) //sbwi:alloc-ok non-escaping argument to mutateHeap
				}
			} else {
				w.stack.Advance()
			}
			s.refreshWarp(w)
		}
		b.arrived = 0
		b.epoch++ // accesses after the release are barrier-ordered against those before
	}
}

// mutateHeap wraps a heap mutation with the slot-transition update of
// the dependency-matrix scoreboard (§3.4). Composing one transition per
// mutation is equivalent to the hardware's one matrix per cycle, and
// keeps the rows consistent with slot numbering for intra-cycle
// secondary scheduling.
//
//sbwi:hotpath
func (s *SM) mutateHeap(w *warp, f func()) {
	if s.sb.Mode() != sched.DepMatrix {
		f()
		return
	}
	pre := w.heap.SlotMasks()
	f()
	s.sb.Transition(w.id, sched.Transition(pre, w.heap.SlotMasks()))
}

// cycle performs one scheduling cycle: every pool issues a primary
// instruction, then the secondary slot (if the architecture has one)
// fills the gap per §3/§4. It reports whether anything issued — when
// nothing did, every scheduler-visible input is frozen until the next
// wake-up event and the caller may fast-forward.
//
//sbwi:hotpath
func (s *SM) cycle() (bool, error) {
	var prim candidate
	if s.cfg.Arch == ArchBaseline {
		issued := false
		for pool := 0; pool < s.cfg.pools(); pool++ {
			if s.selectPrimary(pool, &prim) {
				if err := s.issue(&prim, false, provNone); err != nil {
					return issued, err
				}
				issued = true
			}
		}
		return issued, nil
	}

	if !s.selectPrimary(0, &prim) {
		// No primary: the secondary scheduler substitutes itself (§4),
		// searching one buddy set selected round-robin.
		if s.cfg.Arch == ArchSWI || s.cfg.Arch == ArchSBISWI {
			var sub candidate
			if s.swiSecondary(int(s.now)%s.lookup.NumSets(), nil, isa.UnitCTRL, 0, &sub) {
				return true, s.issue(&sub, true, provSWI)
			}
		}
		return false, nil
	}

	// Snapshot the other hot split before the primary issue mutates the
	// heap: the hardware's two front-ends select from the same
	// cycle-start instruction-buffer state.
	pw := prim.w
	primPC, primMask, primIns := prim.pc, prim.mask, prim.ins
	var secPC int
	var secMask uint64
	haveSec := false
	if s.cfg.hotSlots() == 2 && pw.heap != nil {
		other := 1 - prim.slot
		if pw.heap.Eligible(other) {
			if c2 := pw.heap.Slot(other); c2 != nil && c2.LastIssue < s.now {
				secPC, secMask, haveSec = c2.PC, c2.Mask, true
			}
		}
	}

	if err := s.issue(&prim, false, provNone); err != nil {
		return true, err
	}
	if !s.cfg.hasSecondary() {
		return true, nil
	}

	var sec candidate
	// (a) SBI: the warp's own secondary split, if it survived the
	// primary's heap mutation un-merged.
	if haveSec {
		if s.sbiCandidate(pw, secPC, secMask, s.divergenceCapable(primIns), &sec) {
			return true, s.issue(&sec, true, provSBI)
		}
	}
	// (b) SWI: another warp from the buddy set.
	if s.cfg.Arch == ArchSWI || s.cfg.Arch == ArchSBISWI {
		primLane := pw.laneMask(primMask)
		if s.swiSecondary(s.lookup.SetOf(pw.id), pw, primIns.Op.Unit(), primLane, &sec) {
			return true, s.issue(&sec, true, provSWI)
		}
	}
	// (c) Sequential fallback: next instruction of the primary split to
	// a distinct unit group.
	if s.cfg.Arch == ArchSBI || s.cfg.Arch == ArchSBISWI {
		if s.seqCandidate(pw, primIns, primPC, primMask, &sec) {
			return true, s.issue(&sec, true, provSeq)
		}
	}
	return true, nil
}

// prov is the provenance of a secondary issue, for statistics.
type prov uint8

const (
	provNone prov = iota
	provSBI
	provSWI
	provSeq
)

// primarySlot returns the hot slot the primary front-end follows for a
// warp: the minimal-PC context, falling through to the next one when it
// is architecturally suspended (parked at a partial barrier or waiting
// on a selective synchronization barrier).
//
//sbwi:hotpath
func (s *SM) primarySlot(w *warp) int {
	if w.heap == nil {
		return 0
	}
	if w.heap.Suspended(0) {
		return 1
	}
	return 0
}

// selectPrimary picks the least-recently-issued ready (warp, split) in
// the pool (oldest-first, §2) into out. pool is a parity filter for the
// baseline and 0 for single-pool architectures. The walk covers only
// the incrementally maintained issuable set, in ascending warp order —
// the order the seed's full rescan visited warps — so scoreboard
// counters and tie-breaking draws match the original loop exactly.
//
//sbwi:hotpath
func (s *SM) selectPrimary(pool int, out *candidate) bool {
	parity := s.cfg.pools() == 2
	found := false
	var bestAge int64
	var cur candidate
	for base, word := range s.readySet {
		for ; word != 0; word &= word - 1 {
			id := base<<6 | bits.TrailingZeros64(word)
			if parity && id&1 != pool {
				continue
			}
			w := s.warps[id]
			slot := int(s.slotOf[id])
			if !s.probe(w, slot, &cur) {
				continue
			}
			age := s.lastIssueOf(w, slot)
			if !found || age < bestAge {
				*out, bestAge, found = cur, age, true
			}
		}
	}
	return found
}

// lastIssueOf returns the age key used for oldest-first selection.
//
//sbwi:hotpath
func (s *SM) lastIssueOf(w *warp, slot int) int64 {
	if w.heap != nil {
		if c := w.heap.Slot(slot); c != nil {
			return c.LastIssue
		}
	}
	return w.lastIssue
}

// probe builds the candidate for a warp taken from the issuable set:
// the cached eligibility already holds, leaving only the per-cycle
// checks — the once-per-cycle issue guard, the cached scoreboard gate
// and the unit capacity.
//
//sbwi:hotpath
func (s *SM) probe(w *warp, slot int, out *candidate) bool {
	if s.lastIssueOf(w, slot) >= s.now || !s.gateOpen(w.id) {
		return false
	}
	pc, mask := s.primaryOf(w, slot)
	return s.unitCandidate(w, slot, pc, mask, s.prog.At(pc), out)
}

// finishCandidate applies a full scoreboard query and the unit check to
// a candidate outside the warp's cached primary slot (the SBI and
// sequential secondaries), filling out on success.
//
//sbwi:hotpath
func (s *SM) finishCandidate(w *warp, slot int, pc int, mask uint64, out *candidate) bool {
	ins := s.prog.At(pc)
	qnow := s.now - s.cfg.IssueDelay
	if s.sb.ReadyAt(w.id, ins, s.srcsOf[pc], slot, mask, qnow) > qnow {
		return false
	}
	return s.unitCandidate(w, slot, pc, mask, ins, out)
}

// unitCandidate applies the unit capacity check shared by all
// schedulers, filling out on success.
//
//sbwi:hotpath
func (s *SM) unitCandidate(w *warp, slot int, pc int, mask uint64, ins *isa.Instruction, out *candidate) bool {
	lane := w.laneMask(mask)
	if !s.units.canIssue(ins.Op.Unit(), lane, s.now) {
		return false
	}
	*out = candidate{w: w, slot: slot, pc: pc, mask: mask, lane: lane, ins: ins}
	return true
}

// divergenceCapable reports whether executing ins can create a new
// warp-split: a conditional branch, or a global load when DWS-style
// memory-divergence splitting is enabled. The HCT sorter accepts at
// most one new split per warp per cycle (§3.4), so two such
// instructions of one warp must not co-issue.
//
//sbwi:hotpath
func (s *SM) divergenceCapable(ins *isa.Instruction) bool {
	return ins.Conditional() || (s.cfg.SplitOnMemDivergence && ins.Op == isa.OpLdG)
}

// sbiCandidate re-locates the snapshotted secondary split after the
// primary issue. If it merged with the primary split (the primary
// advanced into its PC) co-issue is skipped: the merged warp-split
// issues whole next cycle. Any instruction class may issue from the
// second front-end — including the SYNC a waiting split must execute
// to evaluate its selective barrier — except that two
// divergence-capable instructions of one warp cannot share a cycle.
//
//sbwi:hotpath
func (s *SM) sbiCandidate(w *warp, pc int, mask uint64, primDiverges bool, out *candidate) bool {
	if w.heap == nil || w.atBarrier {
		return false
	}
	slot := -1
	for i := 0; i < reconv.HotContexts; i++ {
		if c := w.heap.Slot(i); c != nil && c.PC == pc && c.Mask == mask && c.LastIssue < s.now {
			slot = i
			break
		}
	}
	if slot < 0 || !w.heap.Eligible(slot) {
		return false
	}
	if primDiverges && s.divergenceCapable(s.prog.At(pc)) {
		return false
	}
	return s.finishCandidate(w, slot, pc, mask, out)
}

// seqCandidate dual-issues the next sequential instruction of the
// just-issued primary split when it targets a different unit group and
// its dependencies (including on the primary instruction itself, whose
// scoreboard entry is already visible) allow.
//
//sbwi:hotpath
func (s *SM) seqCandidate(w *warp, primIns *isa.Instruction, primPC int, primMask uint64, out *candidate) bool {
	if w.heap == nil || w.atBarrier || primIns.Op.Unit() == isa.UnitCTRL {
		return false
	}
	next := primPC + 1
	if next >= s.prog.Len() {
		return false
	}
	// Locate the split: it advanced to next with the same mask (if it
	// merged, was resorted away, or parked at the load under
	// memory-divergence splitting, skip).
	slot := -1
	for i := 0; i < reconv.HotContexts; i++ {
		if c := w.heap.Slot(i); c != nil && c.PC == next && c.Mask == primMask {
			slot = i
			break
		}
	}
	if slot < 0 || !w.heap.Eligible(slot) {
		return false
	}
	// The pair must target distinct unit groups; control instructions
	// occupy no unit so they always qualify (the primary is never
	// divergence-capable on this path, so a conditional branch is fine).
	ins := s.prog.At(next)
	if ins.Op.Unit() == primIns.Op.Unit() {
		return false
	}
	return s.finishCandidate(w, slot, next, primMask, out)
}

// swiSecondary searches buddy set setIdx for the best-fitting ready
// instruction whose lane mask does not conflict with the primary issue:
// disjoint masks when sharing the MAD row, any mask when targeting a
// free distinct unit (§4). Best fit maximizes occupied lanes; ties
// break pseudo-randomly. The bitset walk visits warps in ascending id —
// the order the seed's rescan used — so the tie list, and therefore the
// PRNG draw sequence, matches the original loop.
//
//sbwi:hotpath
func (s *SM) swiSecondary(setIdx int, exclude *warp, primUnit isa.Unit, primLane uint64, out *candidate) bool {
	ties := s.swiTies[:0]
	bestFit := -1
	var cur candidate
	set := s.setBits[setIdx]
	for base, word := range set {
		word &= s.readySet[base]
		for ; word != 0; word &= word - 1 {
			id := base<<6 | bits.TrailingZeros64(word)
			w := s.warps[id]
			if w == exclude || w.heap == nil {
				continue
			}
			slot := int(s.slotOf[id])
			c := w.heap.Slot(slot)
			if c.LastIssue >= s.now {
				continue
			}
			fit, ok := s.swiProbe(w, slot, c.PC, c.Mask, primUnit, primLane, &cur)
			if !ok {
				continue
			}
			switch {
			case fit > bestFit:
				ties, bestFit = append(ties[:0], cur), fit //sbwi:alloc-ok reuses s.swiTies scratch
			case fit == bestFit:
				ties = append(ties, cur) //sbwi:alloc-ok reuses s.swiTies scratch
			}
		}
	}
	s.swiTies = ties
	switch len(ties) {
	case 0:
		return false
	case 1:
		*out = ties[0]
	default:
		*out = ties[s.rng.Intn(len(ties))]
	}
	return true
}

// swiProbe applies the §4 secondary constraints to one buddy-set
// candidate, always the warp's primary slot — the MAD-row
// lane-collision filter happens before the scoreboard probe, exactly as
// in hardware (and so before the scoreboard counters tick), and the
// probe reads the warp's cached gate — and returns its lane fit.
//
//sbwi:hotpath
func (s *SM) swiProbe(w *warp, slot, pc int, mask uint64, primUnit isa.Unit, primLane uint64, out *candidate) (int, bool) {
	ins := s.prog.At(pc)
	unit := ins.Op.Unit()
	lane := w.laneMask(mask)
	if unit == isa.UnitMAD && primUnit == isa.UnitMAD && lane&primLane != 0 {
		return 0, false // would collide on the shared row
	}
	if !s.gateOpen(w.id) || !s.unitCandidate(w, slot, pc, mask, ins, out) {
		return 0, false
	}
	return popcount(lane), true
}

// issue commits a candidate: functional execution, timing bookkeeping,
// and control-state mutation. The warp's cached schedulability is
// refreshed afterwards — issuing is one of the events that change it.
//
//sbwi:hotpath
func (s *SM) issue(c *candidate, secondary bool, p prov) error {
	w, ins := c.w, c.ins
	active := popcount(c.mask)

	s.stats.IssueSlots++
	if secondary {
		s.stats.SecondaryIssues++
		switch p {
		case provSBI:
			s.stats.SBIPairs++
		case provSWI:
			s.stats.SWIPairs++
		case provSeq:
			s.stats.SeqPairs++
		}
	} else {
		s.stats.PrimaryIssues++
	}
	if s.trace != nil {
		s.trace.add(IssueEvent{
			Cycle: s.now, Warp: w.id, Slot: boolInt(secondary),
			PC: c.pc, Mask: c.mask, Lane: c.lane, Op: ins.Op, Unit: ins.Op.Unit(),
		})
	}
	s.markIssued(w, c.slot)

	var err error
	switch {
	case ins.Op == isa.OpSync:
		s.stats.SyncThreadInstrs += uint64(active)
		s.execSync(c)
	case ins.Op == isa.OpNop:
		s.advance(c, c.pc+1)
	case ins.Op == isa.OpExit:
		s.countInstr(ins, active)
		s.execExit(c)
	case ins.Op == isa.OpBar:
		s.countInstr(ins, active)
		err = s.execBar(c)
	case ins.Op == isa.OpBra:
		s.countInstr(ins, active)
		err = s.execBranch(c)
	case ins.Op.IsMemory():
		s.countInstr(ins, active)
		err = s.execMem(c)
	default:
		s.countInstr(ins, active)
		s.units.issue(ins.Op.Unit(), c.lane, s.now)
		s.execALU(c)
	}
	s.refreshWarp(w)
	return err
}

//sbwi:hotpath
func (s *SM) countInstr(ins *isa.Instruction, active int) {
	s.stats.ThreadInstrs += uint64(active)
	s.stats.UnitThreadInstrs[ins.Op.Unit()] += uint64(active)
}

// markIssued stamps the split's issue guard.
//
//sbwi:hotpath
func (s *SM) markIssued(w *warp, slot int) {
	if w.heap != nil {
		if c := w.heap.Slot(slot); c != nil {
			c.LastIssue = s.now
		}
		return
	}
	w.lastIssue = s.now
}

// advance moves the candidate's split to nextPC.
//
//sbwi:hotpath
func (s *SM) advance(c *candidate, nextPC int) {
	if c.w.heap != nil {
		s.mutateHeap(c.w, func() { c.w.heap.Advance(c.slot, nextPC, s.now) }) //sbwi:alloc-ok non-escaping argument to mutateHeap
		return
	}
	if nextPC == c.pc+1 {
		c.w.stack.Advance()
	} else {
		c.w.stack.Jump(nextPC)
	}
}

// execALU evaluates a MAD- or SFU-class instruction for the active
// threads and schedules its writeback. A replayed run skips the
// per-lane evaluation — ALU results only feed later branch outcomes
// and addresses, which the trace already holds — and keeps the
// identical scoreboard and control bookkeeping.
//
//sbwi:hotpath
func (s *SM) execALU(c *candidate) {
	w, ins := c.w, c.ins
	if s.rp == nil {
		for m := c.mask; m != 0; m &= m - 1 {
			t := bits.TrailingZeros64(m)
			w.regs[t][ins.Dst] = exec.EvalALU(ins, &w.regs[t], &w.envs[t])
		}
	}
	s.sb.Issue(w.id, ins, c.slot, c.mask, s.now+s.cfg.ExecLatency)
	s.advance(c, c.pc+1)
}

// gtidBase returns the warp's first global thread id — the index space
// of the trace-replay streams.
//
//sbwi:hotpath
func (s *SM) gtidBase(w *warp) int {
	return w.block.cta*s.launch.BlockDim + w.base
}

// replayDesync builds the error for a replayed execution that asked
// for more stream entries than the recording holds.
func (s *SM) replayDesync(pc, tid int) error {
	return fmt.Errorf("sm: %s: pc %d: replay stream exhausted for thread %d — execution diverged from the recording (configuration outside the trace's validity domain)",
		s.prog.Name, pc, tid)
}

// execBranch resolves a branch; a divergent outcome is the cycle's
// single warp-split creation event. Conditional outcomes come from the
// per-lane predicate evaluation, or — replaying — from the recorded
// per-thread outcome stream; recording logs each evaluated outcome.
//
//sbwi:hotpath
func (s *SM) execBranch(c *candidate) error {
	w, ins := c.w, c.ins
	if ins.SrcA == isa.RegNone {
		s.advance(c, ins.Target)
		return nil
	}
	var taken uint64
	if s.rp != nil {
		base := s.gtidBase(w)
		for m := c.mask; m != 0; m &= m - 1 {
			t := bits.TrailingZeros64(m)
			bit, ok := s.rp.Branch(base + t)
			if !ok {
				return s.replayDesync(c.pc, base+t)
			}
			if bit {
				taken |= 1 << uint(t)
			}
		}
	} else {
		for m := c.mask; m != 0; m &= m - 1 {
			t := bits.TrailingZeros64(m)
			if exec.BranchTaken(ins, &w.regs[t]) {
				taken |= 1 << uint(t)
			}
		}
		if s.rec != nil {
			base := s.gtidBase(w)
			for m := c.mask; m != 0; m &= m - 1 {
				t := bits.TrailingZeros64(m)
				s.rec.Branch(base+t, taken>>uint(t)&1 == 1)
			}
		}
	}
	switch {
	case taken == c.mask:
		s.advance(c, ins.Target)
	case taken == 0:
		s.advance(c, c.pc+1)
	default:
		s.stats.Divergences++
		if w.heap != nil {
			s.mutateHeap(w, func() { w.heap.Diverge(c.pc, ins.Target, c.pc+1, taken, s.now) }) //sbwi:alloc-ok non-escaping argument to mutateHeap
		} else {
			w.stack.Diverge(c.pc, ins.Target, ins.RecPC, taken)
		}
	}
	return nil
}

// execSync applies the selective synchronization barrier (§3.3).
//
//sbwi:hotpath
func (s *SM) execSync(c *candidate) {
	w := c.w
	if w.heap != nil && s.cfg.Constraints && w.heap.SyncBlockedAt(c.slot, c.ins.Target) {
		s.stats.SyncWaits++
		w.heap.Wait(c.slot, c.ins.Target)
		return
	}
	s.advance(c, c.pc+1)
}

// execExit retires the split's threads.
//
//sbwi:hotpath
func (s *SM) execExit(c *candidate) {
	if c.w.heap != nil {
		s.mutateHeap(c.w, func() { c.w.heap.Exit(c.slot, s.now) }) //sbwi:alloc-ok non-escaping argument to mutateHeap
		return
	}
	c.w.stack.Exit(c.mask)
}

// execBar handles the block barrier: a full-warp split joins the block
// rendezvous; a partial split parks until reconvergence completes it
// (only possible under the heap model — the stack guarantees
// reconvergence before the barrier for structured code).
//
//sbwi:hotpath
func (s *SM) execBar(c *candidate) error {
	w := c.w
	s.stats.BarrierWaits++
	if w.heap != nil {
		if c.mask == w.heap.Alive() {
			w.atBarrier = true
			w.block.arrived++
			return nil
		}
		w.heap.Park(c.slot) // masks unchanged: no scoreboard transition
		return nil
	}
	if alive := w.stack.Alive(); c.mask != alive {
		return fmt.Errorf("sm: %s: pc %d: divergent barrier (mask %#x, alive %#x)", //sbwi:alloc-ok cold path: a divergent barrier aborts the run
			s.prog.Name, c.pc, c.mask, alive)
	}
	w.atBarrier = true
	w.block.arrived++
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
