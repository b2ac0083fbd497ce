// Package replay implements the record side of the trace-replay
// engine: during one full simulation the SM model streams, per global
// thread, every conditional-branch outcome and every global-memory
// effective address into a Recorder; the finalized Trace then lets a
// later run of the full scheduling/timing machinery (package sm with
// RunOpts.Replay) re-time the same launch under any timing
// configuration without decoding operands, executing ALU lanes, or
// touching global memory.
//
// # Why per-thread streams make replay exact
//
// The SM model is execute-at-issue with per-thread program order
// preserved structurally, so for a race-free kernel each thread's
// functional behavior — the sequence of conditional-branch outcomes
// and effective addresses it produces — is invariant under every
// timing parameter: latencies, unit widths, NoC/L2 geometry, scheduler
// tie-breaks and warp interleavings reorder *when* threads execute,
// never *what* they compute. Recording those two per-thread streams
// therefore captures everything a re-run needs from the functional
// layer, while the replaying SM still runs its real scheduler,
// scoreboard, reconvergence and memory-timing machinery — which is
// what makes replayed Stats bit-identical to a full simulation for
// any in-domain configuration, not merely approximate.
//
// # Validity domain
//
// The domain boundary is data races: a kernel whose cross-thread
// ordering is not fixed by program order plus block barriers can
// legally compute different values under different timings, so its
// recorded streams describe only the recording run. Finalize detects
// this conservatively from a word-granular access log: two accesses to
// the same 32-bit word race when at least one is a store and no
// barrier orders them — cross-block accesses are never ordered,
// intra-block accesses are ordered exactly when they fall in different
// barrier epochs. A racy recording yields Replayable == false with the
// first offending word in Reason; callers fall back to full simulation
// (loudly — see device.WithTraceReplay). Same-value write-write races
// are still flagged: tolerating them would need value logging for a
// benefit no suite kernel currently shows.
package replay

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// Trace is one recorded launch: per-global-thread branch-outcome bits
// and global-memory effective addresses, plus the race verdict. A
// Trace is immutable after Finalize and safe for any number of
// concurrent replay Sessions.
type Trace struct {
	gridDim  int
	blockDim int

	// branchBits holds, per global thread, one bit per conditional
	// branch the thread executed, packed little-endian in uint64 words;
	// branchN is the per-thread bit count.
	branchBits [][]uint64
	branchN    []int32

	// addrs holds, per global thread, the effective address of each
	// global-memory instruction the thread advanced past, in program
	// order.
	addrs [][]uint32

	// Replayable reports whether the recording is race-free and may be
	// re-timed; Reason carries the first detected conflict otherwise.
	Replayable bool
	Reason     string
}

// Matches reports whether the trace was recorded for this launch
// geometry.
func (t *Trace) Matches(gridDim, blockDim int) bool {
	return t.gridDim == gridDim && t.blockDim == blockDim
}

// Threads returns the recorded global thread count.
func (t *Trace) Threads() int { return t.gridDim * t.blockDim }

// access is one entry of the record-time memory log. key identifies
// the 32-bit word including its address space (shared words are
// per-block, so their key embeds the CTA); epoch is the block's
// barrier epoch at access time.
type access struct {
	key   uint64
	tid   int32
	cta   int32
	epoch int32
	store bool
}

// sharedKeyBit marks shared-memory word keys; global words use the
// plain word index. Shared keys embed the CTA because shared memory is
// per-block storage: equal offsets in different blocks never alias.
const sharedKeyBit = 1 << 63

// Recorder accumulates one launch's streams. Stream writes go through
// per-SM Sinks: each sink is single-goroutine and writes only its own
// threads' inner slices, so recording needs no lock on the hot path.
// The device drives all sinks of a launch from one goroutine; callers
// of package sm may still run sinks over disjoint CTA ranges
// concurrently.
type Recorder struct {
	gridDim  int
	blockDim int

	// The per-thread streams are sharded, not mutex-guarded: the outer
	// slices are sized once by NewRecorder, and each sink writes only
	// the tid entries of its own CTA range (each thread belongs to
	// exactly one wave), so no two sinks ever touch the same inner
	// slice, whichever goroutines drive them.
	//sbwi:nolock sharded per thread: each sink writes only its own CTA range's tid entries, never another sink's inner slice
	branchBits [][]uint64
	//sbwi:nolock sharded per thread: each sink writes only its own CTA range's tid entries, never another sink's inner slice
	branchN []int32
	//sbwi:nolock sharded per thread: each sink writes only its own CTA range's tid entries, never another sink's inner slice
	addrs [][]uint32

	mu    sync.Mutex
	sinks []*Sink //sbwi:guardedby mu
}

// NewRecorder sizes a recorder for a launch geometry.
func NewRecorder(gridDim, blockDim int) *Recorder {
	n := gridDim * blockDim
	return &Recorder{
		gridDim:    gridDim,
		blockDim:   blockDim,
		branchBits: make([][]uint64, n),
		branchN:    make([]int32, n),
		addrs:      make([][]uint32, n),
	}
}

// Sink returns a recording handle for one SM instance. Each sink must
// only be used from one goroutine at a time; sinks over disjoint CTA
// ranges may run concurrently.
func (r *Recorder) Sink() *Sink {
	k := &Sink{r: r}
	r.mu.Lock()
	r.sinks = append(r.sinks, k)
	r.mu.Unlock()
	return k
}

// Sink is one SM's single-goroutine recording handle: stream appends
// go straight to the recorder's per-thread slices (disjoint across
// concurrent sinks), the memory log stays sink-local until Finalize.
type Sink struct {
	r *Recorder
	//sbwi:nolock single-goroutine confinement: sink-local until Finalize, which runs after every recording goroutine completed
	log []access
}

// Matches reports whether the sink records for this launch geometry.
func (k *Sink) Matches(gridDim, blockDim int) bool {
	return k.r.gridDim == gridDim && k.r.blockDim == blockDim
}

// Branch records one conditional-branch outcome for a thread.
func (k *Sink) Branch(tid int, taken bool) {
	r := k.r
	n := r.branchN[tid]
	if int(n)>>6 >= len(r.branchBits[tid]) {
		r.branchBits[tid] = append(r.branchBits[tid], 0)
	}
	if taken {
		r.branchBits[tid][n>>6] |= 1 << (uint(n) & 63)
	}
	r.branchN[tid] = n + 1
}

// Mem records one memory access a thread advanced past: global
// accesses append addr to the thread's address stream; both spaces
// enter the race log. epoch is the thread's block barrier epoch.
func (k *Sink) Mem(tid, cta, epoch int, addr uint32, global, store bool) {
	if global {
		k.r.addrs[tid] = append(k.r.addrs[tid], addr)
	}
	key := uint64(addr >> 2)
	if !global {
		key |= sharedKeyBit | uint64(cta)<<32
	}
	k.log = append(k.log, access{
		key: key, tid: int32(tid), cta: int32(cta), epoch: int32(epoch), store: store,
	})
}

// Finalize merges the sinks, runs the race analysis and returns the
// immutable trace. Call once, after every recording run completed.
func (r *Recorder) Finalize() *Trace {
	r.mu.Lock()
	var log []access
	for _, k := range r.sinks {
		log = append(log, k.log...)
		k.log = nil
	}
	r.mu.Unlock()

	t := &Trace{
		gridDim:    r.gridDim,
		blockDim:   r.blockDim,
		branchBits: r.branchBits,
		branchN:    r.branchN,
		addrs:      r.addrs,
		Replayable: true,
	}
	if reason := findRace(log); reason != "" {
		t.Replayable = false
		t.Reason = reason
	}
	return t
}

// findRace scans the merged access log for a pair of unordered
// conflicting accesses and returns a description of the first one (in
// word order), or "". Sorting makes the verdict independent of the
// nondeterministic order concurrent sinks appended in: the race
// predicate is a property of the access *set*.
func findRace(log []access) string {
	slices.SortFunc(log, compareAccess)
	for lo := 0; lo < len(log); {
		hi := lo
		for hi < len(log) && log[hi].key == log[lo].key {
			hi++
		}
		if reason := raceInWord(log[lo:hi]); reason != "" {
			return reason
		}
		lo = hi
	}
	return ""
}

// compareAccess orders accesses by word, then cta, epoch, tid and
// store — a total order over every field raceInWord reads, so the
// unstable sort in findRace cannot change a verdict or its reason.
func compareAccess(a, b access) int {
	switch {
	case a.key != b.key:
		return cmp.Compare(a.key, b.key)
	case a.cta != b.cta:
		return cmp.Compare(a.cta, b.cta)
	case a.epoch != b.epoch:
		return cmp.Compare(a.epoch, b.epoch)
	case a.tid != b.tid:
		return cmp.Compare(a.tid, b.tid)
	case a.store != b.store:
		if a.store {
			return 1
		}
		return -1
	}
	return 0
}

// raceInWord applies the ordering rule to one word's accesses (sorted
// by cta, epoch, tid): cross-block accesses are never ordered, so any
// store plus a second block races; intra-block accesses are ordered
// iff their barrier epochs differ, so a store plus a different thread
// within one epoch races.
func raceInWord(as []access) string {
	multiBlock := as[0].cta != as[len(as)-1].cta
	for lo := 0; lo < len(as); {
		hi := lo
		anyStore := false
		multiThread := false
		for hi < len(as) && as[hi].cta == as[lo].cta && as[hi].epoch == as[lo].epoch {
			anyStore = anyStore || as[hi].store
			multiThread = multiThread || as[hi].tid != as[lo].tid
			hi++
		}
		// A store in this group conflicts with any other thread of the
		// same epoch (no intra-epoch ordering) and, when several blocks
		// touch the word, with every other block's accesses (no
		// inter-block ordering exists at all).
		if anyStore && (multiBlock || multiThread) {
			scope := "blocks"
			if !multiBlock {
				scope = "threads"
			}
			return fmt.Sprintf("%s word %#x written and accessed by unordered %s (cta %d, barrier epoch %d)",
				spaceOf(as[lo].key), wordAddr(as[lo].key), scope, as[lo].cta, as[lo].epoch)
		}
		lo = hi
	}
	return ""
}

func spaceOf(key uint64) string {
	if key&sharedKeyBit != 0 {
		return "shared"
	}
	return "global"
}

func wordAddr(key uint64) uint32 { return uint32(key&0xffffffff) << 2 }
