// Command perfbench is the repository's benchmark: one seeded,
// self-checking workload per run, with end-to-end metrics from an
// untraced run and per-layer metrics from a traced one. See README.md.
//
//	perfbench --workload suite-flat --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sm"
	"repro/perfbench/profile"
)

// A run sets up at least setupMinReps times, and more until its
// set-ups have taken setupMinTotal, so that a set-up of a fifth of a
// second is sampled as often as the host's second-to-second speed
// changes need; setup_s is the median.
const (
	setupMinReps  = 5
	setupMinTotal = 3 * time.Second
)

// deadline bounds a whole run; the benchmark must exit within 180 s.
const deadline = 170 * time.Second

// workload is one named set of inputs. Its set-up generates the inputs
// from the seed and warms up; the bench it returns runs the operations.
// README.md gives each workload's reason.
type workload struct {
	name  string
	setup func(context.Context, *setupEnv) (bench, error)
	// oneClient runs a single client: its operations already spread
	// over every device worker, and a second client would only make
	// their latency depend on how the two interleave.
	oneClient bool
}

var workloads = []workload{
	{"suite-flat", setupSuiteFlat, false},
	{"memsys-sweep", setupSweep(false), true},
	{"replay-sweep", setupSweep(true), true},
	{"stream-launches", setupStreams, false},
}

// bench is one set-up's inputs and the state its operations share.
type bench interface {
	// op runs operation opID (1, 2, ... within a phase) for a client
	// and checks its outputs.
	op(ctx context.Context, client int, tr *tracer, parent, opID int64) (opResult, error)
	// pass is the number of operations that cover the workload's inputs
	// once; a timed phase runs whole passes, so every run weighs each
	// input equally. 0 means no such unit.
	pass() int
	// finish returns the digest of the run's modeled statistics and,
	// when the workload ran them, the figure-7 cells' statistics.
	finish(ctx context.Context) (uint64, map[cell]sm.Stats, error)
}

// setupEnv is what one set-up repetition sees.
type setupEnv struct {
	seed   uint64
	par    int
	tr     *tracer
	span   int64 // the repetition's set-up span
	checks int
	fails  []string
}

// check counts one output check made during set-up.
func (e *setupEnv) check(err error) {
	e.checks++
	if err != nil {
		e.fails = append(e.fails, err.Error())
	}
}

// opResult is the modeled outcome of one operation.
type opResult struct {
	instrs   uint64
	cycles   int64
	stats    sm.Stats
	entries  int
	replayed int
}

func resultOf(r *sm.Result) opResult {
	var o opResult
	o.addResult(r)
	return o
}

func (o *opResult) addResult(r *sm.Result) {
	o.add(opResult{instrs: r.Stats.ThreadInstrs, cycles: r.DeviceCycles(), stats: r.Stats, entries: 1, replayed: boolInt(r.Replayed)})
}

func (o *opResult) add(r opResult) {
	o.instrs += r.instrs
	o.cycles += r.cycles
	o.stats.Merge(&r.stats)
	o.entries += r.entries
	o.replayed += r.replayed
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// phase is the outcome of one timed phase.
type phase struct {
	ops, failed int
	fails       []string
	latMS       []float64 // a uniform sample of the op latencies
	logIPC      float64   // Σ log IPC over the ops that succeeded
	res         opResult
	elapsed     time.Duration
	peakHeap    uint64
}

// runPhase runs par closed-loop clients for at least d: each submits
// its next operation only when its previous one has returned. Past d,
// the clients finish the current pass of the workload and stop.
func runPhase(ctx context.Context, b bench, par int, d time.Duration, tr *tracer) *phase {
	per := make([]phase, par)
	var seq, last atomic.Int64 // last: the final op ID once d has passed
	last.Store(math.MaxInt64)
	pass := int64(max(b.pass(), 1))
	lat := newLatencySample()
	var wg sync.WaitGroup
	stopHeap := sampleHeap()
	start := time.Now()
	end := start.Add(d)
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &per[c]
			for {
				if !time.Now().Before(end) {
					n := seq.Load()
					last.CompareAndSwap(math.MaxInt64, (n+pass-1)/pass*pass)
				}
				opID := seq.Add(1)
				if opID > last.Load() {
					return
				}
				root := tr.begin("op", 0, opID)
				t0 := time.Now()
				r, err := b.op(ctx, c, tr, root, opID)
				ms := float64(time.Since(t0)) / 1e6
				tr.end(root)
				p.ops++
				if err != nil {
					p.failed++
					p.fails = append(p.fails, err.Error())
					lat.add(math.Inf(1)) // a failed op misses every latency limit
					continue
				}
				lat.add(ms)
				p.logIPC += math.Log(float64(r.instrs) / float64(r.cycles))
				p.res.add(r)
			}
		}()
	}
	wg.Wait()
	out := &phase{elapsed: time.Since(start), peakHeap: stopHeap(), latMS: lat.xs}
	for i := range per {
		out.merge(&per[i])
	}
	return out
}

// merge adds o's operations to p. Elapsed time and peak heap are left
// to the caller.
func (p *phase) merge(o *phase) {
	p.ops += o.ops
	p.failed += o.failed
	p.fails = append(p.fails, o.fails...)
	p.latMS = append(p.latMS, o.latMS...)
	p.logIPC += o.logIPC
	p.res.add(o.res)
}

func (p *phase) minstrPerS() float64 { return float64(p.res.instrs) / p.elapsed.Seconds() / 1e6 }

// modeledIPC is the geometric mean of the successful ops' modeled IPC.
func (p *phase) modeledIPC() float64 {
	if p.ops == p.failed {
		return 0
	}
	return math.Exp(p.logIPC / float64(p.ops-p.failed))
}

// heapSampleEvery is the heap sampler's period: a 20 s phase gets a
// thousand samples, plenty for their 99th percentile.
const heapSampleEvery = 20 * time.Millisecond

// sampleHeap samples the bytes of heap objects every heapSampleEvery
// until the returned function is called, which returns the 99th
// percentile of the samples: the level the heap reaches at the top of
// its GC cycles, pooled over every cycle of the phase rather than taken
// from the one cycle that happened to start latest.
func sampleHeap() func() uint64 {
	stop, peak := make(chan struct{}), make(chan uint64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		var samples []float64
		for {
			metrics.Read(s)
			samples = append(samples, float64(s[0].Value.Uint64()))
			select {
			case <-stop:
				v, _ := percentile(samples, 99) // short phases take the top rank they have
				peak <- uint64(v)
				return
			case <-t.C:
			}
		}
	}()
	return func() uint64 {
		close(stop)
		return <-peak
	}
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func main() {
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		os.Exit(1)
	})
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run parses the flags, runs one workload and writes the report to
// stdout. It returns the process exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input-generation seed")
	seconds := fs.Int("seconds", 20, "length of the timed phase")
	traced := fs.Int("trace", 0, "1 for the traced per-layer run")
	out := fs.String("out", ".bench_build/traces", "directory for the traced run's spans and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds N --trace {0|1}\n", strings.Join(names, "|"))
		return 2
	}
	par := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(par)

	r := &runner{w: w, seed: *seed, par: par, dur: time.Duration(*seconds) * time.Second, outDir: *out, stdout: stdout}
	var err error
	if *traced == 1 {
		err = r.traced(context.Background())
	} else {
		err = r.untraced(context.Background())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// runner carries one run's settings and set-up results.
type runner struct {
	w      *workload
	seed   uint64
	par    int
	dur    time.Duration
	outDir string
	stdout io.Writer

	tr         *tracer
	setupS     []float64
	checks     int
	checkFails []string
}

func (r *runner) clients() int {
	if r.w.oneClient {
		return 1
	}
	return r.par
}

// setup sets the workload up repeatedly, each time from scratch, and
// returns the last bench.
func (r *runner) setup(ctx context.Context) (bench, error) {
	var b bench
	var total float64
	for len(r.setupS) < setupMinReps || total < setupMinTotal.Seconds() {
		runtime.GC()
		env := &setupEnv{seed: r.seed, par: r.par, tr: r.tr}
		env.span = r.tr.begin("setup", 0, 0)
		t0 := time.Now()
		var err error
		b, err = r.w.setup(ctx, env)
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		total += r.setupS[len(r.setupS)-1]
		r.tr.end(env.span)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.checks += env.checks
		r.checkFails = append(r.checkFails, env.fails...)
	}
	runtime.GC()
	return b, nil
}

func (r *runner) untraced(ctx context.Context) error {
	b, err := r.setup(ctx)
	if err != nil {
		return err
	}
	ph := runPhase(ctx, b, r.clients(), r.dur, nil)
	digest, fig, err := b.finish(ctx)
	if err != nil {
		return err
	}
	if fig == nil {
		if fig, err = fig7(ctx, r.par); err != nil {
			return fmt.Errorf("figure-7 pass: %w", err)
		}
	}
	gap, err := paperGap(fig)
	if err != nil {
		return err
	}
	p50 := median(append([]float64(nil), ph.latMS...))
	p90, ok := percentile(append([]float64(nil), ph.latMS...), 90)
	ms := []metric{
		{"setup_s", "s", median(append([]float64(nil), r.setupS...))},
		{"sim_minstr_per_s", "Minstr/s", ph.minstrPerS()},
		{"op_ms_p50", "ms", p50},
		{"op_ms_p90", "ms", p90},
		{"peak_heap_mib", "MiB", float64(ph.peakHeap) / (1 << 20)},
		{"modeled_ipc", "instr/cycle", ph.modeledIPC()},
		{"paper_gap_pp", "pp", gap},
	}
	notes := []string{fmt.Sprintf("modeled-stats digest %#016x", digest)}
	if !ok {
		notes = append(notes, fmt.Sprintf("op_ms_p90 rests on %d samples, fewer than the %d that leave %d beyond it", len(ph.latMS), 10*minBeyond, minBeyond))
	}
	r.report(ph, ms, notes)
	return nil
}

func (r *runner) traced(ctx context.Context) error {
	r.tr = newTracer()
	b, err := r.setup(ctx)
	if err != nil {
		return err
	}
	// Alternate untraced and traced windows of about a second: the
	// throughput ratio of the two halves is the tracing overhead, and
	// alternating keeps host drift and the operation mix out of it.
	windows := max(int(r.dur/time.Second)/2, 1)
	win := r.dur / time.Duration(2*windows)
	plain, ph := &phase{}, &phase{}
	selfTime := map[string]time.Duration{}
	var total time.Duration
	var profs [][]byte
	var rt runtimeCounts // over the traced windows
	var lc layerCounts   // likewise
	for range windows {
		p := runPhase(ctx, b, r.clients(), win, nil)
		plain.merge(p)
		plain.elapsed += p.elapsed
		runtime.GC()

		c0, l0 := readRuntime(), readLayerCounts(b)
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return err
		}
		p = runPhase(ctx, b, r.clients(), win, r.tr)
		pprof.StopCPUProfile()
		rt.add(readRuntime(), c0)
		lc.add(readLayerCounts(b), l0)
		ph.merge(p)
		ph.elapsed += p.elapsed
		ph.peakHeap = max(ph.peakHeap, p.peakHeap)
		self, t, err := profile.SelfByLayer(buf.Bytes())
		if err != nil {
			return err
		}
		for k, v := range self {
			selfTime[k] += v
		}
		total += t
		profs = append(profs, buf.Bytes())
	}

	var overheadUS float64
	if s, ok := b.(*streams); ok {
		direct, err := s.directRunMS(r.tr, 5)
		if err != nil {
			return err
		}
		var lat []float64
		for _, sp := range r.tr.snapshot() {
			if sp.Name == "device.Stream.Launch" {
				lat = append(lat, float64(sp.End-sp.Start)/1e3)
			}
		}
		overheadUS = median(lat) - 1e3*median(direct)
	}
	digest, _, err := b.finish(ctx)
	if err != nil {
		return err
	}

	spans := r.tr.snapshot()
	setupMS := func(name string) float64 {
		var per []float64
		for _, m := range childTotalsMS(spans, "setup") {
			per = append(per, m[name])
		}
		return median(per)
	}
	ops := float64(max(ph.ops, 1))
	st := &ph.res.stats
	selfMS := func(layer string) float64 { return float64(selfTime[layer]) / 1e6 / ops }
	selfNSPer := func(layer string, n uint64) float64 { return ratio(float64(selfTime[layer]), float64(n)) }
	perOp := func(n uint64) float64 { return float64(n) / ops }
	ms := []metric{
		{"sm.self_ms_per_op", "ms/op", selfMS("sm")},
		{"sm.ns_per_issue", "ns", selfNSPer("sm", st.IssueSlots)},
		{"sm.dual_issue_ratio", "ratio", ratio(float64(st.SecondaryIssues), float64(st.IssueSlots))},
		{"sm.sbi_pairs", "count/op", perOp(st.SBIPairs)},
		{"sm.swi_pairs", "count/op", perOp(st.SWIPairs)},
		{"sm.structural_stalls", "count/op", perOp(st.StructuralStalls)},
		{"sm.barrier_waits", "count/op", perOp(st.BarrierWaits)},
		{"sched.self_ms_per_op", "ms/op", selfMS("sched")},
		{"sched.ns_per_check", "ns", selfNSPer("sched", st.ScoreboardChecks)},
		{"sched.scoreboard_stall_ratio", "ratio", ratio(float64(st.ScoreboardStalls), float64(st.ScoreboardChecks))},
		{"reconv.self_ms_per_op", "ms/op", selfMS("reconv")},
		{"reconv.divergences", "count/op", perOp(st.Divergences)},
		{"reconv.merges", "count/op", perOp(st.Merges)},
		{"reconv.max_splits", "count", float64(st.MaxSplits)},
		{"reconv.cct_overflows", "count/op", perOp(st.CCTOverflows)},
		{"exec.self_ms_per_op", "ms/op", selfMS("exec")},
		{"exec.ns_per_thread_instr", "ns", selfNSPer("exec", st.ThreadInstrs)},
		{"isa.self_ms_per_op", "ms/op", selfMS("isa")},
		{"mem.self_ms_per_op", "ms/op", selfMS("mem")},
		{"mem.ns_per_transaction", "ns", selfNSPer("mem", st.Transactions)},
		{"mem.l1_hit_rate", "ratio", ratio(float64(st.Mem.Hits), float64(st.Mem.Hits+st.Mem.Misses))},
		{"mem.mshr_merges", "count/op", perOp(st.Mem.MSHRMerges)},
		{"mem.store_queue_stalls", "count/op", perOp(st.Mem.StoreQueueStalls)},
		{"mem.l2_hit_rate", "ratio", st.Mem.L2.HitRate()},
		{"mem.l2_bank_stalls", "count/op", perOp(st.Mem.L2.BankStalls)},
		{"noc.self_ms_per_op", "ms/op", selfMS("noc")},
		{"noc.queue_cycles", "count/op", perOp(st.Mem.NoC.QueueCycles)},
		{"noc.requests", "count/op", perOp(st.Mem.NoC.Requests)},
		{"replay.self_ms_per_op", "ms/op", selfMS("replay")},
		{"replay.record_ms", "ms", setupMS("replay.record")},
		{"replay.fallbacks", "count", float64(lc.fallbacks)},
		{"replay.replayed_frac", "ratio", ratio(float64(ph.res.replayed), float64(ph.res.entries))},
		{"device.self_ms_per_op", "ms/op", selfMS("device")},
		{"device.launch_overhead_us", "us", overheadUS},
		{"device.simcache_hits", "count", float64(lc.hits)},
		{"device.simcache_misses", "count", float64(lc.misses)},
		{"kernels.setup_ms", "ms", setupMS("kernels.setup")},
		{"asm.assemble_ms", "ms", setupMS("asm.assemble")},
		{"cfg.insert_syncs_ms", "ms", setupMS("cfg.insert_syncs")},
		{"exec.reference_ms", "ms", setupMS("exec.reference")},
		{"progen.generate_ms", "ms", setupMS("progen.generate")},
		{"runtime.self_ms_per_op", "ms/op", selfMS("runtime")},
		{"runtime.alloc_bytes_per_op", "B/op", rt.allocBytes / ops},
		{"runtime.gc_cycles_per_s", "1/s", rt.gcCycles / ph.elapsed.Seconds()},
		{"trace.overhead_pct", "%", 100 * (ratio(plain.minstrPerS(), ph.minstrPerS()) - 1)},
	}

	notes := []string{fmt.Sprintf("modeled-stats digest %#016x", digest)}
	notes = append(notes, layerMap(selfTime, total, ops)...)
	if err := r.writeTrace(spans, profs); err != nil {
		notes = append(notes, "could not write the trace: "+err.Error())
	}
	r.report(ph, ms, notes)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounts are the replay workload's cumulative SimCache counters
// and the fallback lines its device has logged; zero elsewhere.
type layerCounts struct{ hits, misses, fallbacks uint64 }

// add adds the counts between readings from and to.
func (c *layerCounts) add(to, from layerCounts) {
	c.hits += to.hits - from.hits
	c.misses += to.misses - from.misses
	c.fallbacks += to.fallbacks - from.fallbacks
}

func readLayerCounts(b bench) layerCounts {
	if s, ok := b.(*sweep); ok && s.cache != nil {
		return layerCounts{s.cache.Hits(), s.cache.Misses(), uint64(s.log.n.Load())}
	}
	return layerCounts{}
}

// runtimeCounts are cumulative Go runtime counters.
type runtimeCounts struct{ allocBytes, gcCycles float64 }

// add adds the counts between readings from and to.
func (c *runtimeCounts) add(to, from runtimeCounts) {
	c.allocBytes += to.allocBytes - from.allocBytes
	c.gcCycles += to.gcCycles - from.gcCycles
}

func readRuntime() runtimeCounts {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounts{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())}
}

// layerMap formats the profile's per-layer self time, largest first.
func layerMap(self map[string]time.Duration, total time.Duration, ops float64) []string {
	var names []string
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	out := []string{fmt.Sprintf("layer map: CPU self time by package of the leaf frame, %.0f ms sampled over %.0f ops", float64(total)/1e6, ops)}
	for _, n := range names {
		out = append(out, fmt.Sprintf("  %-12s %9.3f ms/op %6.1f%%", n, float64(self[n])/1e6/ops, 100*ratio(float64(self[n]), float64(total))))
	}
	return out
}

// writeTrace writes the spans and the CPU profiles of a traced run,
// one profile per traced window.
func (r *runner) writeTrace(spans []span, profs [][]byte) error {
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d", r.w.name, r.seed))
	meta := map[string]any{"workload": r.w.name, "seed": r.seed, "seconds": r.dur.Seconds()}
	if err := writeSpans(base+".spans.json", meta, spans); err != nil {
		return err
	}
	for i, p := range profs {
		if err := os.WriteFile(fmt.Sprintf("%s.cpu%d.pprof", base, i), p, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// report prints the human-readable summary, then the JSON result line.
func (r *runner) report(ph *phase, ms []metric, notes []string) {
	attempted := ph.ops + r.checks
	failed := ph.failed + len(r.checkFails)
	fmt.Fprintf(r.stdout, "perfbench %s seed=%d clients=%d GOMAXPROCS=%d %s %s/%s\n",
		r.w.name, r.seed, r.clients(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(r.stdout, "ops %d in %.2fs, set-up checks %d, failed %d, failed_frac %g\n",
		ph.ops, ph.elapsed.Seconds(), r.checks, failed, ratio(float64(failed), float64(attempted)))
	for _, n := range notes {
		fmt.Fprintln(r.stdout, n)
	}
	fails := append(append([]string(nil), r.checkFails...), ph.fails...)
	for i, f := range fails {
		if i == 5 {
			fmt.Fprintf(r.stdout, "... and %d more failures\n", len(fails)-i)
			break
		}
		fmt.Fprintln(r.stdout, "FAIL:", f)
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]map[string]any{}}
	for _, m := range ms {
		fmt.Fprintf(r.stdout, "  %-30s %14.6g %s\n", m.name, m.value, m.unit)
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			v = 0
		}
		res.Metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	line, _ := json.Marshal(res) // maps of strings and float64s always marshal
	fmt.Fprintln(r.stdout, string(line))
}
