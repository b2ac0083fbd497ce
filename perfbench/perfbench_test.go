package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/progen"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 90, 90, true}, // 10 samples above rank 90
		{99, 90, 90, false}, // rank 90 leaves 9 above
		{20, 50, 10, true},
		{19, 50, 10, false},
		{1000, 99, 990, true},
		{0, 50, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("p%g of %d samples = %g, %v; want %g, %v", c.p, c.n, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(seq(200), 100); ok {
		t.Error("p100 must be refused")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
}

func TestLatencySample(t *testing.T) {
	s := newLatencySample()
	for i := range latencySize {
		s.add(float64(i))
	}
	if len(s.xs) != latencySize || s.xs[latencySize-1] != latencySize-1 {
		t.Fatalf("a phase of %d ops must keep every latency", latencySize)
	}
	const n = 100 * latencySize
	for i := latencySize; i < n; i++ {
		s.add(float64(i))
	}
	if len(s.xs) != latencySize || cap(s.xs) != latencySize || s.n != n {
		t.Fatalf("kept %d (cap %d) of %d; want %d", len(s.xs), cap(s.xs), s.n, latencySize)
	}
	// A uniform sample of 0..n-1 has its median and p90 near n/2 and 0.9n.
	for _, p := range []float64{50, 90} {
		got, _ := percentile(append([]float64(nil), s.xs...), p)
		if want := p / 100 * n; math.Abs(got-want) > 0.03*n {
			t.Errorf("p%g of the sample = %g, want about %g", p, got, want)
		}
	}
}

func TestCellOrderDeterministic(t *testing.T) {
	a, b, c := cellOrder(1), cellOrder(1), cellOrder(2)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different cell orders")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds gave the same cell order")
	}
	seen := map[cell]bool{}
	for _, x := range a {
		seen[x] = true
	}
	if len(a) != 110 || len(seen) != 110 {
		t.Fatalf("%d cells, %d distinct; want 110 of each", len(a), len(seen))
	}
}

func drawPoints(t *testing.T, seed uint64, n int) []point {
	t.Helper()
	g := newPointGen(seed)
	out := make([]point, n)
	for i := range out {
		p, idx, err := g.next()
		if err != nil {
			t.Fatal(err)
		}
		if idx != i {
			t.Fatalf("draw %d has index %d", i, idx)
		}
		out[i] = p
	}
	return out
}

func TestPointGenDeterministic(t *testing.T) {
	a, b, c := drawPoints(t, 7, 50), drawPoints(t, 7, 50), drawPoints(t, 8, 50)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different sweep points")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds gave the same sweep points")
	}
}

func TestPointGenUnique(t *testing.T) {
	total := l2Steps * nocSteps
	pts := drawPoints(t, 1, total-1) // every point but the reserved default
	seen := map[point]bool{}
	for _, p := range pts {
		if seen[p] || p == defaultPoint {
			t.Fatalf("point %v repeated or equal to the default point", p)
		}
		seen[p] = true
		if p.l2KiB < 64 || p.l2KiB > 768 || p.l2KiB%64 != 0 || p.nocBytesPC < 2 || p.nocBytesPC > 32 {
			t.Fatalf("point %v outside the sweep space", p)
		}
	}
	g := newPointGen(1)
	for range total - 1 {
		if _, _, err := g.next(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := g.next(); err == nil {
		t.Fatal("an exhausted sweep space must fail, not repeat a point")
	}
}

func TestLaunchSpecsDeterministic(t *testing.T) {
	a, b, c := launchSpecs(3, 32), launchSpecs(3, 32), launchSpecs(4, 32)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different launches")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds gave the same launches")
	}
	for _, s := range a {
		if s.grid < 1 || s.grid > 4 || s.block < 32 || s.block > 128 || s.block%32 != 0 {
			t.Fatalf("launch %+v outside 1-4 CTAs of 32-128 threads", s)
		}
	}
	src := func(s launchSpec) string {
		g := progen.New(s.progenSeed)
		if _, err := g.Program("k", s.regions); err != nil {
			t.Fatal(err)
		}
		return g.Source()
	}
	if src(a[0]) != src(b[0]) {
		t.Fatal("same seed gave different kernels")
	}
	if src(a[0]) == src(c[0]) {
		t.Fatal("different seeds gave the same kernel")
	}
}

// lastJSON parses the report's final line.
func lastJSON(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return r
}

func TestCorruptOracleFails(t *testing.T) {
	ctx := context.Background()
	env := &setupEnv{seed: 1, par: 1}
	b, err := setupStreams(ctx, env)
	if err != nil {
		t.Fatal(err)
	}
	if env.checks == 0 || len(env.fails) != 0 {
		t.Fatalf("set-up made %d checks with failures %v", env.checks, env.fails)
	}
	for _, in := range b.(*streams).inputs {
		in.want = append([]byte(nil), in.want...)
		in.want[0] ^= 1
	}
	ph := runPhase(ctx, b, 1, 50*time.Millisecond, nil)
	if ph.ops == 0 || ph.failed != ph.ops {
		t.Fatalf("%d of %d ops failed against corrupted oracles; want all", ph.failed, ph.ops)
	}
	var out bytes.Buffer
	r := &runner{w: &workload{name: "stream-launches"}, stdout: &out, checks: env.checks}
	r.report(ph, []metric{{"op_ms_p50", "ms", median(ph.latMS)}}, nil)
	res := lastJSON(t, out.String())
	if res.Correct || res.Failed != ph.ops || res.Attempted != ph.ops+env.checks {
		t.Fatalf("result %+v; want incorrect with %d failed of %d", res, ph.ops, ph.ops+env.checks)
	}
	if !strings.Contains(out.String(), "failed_frac") || strings.Contains(out.String(), "failed_frac 0\n") {
		t.Fatalf("report does not show a positive failed_frac:\n%s", out.String())
	}
}

// TestDigestRepeats sets every workload up twice with one seed and
// checks that its modeled-stats digest repeats, and that the two sweep
// workloads, which draw the same points, print the same digest.
func TestDigestRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	ctx := context.Background()
	digest := func(w workload) uint64 {
		env := &setupEnv{seed: 3, par: 2}
		b, err := w.setup(ctx, env)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(env.fails) != 0 {
			t.Fatalf("%s: set-up checks failed: %v", w.name, env.fails)
		}
		d, _, err := b.finish(ctx)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		return d
	}
	got := map[string]uint64{}
	for _, w := range workloads {
		a, b := digest(w), digest(w)
		if a != b {
			t.Errorf("%s: digest %#x then %#x for one seed", w.name, a, b)
		}
		got[w.name] = a
	}
	if got["memsys-sweep"] != got["replay-sweep"] {
		t.Errorf("memsys-sweep digest %#x, replay-sweep %#x; the replayed points must match full simulation",
			got["memsys-sweep"], got["replay-sweep"])
	}
}

// TestMetricsMatchBenchmarkJSON runs the cheapest workload both ways
// and checks every metric BENCHMARK.json names is reported, with its
// unit, and nothing else.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var out bytes.Buffer
		args := []string{"--workload", "stream-launches", "--seed", "5", "--seconds", "1", "--trace", trace, "--out", t.TempDir()}
		if code := run(args, &out); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", trace, code, out.String())
		}
		res := lastJSON(t, out.String())
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("trace %s: %+v", trace, res)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got["unit"] != m.Unit {
				t.Errorf("trace %s: metric %s = %v, want unit %s", trace, m.Name, got, m.Unit)
			}
		}
	}
}
