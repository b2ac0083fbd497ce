package device

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
	"sort"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sm"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden fixtures under testdata/ from the current simulator")

// goldenEntry pins the headline per-benchmark numbers of the default
// configuration (one SBI+SWI SM, flat-latency DRAM — the paper
// reproduction path). Any drift here changes the reproduced figures.
type goldenEntry struct {
	Cycles           int64   `json:"cycles"`
	ThreadInstrs     uint64  `json:"threadInstrs"`
	IssueSlots       uint64  `json:"issueSlots"`
	IPC              float64 `json:"ipc"`
	L1Hits           uint64  `json:"l1Hits"`
	L1Misses         uint64  `json:"l1Misses"`
	ScoreboardChecks uint64  `json:"scoreboardChecks"`
	ScoreboardStalls uint64  `json:"scoreboardStalls"`
	StructuralStalls uint64  `json:"structuralStalls"`
}

func goldenFromStats(s *sm.Stats) goldenEntry {
	return goldenEntry{
		Cycles:           s.Cycles,
		ThreadInstrs:     s.ThreadInstrs,
		IssueSlots:       s.IssueSlots,
		IPC:              math.Round(s.IPC()*10000) / 10000,
		L1Hits:           s.Mem.Hits,
		L1Misses:         s.Mem.Misses,
		ScoreboardChecks: s.ScoreboardChecks,
		ScoreboardStalls: s.ScoreboardStalls,
		StructuralStalls: s.StructuralStalls,
	}
}

func (g goldenEntry) fields() []goldenField {
	return []goldenField{
		{"cycles", g.Cycles},
		{"threadInstrs", g.ThreadInstrs},
		{"issueSlots", g.IssueSlots},
		{"ipc", g.IPC},
		{"l1Hits", g.L1Hits},
		{"l1Misses", g.L1Misses},
		{"scoreboardChecks", g.ScoreboardChecks},
		{"scoreboardStalls", g.ScoreboardStalls},
		{"structuralStalls", g.StructuralStalls},
	}
}

// archGoldenEntry pins, for every architecture, the cycle count and the
// scoreboard counters: the per-probe verdicts of every scheduler path
// (the baseline's two pools, the stack warps, DepWarp and DepMatrix
// dependency tracking, the SWI buddy probes and the idle-span
// fast-forward) show up in them exactly.
type archGoldenEntry struct {
	Cycles           int64  `json:"cycles"`
	ScoreboardChecks uint64 `json:"scoreboardChecks"`
	ScoreboardStalls uint64 `json:"scoreboardStalls"`
	StructuralStalls uint64 `json:"structuralStalls"`
}

func (g archGoldenEntry) fields() []goldenField {
	return []goldenField{
		{"cycles", g.Cycles},
		{"scoreboardChecks", g.ScoreboardChecks},
		{"scoreboardStalls", g.ScoreboardStalls},
		{"structuralStalls", g.StructuralStalls},
	}
}

// goldenField is one named, comparable fixture column.
type goldenField struct {
	name  string
	value interface{}
}

const (
	goldenPath     = "testdata/golden_stats.json"
	archGoldenPath = "testdata/golden_arch_stats.json"
)

// TestGoldenStats simulates the whole suite under the default device
// configuration and compares every benchmark's headline statistics
// against the checked-in fixture. It fails with one readable line per
// drifted number; run with -update to rewrite the fixture after an
// intentional timing-model change.
func TestGoldenStats(t *testing.T) {
	got := make(map[string]goldenEntry)
	for _, r := range runGoldenSuite(t, sm.ArchSBISWI) {
		got[r.Name()] = goldenFromStats(&r.Result.Stats)
	}
	checkGolden(t, goldenPath, got)
}

// TestGoldenArchStats runs the suite on every architecture and compares
// cycles and scoreboard counters against a fixture keyed "arch/kernel".
func TestGoldenArchStats(t *testing.T) {
	got := make(map[string]archGoldenEntry)
	for _, a := range sm.Architectures() {
		for _, r := range runGoldenSuite(t, a) {
			s := &r.Result.Stats
			got[a.String()+"/"+r.Name()] = archGoldenEntry{
				Cycles:           s.Cycles,
				ScoreboardChecks: s.ScoreboardChecks,
				ScoreboardStalls: s.ScoreboardStalls,
				StructuralStalls: s.StructuralStalls,
			}
		}
	}
	checkGolden(t, archGoldenPath, got)
}

// runGoldenSuite simulates the whole suite on one default-configured
// device of architecture a, failing the test on any error.
func runGoldenSuite(t *testing.T, a sm.Arch) []*SuiteResult {
	t.Helper()
	dev, err := New(WithArch(a))
	if err != nil {
		t.Fatal(err)
	}
	results, err := dev.RunSuite(context.Background(), kernels.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s on %v: %v", r.Name(), a, r.Err)
		}
	}
	return results
}

// checkGolden compares got against the fixture at path, one readable
// line per drifted number, or rewrites the fixture under -update.
func checkGolden[E interface{ fields() []goldenField }](t *testing.T, path string, got map[string]E) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", path, len(got))
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden fixture (regenerate with -update): %v", err)
	}
	var want map[string]E
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}

	var drift []string
	names := make([]string, 0, len(want))
	for name := range want { //sbwi:unordered names are sorted before use
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, ok := got[name]
		if !ok {
			drift = append(drift, fmt.Sprintf("%s: missing from the suite", name))
			continue
		}
		gf, wf := g.fields(), want[name].fields()
		for i := range gf {
			if gf[i].value != wf[i].value {
				drift = append(drift, fmt.Sprintf("%-22s %-16s got %-12v want %v", name, gf[i].name, gf[i].value, wf[i].value))
			}
		}
	}
	gotNames := make([]string, 0, len(got))
	for name := range got { //sbwi:unordered names are sorted before use
		gotNames = append(gotNames, name)
	}
	sort.Strings(gotNames)
	for _, name := range gotNames {
		if _, ok := want[name]; !ok {
			drift = append(drift, fmt.Sprintf("%s: new benchmark not in the fixture (run -update)", name))
		}
	}
	if len(drift) > 0 {
		t.Errorf("statistics drifted from the golden fixture %s (%d numbers):\n  %s\nIf the change is intentional, regenerate with `go test ./internal/device -run TestGolden -update`.",
			path, len(drift), strings.Join(drift, "\n  "))
	}
}

// engineGoldenEntry pins one suite kernel through one launch engine
// shape: the default fixture's counters plus how the launch was laid
// out over the device (modeled wall-clock, per-SM cycle packing, wave
// and port counts) and the shared hierarchy's traffic.
type engineGoldenEntry struct {
	goldenEntry
	DeviceCycles   int64   `json:"deviceCycles"`
	SMCycles       []int64 `json:"smCycles"`
	Waves          int     `json:"waves"`
	NoCPorts       int     `json:"nocPorts"`
	L2Loads        uint64  `json:"l2Loads"`
	L2Stores       uint64  `json:"l2Stores"`
	NoCRequests    uint64  `json:"nocRequests"`
	NoCQueueCycles uint64  `json:"nocQueueCycles"`
}

func (g engineGoldenEntry) fields() []goldenField {
	return append(g.goldenEntry.fields(),
		goldenField{"deviceCycles", g.DeviceCycles},
		goldenField{"smCycles", fmt.Sprint(g.SMCycles)},
		goldenField{"waves", g.Waves},
		goldenField{"nocPorts", g.NoCPorts},
		goldenField{"l2Loads", g.L2Loads},
		goldenField{"l2Stores", g.L2Stores},
		goldenField{"nocRequests", g.NoCRequests},
		goldenField{"nocQueueCycles", g.NoCQueueCycles},
	)
}

const engineGoldenPath = "testdata/golden_engine_stats.json"

// TestGoldenEngineStats runs every suite kernel on SBI+SWI through each
// launch shape the device supports — flat partitioned at one and three
// SMs, the modeled memory system whole-grid and partitioned, and a
// trace-replayed partitioned memory-system run — and compares the
// results against a fixture keyed "shape/kernel". The default fixture
// pins only the whole-grid flat path; this one pins the rest.
func TestGoldenEngineStats(t *testing.T) {
	memsys := []Option{WithL2(mem.DefaultL2()), WithInterconnect(noc.Default())}
	shapes := []struct {
		name   string
		replay bool
		opts   []Option
	}{
		{"flat-part-1", false, []Option{WithSMs(1), WithGridPartition(true)}},
		{"flat-part-3", false, []Option{WithSMs(3), WithGridPartition(true)}},
		{"memsys-whole", false, memsys},
		{"memsys-part-4", false, append([]Option{WithSMs(4), WithGridPartition(true)}, memsys...)},
		{"replay-memsys-part-4", true, append([]Option{WithSMs(4), WithGridPartition(true), WithReplayLog(io.Discard)}, memsys...)},
	}
	got := make(map[string]engineGoldenEntry)
	for _, sh := range shapes {
		dev, err := New(append([]Option{WithArch(sm.ArchSBISWI)}, sh.opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range kernels.All() {
			l, err := b.NewLaunch(true)
			if err != nil {
				t.Fatal(err)
			}
			var res *sm.Result
			if sh.replay {
				res, err = dev.RunTraceReplay(context.Background(), l)
			} else {
				res, err = dev.Run(context.Background(), l)
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", sh.name, b.Name, err)
			}
			if !bytes.Equal(l.Global, b.Expected()) {
				t.Fatalf("%s/%s: simulation diverged from the reference oracle", sh.name, b.Name)
			}
			s := &res.Stats
			got[sh.name+"/"+b.Name] = engineGoldenEntry{
				goldenEntry:    goldenFromStats(s),
				DeviceCycles:   res.DeviceCycles(),
				SMCycles:       res.SMCycles,
				Waves:          len(res.Waves),
				NoCPorts:       len(res.NoCPorts),
				L2Loads:        s.Mem.L2.Loads,
				L2Stores:       s.Mem.L2.Stores,
				NoCRequests:    s.Mem.NoC.Requests,
				NoCQueueCycles: s.Mem.NoC.QueueCycles,
			}
		}
	}
	checkGolden(t, engineGoldenPath, got)
}
