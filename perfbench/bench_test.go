package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// binDir holds the CLIs built from the repository for the tests.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-bin")
	if err != nil {
		panic(err)
	}
	cmd := exec.Command("go", "build", "-o", dir+"/", "./cmd/pride-replay", "./cmd/pride-attack", "./cmd/pride-serve")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("building the CLIs: " + err.Error() + "\n" + string(out))
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// smallEnv runs at the small size on the held-out seed, compared with the
// expected outputs in dir.
func smallEnv(t *testing.T, dir string) (*env, *bytes.Buffer) {
	var out bytes.Buffer
	e := &env{bin: binDir, seed: heldOutSeed, seconds: smallSeconds, size: smallSizes(), out: &out, expectDir: dir}
	return e, &out
}

func metricNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

func TestWorkloadsPassTheirOutputChecks(t *testing.T) {
	for _, b := range benches {
		for _, traced := range []bool{false, true} {
			e, out := smallEnv(t, "expected")
			res, err := runOne(context.Background(), b, t.TempDir(), e, traced)
			if err != nil {
				t.Fatalf("%s traced=%t: %v\n%s", b.name, traced, err, out)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s traced=%t: correct=%t failed=%d attempted=%d\n%s",
					b.name, traced, res.Correct, res.Failed, res.Attempted, out)
			}
			for _, want := range []string{"# expected output: expected/" + b.name + "-small-seed2.txt", "# canary: " + b.name} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("%s traced=%t: no %q in the report\n%s", b.name, traced, want, out)
				}
			}
			want := endToEnd
			if traced {
				want = perLayer()
			}
			if got := sortedKeys(res.Metrics); strings.Join(got, ",") != strings.Join(metricNames(want), ",") {
				t.Errorf("%s traced=%t: metrics %v, want %v", b.name, traced, got, metricNames(want))
			}
			for name, m := range res.Metrics {
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", b.name, name, m.Value)
				}
			}
		}
	}
}

// alterExpected copies the committed expected outputs to a new directory and
// changes the last character of every line of one of them.
func alterExpected(t *testing.T, workload string, seed uint64) string {
	dir := t.TempDir()
	files, err := filepath.Glob("expected/*.txt")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed expected outputs: %v", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(f) == filepath.Base(expectedPath("", workload, "small", seed)) {
			lines := strings.Split(string(data), "\n")
			for i, l := range lines {
				if l != "" {
					last := byte('x')
					if l[len(l)-1] == 'x' {
						last = 'y'
					}
					lines[i] = l[:len(l)-1] + string(last)
				}
			}
			data = []byte(strings.Join(lines, "\n"))
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestAlteredExpectedOutputIsAFailure(t *testing.T) {
	for _, b := range benches {
		e, out := smallEnv(t, alterExpected(t, b.name, heldOutSeed))
		res, err := runOne(context.Background(), b, t.TempDir(), e, false)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		// Every operation compared with the altered file fails. The canary
		// and, on serve-mix, the repeats (compared with their first result)
		// and the daemon pass itself still pass.
		if res.Correct || res.Failed == 0 || (b.name != "serve-mix" && res.Failed != res.Attempted-1) {
			t.Errorf("%s with an altered expected output: correct=%t failed=%d attempted=%d\n%s",
				b.name, res.Correct, res.Failed, res.Attempted, out)
		}
		if !strings.Contains(out.String(), "FAIL ") {
			t.Errorf("%s: the mismatch was not reported:\n%s", b.name, out)
		}
	}
}

func TestAlteredCanaryIsAFailure(t *testing.T) {
	for _, b := range benches {
		e, out := smallEnv(t, alterExpected(t, b.name, defaultSeed))
		res, err := runOne(context.Background(), b, t.TempDir(), e, false)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if res.Correct || res.Failed != 1 || !strings.Contains(out.String(), "FAIL canary") {
			t.Errorf("%s with an altered canary: correct=%t failed=%d attempted=%d\n%s",
				b.name, res.Correct, res.Failed, res.Attempted, out)
		}
	}
}

// TestCommittedExpectedOutputsAreCurrent regenerates the small expected
// outputs of both seeds from the programs and compares them with the
// committed files: a change that alters a simulated statistic fails here.
func TestCommittedExpectedOutputsAreCurrent(t *testing.T) {
	for _, b := range benches {
		for _, seed := range expectedSeeds {
			base, _ := smallEnv(t, "expected")
			e, err := base.smallEnv(seed, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.expect(context.Background(), e)
			if err != nil {
				t.Fatalf("%s seed %d: %v", b.name, seed, err)
			}
			want, ok, err := e.committed(b.name)
			if err != nil || !ok {
				t.Fatalf("%s seed %d: no committed expected output (%v)", b.name, seed, err)
			}
			if err := compareText(b.name, got, want); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}
	}
}

func TestTailHasTenSamplesBeyondIt(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		value, pc float64
	}{
		{1, 1, 100},
		{19, 19, 100}, // too few samples for a tail at or above the median
		{20, 10, 50},
		{64, 54, 100 * 54.0 / 64},
		{1000, 990, 99},
	} {
		got := tail(seq(tc.n))
		if got.value != tc.value || math.Abs(got.pct-tc.pc) > 1e-9 || got.n != tc.n {
			t.Errorf("tail of 1..%d = %+v, want value %v at p%v", tc.n, got, tc.value, tc.pc)
		}
		if tc.n >= 2*tailSamples {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > got.value {
					beyond++
				}
			}
			if beyond != tailSamples {
				t.Errorf("tail of 1..%d has %d samples beyond it, want %d", tc.n, beyond, tailSamples)
			}
		}
	}
}

func TestStageSumCheck(t *testing.T) {
	// Sequential stages add up to the wall time.
	st := newReplayStages(0.2, 0.5, 0.5, 0.95, 1.0)
	if gap, ok := st.gap(); !ok || math.Abs(gap) > 1e-12 || math.Abs(st.demux-0.3) > 1e-12 {
		t.Errorf("sequential stages: demux %v gap %v ok %t", st.demux, gap, ok)
	}
	// Time between the end of reading and the first shard start belongs to
	// no stage: it is reported as a positive gap.
	st = newReplayStages(0.2, 0.5, 0.6, 0.95, 1.0)
	if gap, ok := st.gap(); ok || math.Abs(gap-0.1) > 1e-12 {
		t.Errorf("0.1s between reading and the pool: gap %v ok %t, want 0.1 and not ok", gap, ok)
	}
	// Reading that overlaps the shard pool is reported as a negative gap,
	// not hidden.
	st = newReplayStages(0.2, 0.6, 0.5, 0.95, 1.0)
	if gap, ok := st.gap(); ok || math.Abs(gap+0.1) > 1e-12 {
		t.Errorf("overlapping read: gap %v ok %t, want -0.1 and not ok", gap, ok)
	}
	// A gap within the tolerance passes.
	st = newReplayStages(0.2, 0.5, 0.51, 0.95, 1.0)
	if _, ok := st.gap(); !ok {
		t.Errorf("a 10ms gap on a 1s wall is outside the bound ±%v", stageTolerance(1.0))
	}
}

func TestServePlan(t *testing.T) {
	sz := smallSizes().serve
	const n = 40
	p := plan(defaultSeed, 0, n, sz, "/t")
	if again := plan(defaultSeed, 0, n, sz, "/t"); !samePlan(p, again) {
		t.Fatal("the plan is not deterministic for a seed")
	}
	if other := plan(heldOutSeed, 0, n, sz, "/t"); samePlan(p, other) {
		t.Fatal("two seeds gave the same plan")
	}
	if other := plan(defaultSeed, 1, n, sz, "/t"); samePlan(p, other) {
		t.Fatal("two clients got the same plan")
	}
	var freshKinds, repeatKinds []string
	seen := map[string]bool{}
	for i, s := range p {
		spec, _ := json.Marshal(s.spec)
		if s.repeatOf >= 0 {
			repeatKinds = append(repeatKinds, s.kind)
			first, _ := json.Marshal(p[s.repeatOf].spec)
			if s.repeatOf >= i || p[s.repeatOf].repeatOf >= 0 || p[s.repeatOf].kind != s.kind || !bytes.Equal(spec, first) {
				t.Errorf("submission %d repeats %d, which is not an earlier fresh spec", i, s.repeatOf)
			}
			continue
		}
		if seen[string(spec)] {
			t.Errorf("fresh submission %d repeats an earlier spec", i)
		}
		seen[string(spec)] = true
		freshKinds = append(freshKinds, s.kind)
	}
	if len(p) != n || len(repeatKinds) != n/repeatEvery {
		t.Errorf("%d submissions with %d repeats, want %d with %d", len(p), len(repeatKinds), n, n/repeatEvery)
	}
	want := append([]string(nil), mixCycle...)
	sort.Strings(want)
	for _, kinds := range [][]string{freshKinds, repeatKinds} {
		for i := 0; i+len(mixCycle) <= len(kinds); i += len(mixCycle) {
			round := append([]string(nil), kinds[i:i+len(mixCycle)]...)
			sort.Strings(round)
			if strings.Join(round, ",") != strings.Join(want, ",") {
				t.Errorf("kinds %d..%d = %v, want the shares of mixCycle", i, i+len(mixCycle)-1, round)
			}
		}
	}
}

func samePlan(a, b []submission) bool {
	ja, _ := json.Marshal(planView(a))
	jb, _ := json.Marshal(planView(b))
	return bytes.Equal(ja, jb)
}

func planView(p []submission) []any {
	var out []any
	for _, s := range p {
		out = append(out, []any{s.kind, s.spec, s.repeatOf})
	}
	return out
}

func TestProfileShares(t *testing.T) {
	const top = `File: pride-replay
Showing nodes accounting for 1.76s, 100% of 1.76s total
      flat  flat%   sum%        cum   cum%
         0     0%     0%      0.99s 56.25%  pride/internal/system.(*Topology).replayShard
     0.04s  2.27%  2.84%      0.98s 55.68%  pride/internal/memctrl.(*Controller).Activate
     0.14s  7.95% 10.80%      0.76s 43.18%  pride/internal/system.(*Topology).demux
     0.35s 19.89% 30.68%      0.56s 31.82%  pride/internal/dram.(*Bank).Activate
     0.31s 17.61% 48.30%      0.31s 17.61%  runtime.duffcopy
     0.13s  7.39% 80.11%      0.13s  7.39%  runtime.memmove
     0.12s  6.82% 86.93%      0.12s  6.82%  pride/internal/addrmap.Compiled.Route (inline)
         0     0% 90.00%      0.05s  2.84%  runtime.gcBgMarkWorker
`
	lines, err := parseProfileTop(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"prof.system.demux":             0.4318,
		"prof.memctrl.Activate":         0.5568,
		"prof.memctrl.ActivateRunGroup": 0,
		"prof.dram.Activate":            0.3182,
		"prof.addrmap.Route":            0.0682,
		"prof.runtime.copy":             0.1761 + 0.0739,
		"prof.runtime.gc":               0.0284,
	}
	for _, p := range profEntries {
		w, ok := want[p.metric]
		if !ok {
			continue
		}
		if got := p.share(lines); math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", p.metric, got, w)
		}
	}
	if _, err := parseProfileTop("no listing here"); err == nil {
		t.Error("a pprof output without a listing parsed")
	}
}

// TestBenchmarkJSONMatchesTheMetricTables keeps BENCHMARK.json, which the
// benchmark is run by, in step with the metrics the code reports.
func TestBenchmarkJSONMatchesTheMetricTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range benches {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	for _, tc := range []struct {
		name string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer()}} {
		var got, want []string
		for _, m := range tc.got {
			got = append(got, m.Name+"/"+m.Unit)
		}
		for _, d := range tc.want {
			want = append(want, d.name+"/"+d.unit)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("BENCHMARK.json %s = %v, want %v", tc.name, got, want)
		}
	}
}

func TestMissingBinariesFailWithoutAResult(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"--workload", "replay-trace", "--bin", t.TempDir(), "--work", t.TempDir()}, &stdout, &stderr)
	if code == 0 || stdout.Len() != 0 {
		t.Errorf("exit %d, stdout %q; want a non-zero exit and no result", code, stdout.String())
	}
}
