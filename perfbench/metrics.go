package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"pride/internal/corpus"
	"pride/internal/sim"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports all of
// them; README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"records_per_s", "1/s"},
	{"sim_acts_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"submit_p50_ms", "ms"},
	{"submit_tail_ms", "ms"},
	{"job_p50_s", "s"},
	{"job_tail_s", "s"},
	{"peak_rss_mb", "MB"},
}

// serveKinds are the serve-mix job kinds.
var serveKinds = []string{"security", "attack", "ttfsim", "replay-gen", "replay-file"}

// attackSchemes are the Fig 15 schemes plus the zoo, as pride-attack -zoo
// runs them.
func attackSchemes() []sim.Scheme { return append(sim.Fig15Schemes(), sim.ZooSchemes()...) }

// perLayer are the metrics of a traced run. Every workload reports all of
// them; a layer the workload does not exercise reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"traced_wall_s", "s"},
		{"tracing_overhead_s", "s"},
		{"workload.gen_s", "s"},
		{"trace.write_s", "s"},
		{"trace.read_s", "s"},
		{"system.demux_s", "s"},
		{"system.pool_s", "s"},
		{"system.merge_s", "s"},
		{"system.stage_gap_s", "s"},
		{"system.shard_sum_s", "s"},
		{"system.shard_max_s", "s"},
		{"system.shard_skew", "ratio"},
		{"system.heap_peak_mb", "MB"},
		{"patterns.suite_s", "s"},
	}
	for _, s := range attackSchemes() {
		defs = append(defs, metricDef{"sim.scheme_s." + corpus.Slug(s.Name), "s"})
	}
	defs = append(defs,
		metricDef{"sim.trial_p50_ms", "ms"},
		metricDef{"sim.trial_tail_ms", "ms"},
		metricDef{"trialrunner.idle_ratio", "ratio"},
		metricDef{"server.submit_hit_p50_ms", "ms"},
		metricDef{"server.submit_miss_p50_ms", "ms"},
		metricDef{"server.queue_wait_p50_s", "s"},
	)
	for _, k := range serveKinds {
		defs = append(defs, metricDef{"server.submit_p50_ms." + k, "ms"})
	}
	for _, k := range serveKinds {
		defs = append(defs, metricDef{"server.run_s." + k, "s"})
	}
	defs = append(defs,
		metricDef{"server.cache_hit_ratio", "ratio"},
		metricDef{"server.attempts_per_job", "count"},
	)
	for _, p := range profEntries {
		defs = append(defs, metricDef{p.metric, "share"})
	}
	return defs
}

// metrics collects a run's values under the names of one metric table and
// annotates each with how it was measured.
type metrics struct {
	defs  []metricDef
	vals  map[string]float64
	notes map[string]string
}

func newMetrics(traced bool) *metrics {
	defs := endToEnd
	if traced {
		defs = perLayer()
	}
	m := &metrics{defs: defs, vals: map[string]float64{}, notes: map[string]string{}}
	if traced {
		// Layers a workload never enters report zero host time.
		for _, d := range defs {
			m.vals[d.name] = 0
		}
	}
	return m
}

func (m *metrics) set(name string, v float64, note string) {
	if !m.known(name) {
		panic("perfbench: unknown metric " + name)
	}
	m.vals[name] = v
	if note != "" {
		m.notes[name] = note
	}
}

func (m *metrics) known(name string) bool {
	for _, d := range m.defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// result builds the run's JSON result. It fails if a metric of the table is
// missing, which is a bug in the workload.
func (m *metrics) result(t *tally) (result, error) {
	out := map[string]metric{}
	for _, d := range m.defs {
		v, ok := m.vals[d.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: out}, nil
}

// printNotes writes how each annotated metric was measured.
func (m *metrics) printNotes(w io.Writer) {
	for _, name := range sortedKeys(m.notes) {
		fmt.Fprintf(w, "# %s: %s\n", name, m.notes[name])
	}
}

// tally counts attempted and failed operations. A failure is never dropped:
// every mismatch of an output against its expected value counts once.
type tally struct {
	out       io.Writer
	attempted int
	failed    int
}

// op records one attempted operation; a non-nil err marks it failed.
func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fail(t.out, "%v", err)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailStat is a latency tail: a value, the percentile it sits at and the
// sample count it was taken from.
type tailStat struct {
	value, pct float64
	n          int
}

func (t tailStat) String() string {
	return fmt.Sprintf("p%.1f of %d samples", t.pct, t.n)
}

// tailSamples is how many samples must lie beyond a reported tail.
const tailSamples = 10

// tail returns the highest percentile that still has tailSamples samples
// beyond it: the (tailSamples+1)-th largest sample. Below 2*tailSamples
// samples that percentile would fall under the median, so the maximum is
// reported instead (pct 100).
func tail(xs []float64) tailStat {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return tailStat{value: math.NaN()}
	}
	if n < 2*tailSamples {
		return tailStat{value: s[n-1], pct: 100, n: n}
	}
	return tailStat{value: s[n-1-tailSamples], pct: 100 * float64(n-tailSamples) / float64(n), n: n}
}

// replayStages is the traced replay's stage breakdown in the ROADMAP's
// decode -> route/demux -> per-bank simulate -> merge order, in seconds.
type replayStages struct {
	read, demux, pool, merge float64
	wall                     float64
}

// stageTolerance is the largest |stage sum - wall| the stage model may
// leave: 2% of the wall time, and never less than a millisecond of clock
// granularity.
func stageTolerance(wall float64) float64 { return math.Max(1e-3, 0.02*wall) }

// newReplayStages derives the stages from the traced replay's timestamps, in
// seconds since entry: when the last ReadBatch returned, the first shard
// start, the last shard end and the return. read is the time spent inside
// ReadBatch; demux is the rest of the time until reading ended. No stage owns
// the time from the end of reading to the first shard start, so it shows up
// as the gap, and an overlap of reading with the pool as a negative gap.
func newReplayStages(read, readEnd, firstStart, lastEnd, ret float64) replayStages {
	return replayStages{read: read, demux: readEnd - read, pool: lastEnd - firstStart, merge: ret - lastEnd, wall: ret}
}

func (s replayStages) sum() float64 { return s.read + s.demux + s.pool + s.merge }

// gap is the traced wall time the stages leave unaccounted (negative if
// they overlap); ok reports whether it is within stageTolerance.
func (s replayStages) gap() (gap float64, ok bool) {
	gap = s.wall - s.sum()
	return gap, math.Abs(gap) <= stageTolerance(s.wall)
}

// probe times a fixed CPU-bound loop. It is printed before and after a run
// so a run on a disturbed box is visible; it never rescales a metric.
func probe() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink = x
	return time.Since(start).Seconds()
}

var probeSink uint64

// printRunRecord writes the run record: the commit ("none" in a checkout
// without git), a digest of the sources, the Go version, nproc and
// GOMAXPROCS.
func printRunRecord(w io.Writer, workload string, seed uint64, traced bool) {
	commit := "none"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	fmt.Fprintf(w, "# run workload=%s seed=%d traced=%t commit=%s source=%s go=%s nproc=%d GOMAXPROCS=%d\n",
		workload, seed, traced, commit, sourceDigest(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// sourceDigest hashes go.mod and every file under cmd/ and internal/, which
// is what the benchmarked binaries are built from.
func sourceDigest() string {
	h := sha256.New()
	files := []string{"go.mod"}
	for _, dir := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				files = append(files, path)
			}
			return nil
		})
	}
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil)[:8])
}
