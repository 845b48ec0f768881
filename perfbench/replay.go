package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"pride/internal/addrmap"
	"pride/internal/dram"
	"pride/internal/sim"
	"pride/internal/system"
	"pride/internal/trace"
	"pride/internal/workload"
)

// replayGenerator is the SPEC-like generator the replay traces come from.
const replayGenerator = "mcf"

// replayCLIConfig is the topology pride-replay builds for a trace under its
// default flags (scheme PrIDE, TRH 1000, tracker seed 1, no RFM budgets).
func replayCLIConfig(m addrmap.Mapping) (system.TopologyConfig, error) {
	scheme, err := sim.SchemeByName("PrIDE")
	if err != nil {
		return system.TopologyConfig{}, err
	}
	return system.TopologyConfig{Params: dram.DDR5(), Mapping: m, Scheme: scheme, TRH: 1000, Seed: 1}, nil
}

func generatorSpec(name string) (workload.Spec, error) {
	for _, s := range workload.All() {
		if s.Name == name {
			return s, nil
		}
	}
	return workload.Spec{}, fmt.Errorf("no workload generator %q", name)
}

// writeTrace generates n records of the replay generator under the default
// DDR5 mapping and writes them as a binary trace at path. It times the
// generator (workload.gen) and the writer (trace.write) separately.
func writeTrace(path string, n int, seed uint64) (gen, write time.Duration, err error) {
	spec, err := generatorSpec(replayGenerator)
	if err != nil {
		return 0, 0, err
	}
	src := workload.NewAddrSource(spec, addrmap.DefaultDDR5(), n, seed)
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	tw, err := trace.NewWriter(f, src.Mapping(), uint64(n))
	if err != nil {
		return 0, 0, err
	}
	buf := make([]uint64, 4096)
	for {
		t0 := time.Now()
		k, rerr := src.ReadBatch(buf)
		t1 := time.Now()
		gen += t1.Sub(t0)
		if k > 0 {
			if err := tw.WriteBatch(buf[:k]); err != nil {
				return 0, 0, err
			}
			write += time.Since(t1)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return 0, 0, rerr
		}
	}
	t0 := time.Now()
	if err := tw.Close(); err != nil {
		return 0, 0, err
	}
	if err := f.Close(); err != nil {
		return 0, 0, err
	}
	return gen, write + time.Since(t0), nil
}

// traceSetup is the median of a run's set-ups of one trace.
type traceSetup struct {
	wall, gen, write float64
}

// setupTraces writes the trace at path e.size.setups times and returns the
// median timings. extra, when non-nil, runs after each write and counts
// toward the set-up's wall time.
func setupTraces(e *env, path string, n int, extra func() error) (traceSetup, error) {
	var walls, gens, writes []float64
	for i := 0; i < e.size.setups; i++ {
		t0 := time.Now()
		gen, write, err := writeTrace(path, n, e.seed)
		if err != nil {
			return traceSetup{}, fmt.Errorf("set-up: %v", err)
		}
		if extra != nil {
			if err := extra(); err != nil {
				return traceSetup{}, fmt.Errorf("set-up: %v", err)
			}
		}
		walls = append(walls, time.Since(t0).Seconds())
		gens = append(gens, gen.Seconds())
		writes = append(writes, write.Seconds())
	}
	return traceSetup{wall: median(walls), gen: median(gens), write: median(writes)}, nil
}

// replayOutput is what pride-replay prints for a trace: the per-channel table
// rows and the fingerprint line.
type replayOutput struct {
	rows     [][]string
	replayed string
	acts     uint64
}

func expectedReplayOutput(res system.ReplayResult) replayOutput {
	out := replayOutput{replayed: fmt.Sprintf("replayed %d records crc=%08x shards=%d flips=%d",
		res.Records, res.CRC32, len(res.Shards), res.TotalFlips())}
	for _, c := range res.PerChannel() {
		out.rows = append(out.rows, row(c.Channel, c.ACTs, c.REFs, c.RFMs, c.Mitigations, c.VictimRefreshes, c.Flips, c.MaxDisturbance))
		out.acts += c.ACTs
	}
	return out
}

// check compares a pride-replay stdout with the library's output for the
// same trace.
func (want replayOutput) check(stdout string) error {
	if err := compareRows(tableRows(stdout), want.rows); err != nil {
		return fmt.Errorf("pride-replay table against the library: %v", err)
	}
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "replayed ") {
			if line != want.replayed {
				return fmt.Errorf("pride-replay against the library: got %q, want %q", line, want.replayed)
			}
			return nil
		}
	}
	return fmt.Errorf("pride-replay: no %q line", "replayed")
}

func replayArgs(path string) []string {
	return []string{"-trace", path, "-workers", strconv.Itoa(workers)}
}

// replayExpect writes the seed's trace and returns pride-replay's stdout for
// it.
func replayExpect(ctx context.Context, e *env) (string, error) {
	path := filepath.Join(e.work, "replay.trace")
	if _, _, err := writeTrace(path, e.size.replayRecords, e.seed); err != nil {
		return "", err
	}
	r, err := runProc(ctx, e.binary("pride-replay"), replayArgs(path)...)
	return r.stdout, err
}

// openTrace opens a binary trace for in-process replay.
func openTrace(path string) (*trace.Reader, func(), error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	r, err := trace.NewReader(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return r, func() { f.Close() }, nil
}

// replayInProcess replays the trace at path through system.ReplayCampaign
// with the CLI's configuration. sp, when non-nil, traces the call.
func replayInProcess(ctx context.Context, path string, sp *replaySpans) (system.ReplayResult, time.Duration, error) {
	r, closeTrace, err := openTrace(path)
	if err != nil {
		return system.ReplayResult{}, 0, err
	}
	defer closeTrace()
	cfg, err := replayCLIConfig(r.Mapping())
	if err != nil {
		return system.ReplayResult{}, 0, err
	}
	topo, err := system.NewTopology(cfg)
	if err != nil {
		return system.ReplayResult{}, 0, err
	}
	opts := system.ReplayOptions{Workers: workers}
	var src trace.Source = r
	if sp != nil {
		src = &timedSource{Source: r, sp: sp}
		opts.Observer = sp
		opts.Progress = sp
		stopHeap := sp.sampleHeap()
		defer stopHeap()
	}
	start := time.Now()
	res, err := topo.ReplayCampaign(ctx, src, opts)
	wall := time.Since(start)
	if sp != nil {
		sp.entry, sp.ret = start, start.Add(wall)
	}
	return res, wall, err
}

// replaySpans records the traced replay: time inside trace.Source.ReadBatch
// and when the last call returned, shard lifecycle callbacks from the
// trialrunner pool, demuxed records from the ReplaySink, and the peak heap
// sampled with runtime.ReadMemStats.
type replaySpans struct {
	read       time.Duration // written by the demux goroutine only
	readEnd    time.Time     // likewise
	entry, ret time.Time

	mu         sync.Mutex
	firstStart time.Time
	lastEnd    time.Time
	shards     []time.Duration
	records    int64
	heapPeak   uint64
}

type timedSource struct {
	trace.Source
	sp *replaySpans
}

func (s *timedSource) ReadBatch(dst []uint64) (int, error) {
	t0 := time.Now()
	n, err := s.Source.ReadBatch(dst)
	s.sp.readEnd = time.Now()
	s.sp.read += s.sp.readEnd.Sub(t0)
	return n, err
}

func (sp *replaySpans) TrialStart(int) {
	now := time.Now()
	sp.mu.Lock()
	if sp.firstStart.IsZero() {
		sp.firstStart = now
	}
	sp.mu.Unlock()
}

func (sp *replaySpans) TrialEnd(_ int, d time.Duration) {
	now := time.Now()
	sp.mu.Lock()
	sp.lastEnd = now
	sp.shards = append(sp.shards, d)
	sp.mu.Unlock()
}

func (sp *replaySpans) AddRecords(n int64) {
	sp.mu.Lock()
	sp.records += n
	sp.mu.Unlock()
}

func (sp *replaySpans) AddBytes(int64) {}

// sampleHeap samples the heap every 5 ms until the returned stop is called.
func (sp *replaySpans) sampleHeap() (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			sp.mu.Lock()
			sp.heapPeak = max(sp.heapPeak, ms.HeapAlloc)
			sp.mu.Unlock()
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

func (sp *replaySpans) stages() replayStages {
	since := func(t time.Time) float64 { return t.Sub(sp.entry).Seconds() }
	return newReplayStages(sp.read.Seconds(), since(sp.readEnd), since(sp.firstStart), since(sp.lastEnd), since(sp.ret))
}

func runReplayTrace(ctx context.Context, e *env, traced bool) (result, error) {
	path := filepath.Join(e.work, "replay.trace")
	n := e.size.replayRecords
	st, err := setupTraces(e, path, n, nil)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(e.out, "# set-up: %d records of %s written to a binary trace (median of %d)\n", n, replayGenerator, e.size.setups)
	m := newMetrics(traced)
	t := &tally{out: e.out}
	if traced {
		m.set("workload.gen_s", st.gen, "time inside workload.AddrSource.ReadBatch during set-up")
		m.set("trace.write_s", st.write, "time inside trace.Writer.WriteBatch and Close during set-up")
		if err := tracedReplay(ctx, e, path, m, t); err != nil {
			return result{}, err
		}
	} else {
		m.set("setup_s", st.wall, fmt.Sprintf("median of %d trace generations+writes", e.size.setups))
		runs, window := e.runCLI(ctx, t, e.size.replayOpSeconds, "pride-replay", replayArgs(path)...)
		// The library's output comes after the timed runs, so its memory
		// and CPU never overlap them.
		res, _, err := replayInProcess(ctx, path, nil)
		if err != nil {
			return result{}, fmt.Errorf("library output: %v", err)
		}
		want := expectedReplayOutput(res)
		if err := e.checkCLIRuns(t, "replay-trace", runs, want.check); err != nil {
			return result{}, err
		}
		setCLIMetrics(m, runs, window, float64(res.Records), float64(want.acts))
	}
	m.printNotes(e.out)
	return m.result(t)
}

// setCLIMetrics fills the end-to-end metrics of a CLI workload from its
// checked runs: one closed-loop client, one operation per process.
func setCLIMetrics(m *metrics, runs []procResult, window, recordsPerRun, actsPerRun float64) {
	var walls, firsts []float64
	rss := 0.0
	for _, r := range runs {
		walls = append(walls, r.wall.Seconds())
		firsts = append(firsts, r.firstByte.Seconds()*1000)
		rss = max(rss, r.maxRSSMB)
	}
	ok := float64(len(runs))
	m.set("records_per_s", recordsPerRun*ok/window, "ACT records fed to the device model per wall second")
	m.set("sim_acts_per_s", actsPerRun*ok/window, "simulated demand ACTs per wall second")
	m.set("jobs_per_s", ok/window, "CLI runs completed per wall second (closed loop, 1 client)")
	ts, tj := tail(firsts), tail(walls)
	m.set("submit_p50_ms", median(firsts), fmt.Sprintf("exec until the first byte of output, median of %d", len(firsts)))
	m.set("submit_tail_ms", ts.value, "exec until the first byte of output, "+ts.String())
	m.set("job_p50_s", median(walls), fmt.Sprintf("exec until exit, median of %d", len(walls)))
	m.set("job_tail_s", tj.value, "exec until exit, "+tj.String())
	m.set("peak_rss_mb", rss, "largest maxrss of the run's CLI processes")
}

// tracedReplay measures the replay layers: in-process ReplayCampaign runs,
// untraced and traced in turn, and a profiled pride-replay run.
func tracedReplay(ctx context.Context, e *env, path string, m *metrics, t *tally) error {
	const pairs = 3
	var (
		plain, traced []float64
		spans         []*replaySpans
		want          replayOutput
	)
	for i := 0; i < pairs; i++ {
		res, wall, err := replayInProcess(ctx, path, nil)
		if err != nil {
			return err
		}
		plain = append(plain, wall.Seconds())
		if i == 0 {
			want = expectedReplayOutput(res)
		}
		sp := &replaySpans{}
		tres, twall, err := replayInProcess(ctx, path, sp)
		if err != nil {
			return err
		}
		traced = append(traced, twall.Seconds())
		spans = append(spans, sp)
		err = compareRows(expectedReplayOutput(tres).rows, want.rows)
		if err == nil && (sp.records != int64(tres.Records) || len(sp.shards) != len(tres.Shards)) {
			err = fmt.Errorf("traced replay saw %d records and %d shards, result has %d and %d",
				sp.records, len(sp.shards), tres.Records, len(tres.Shards))
		}
		t.op(err)
	}
	// Spans come from the traced run with the median wall time.
	mid := 0
	med := median(traced)
	for i, w := range traced {
		if math.Abs(w-med) < math.Abs(traced[mid]-med) {
			mid = i
		}
	}
	sp := spans[mid]
	st := sp.stages()
	gap, ok := st.gap()
	m.set("traced_wall_s", med, fmt.Sprintf("median of %d traced ReplayCampaign calls", pairs))
	m.set("tracing_overhead_s", med-median(plain), fmt.Sprintf("traced minus untraced median (untraced %.4fs)", median(plain)))
	m.set("trace.read_s", st.read, "time inside trace.Source.ReadBatch")
	m.set("system.demux_s", st.demux, "entry until the last ReadBatch returned, minus trace.read_s")
	m.set("system.pool_s", st.pool, "first TrialStart until the last TrialEnd")
	m.set("system.merge_s", st.merge, "last TrialEnd until return")
	m.set("system.stage_gap_s", gap, fmt.Sprintf("traced wall minus stage sum: the end of reading until the first TrialStart, negative if the stages overlap (bound ±%.4fs)", stageTolerance(st.wall)))
	var sum, maxShard float64
	for _, d := range sp.shards {
		sum += d.Seconds()
		maxShard = max(maxShard, d.Seconds())
	}
	m.set("system.shard_sum_s", sum, fmt.Sprintf("%d shards", len(sp.shards)))
	m.set("system.shard_max_s", maxShard, "")
	m.set("system.shard_skew", maxShard/(sum/float64(len(sp.shards))), "max / mean shard time")
	m.set("trialrunner.idle_ratio", 1-sum/(workers*st.pool), fmt.Sprintf("1 - shard time / (%d workers x system.pool_s)", workers))
	m.set("system.heap_peak_mb", float64(sp.heapPeak)/(1<<20), "peak HeapAlloc sampled every 5 ms")
	verdict := "within"
	if !ok {
		verdict = "OUTSIDE"
	}
	fmt.Fprintf(e.out, "# stage sum: read %.4f + demux %.4f + pool %.4f + merge %.4f = %.4fs; traced wall %.4fs; gap %+.4fs, %s the bound ±%.4fs\n",
		st.read, st.demux, st.pool, st.merge, st.sum(), st.wall, gap, verdict, stageTolerance(st.wall))

	prof := filepath.Join(e.work, "replay.pprof")
	r, err := runProc(ctx, e.binary("pride-replay"), append(replayArgs(path), "-cpuprofile", prof)...)
	t.op(err)
	if err == nil {
		if err := e.checkCLIRuns(t, "replay-trace", []procResult{r}, want.check); err != nil {
			return err
		}
		if err := setProfileShares(ctx, m, prof); err != nil {
			return err
		}
	}
	return nil
}
