// Command pride-bench is the engine benchmark-regression harness: it runs
// the tier-2 engine benchmarks in-process via testing.Benchmark, emits a
// machine-readable JSON report (ns/op, ns/unit, allocs/op per engine), and
// optionally compares the fresh numbers against a committed baseline
// (BENCH_engines.json at the repository root).
//
// Usage:
//
//	pride-bench                                   # full scale, report to stdout
//	pride-bench -out BENCH_engines.json           # refresh the committed baseline
//	pride-bench -scale 100 -compare BENCH_engines.json -max-ns-regress -1
//	                                              # CI smoke: allocs-only gate
//
// Comparison semantics:
//
//   - Engines marked guard_allocs are the zero-allocation hot paths; any
//     allocs/op increase over the baseline fails the run. Allocations per op
//     are scale-invariant for these engines (one op = one activation), so
//     the gate is meaningful even for -scale smoke runs.
//   - Time is compared on ns/unit (roughly scale-invariant) with the
//     -max-ns-regress tolerance; a negative tolerance disables the time
//     gate, which is what CI uses on noisy shared runners.
//   - Benchmarks missing from the baseline are reported as NEW and pass;
//     baseline entries no longer measured are reported as GONE and pass.
//     Either state clears on the next `pride-bench -out BENCH_engines.json`.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"testing"

	"pride/internal/addrmap"
	"pride/internal/baseline"
	"pride/internal/core"
	"pride/internal/dram"
	eng "pride/internal/engine"
	"pride/internal/memctrl"
	"pride/internal/montecarlo"
	"pride/internal/patterns"
	"pride/internal/rng"
	"pride/internal/sim"
	"pride/internal/system"
	"pride/internal/trace"
	"pride/internal/workload"
)

const schemaVersion = 1

// engine is one harnessed benchmark: a named workload with a known per-op
// unit count so times can be compared across scales.
type engine struct {
	name string
	// unit is the work unit ("period", "ACT", "round").
	unit string
	// unitsPerOp is how many units one benchmark op processes.
	unitsPerOp int
	// guardAllocs marks the zero-allocation hot paths whose allocs/op must
	// never regress.
	guardAllocs bool
	bench       func(b *testing.B)
}

// record is one engine's measured result as serialized into the report.
type record struct {
	Name        string  `json:"name"`
	Unit        string  `json:"unit"`
	UnitsPerOp  int     `json:"units_per_op"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerUnit   float64 `json:"ns_per_unit"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	GuardAllocs bool    `json:"guard_allocs"`
}

// benchReport is the JSON document pride-bench emits.
type benchReport struct {
	SchemaVersion int      `json:"schema_version"`
	Scale         int      `json:"scale"`
	Benchmarks    []record `json:"benchmarks"`
}

// sink defeats dead-code elimination of benchmark results.
var sink uint64

// scaled divides a full-scale workload size by the smoke divisor, keeping a
// floor so even extreme scales exercise the real code paths.
func scaled(full, scale, min int) int {
	n := full / scale
	if n < min {
		n = min
	}
	return n
}

// engines builds the harnessed benchmark list at the given workload scale.
func engines(scale int) []engine {
	w := 79 // DDR5 ACTs per tREFI (Table I)

	lossPeriods := scaled(10_000_000, scale, 1_000)
	lossCfg := montecarlo.LossConfig{
		Entries: 1, Window: w, InsertionProb: 1.0 / float64(w), Periods: lossPeriods,
	}

	rounds := scaled(100_000, scale, 100)
	roundCfg := montecarlo.RoundConfig{
		Entries: 4, Window: w, InsertionProb: 1.0 / float64(w+1), TRH: 3800, Rounds: rounds,
	}

	attackACTs := scaled(200_000, scale, 1_000)
	ap := sim.AttackParams()
	attackCfg := sim.AttackConfig{Params: ap, ACTs: attackACTs}

	lossActs := scaled(400_000, scale, 1_000)

	sysTREFIs := scaled(20_000, scale, 50)
	sysCfg := system.Config{Params: ap, Banks: 4, TRH: 4000, MaxTREFI: sysTREFIs}

	// Server-scale replay workload: a 64-shard topology (4 channels x 2 ranks
	// x 8 banks) driven by the lbm-calibrated generator.
	replayMapping := addrmap.Mapping{ColumnBits: 4, BankBits: 3, RowBits: 12, RankBits: 1, ChannelBits: 2, XORBankHash: true}
	replayRecords := scaled(400_000, scale, 4_000)
	traceRecords := scaled(1<<21, scale, 8_192)

	return []engine{
		{
			name: "loss-engine-10M", unit: "period", unitsPerOp: lossPeriods,
			bench: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res := montecarlo.SimulateLoss(lossCfg, rng.New(1))
					sink += res.PerPosition[0].Insertions
				}
			},
		},
		{
			name: "loss-event-10M", unit: "period", unitsPerOp: lossPeriods,
			bench: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res := montecarlo.SimulateLossEvent(lossCfg, rng.New(1))
					sink += res.PerPosition[0].Insertions
				}
			},
		},
		{
			name: "rounds-engine", unit: "round", unitsPerOp: rounds,
			bench: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res := montecarlo.SimulateRounds(roundCfg, rng.New(1))
					sink += uint64(res.Failures)
				}
			},
		},
		{
			name: "rounds-event", unit: "round", unitsPerOp: rounds,
			bench: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res := montecarlo.SimulateRoundsEvent(roundCfg, rng.New(1))
					sink += uint64(res.Failures)
				}
			},
		},
		{
			name: "pride-hot-path", unit: "ACT", unitsPerOp: 1, guardAllocs: true,
			bench: func(b *testing.B) {
				trk := core.New(core.DefaultConfig(w), rng.New(1))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					trk.OnActivate(i & 0x1FFFF)
					if i%w == w-1 {
						trk.OnMitigate()
					}
				}
				sink += trk.Stats().Insertions
			},
		},
		{
			name: "para-hot-path", unit: "ACT", unitsPerOp: 1, guardAllocs: true,
			bench: func(b *testing.B) {
				trk := baseline.NewPARA(1.0/float64(w+1), rng.New(1))
				// Warm up so the pending-mitigation buffer reaches its
				// steady-state capacity before allocations are counted.
				for i := 0; i < 4*w; i++ {
					trk.OnActivate(i & 0x1FFFF)
				}
				trk.DrainImmediate()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					trk.OnActivate(i & 0x1FFFF)
					if i%w == w-1 {
						sink += uint64(len(trk.DrainImmediate()))
					}
				}
			},
		},
		{
			name: "pride-skip-path", unit: "insertion", unitsPerOp: 1, guardAllocs: true,
			bench: func(b *testing.B) {
				// The event engines' per-insertion inner loop: one geometric
				// gap draw, bulk idle advance split at mitigation boundaries,
				// one forced insertion. Must stay allocation-free.
				r := rng.New(1)
				trk := core.New(core.DefaultConfig(w), r)
				sk := rng.NewSkip(rng.NewThreshold(trk.InsertionProb()))
				b.ReportAllocs()
				b.ResetTimer()
				pos := 0
				for i := 0; i < b.N; i++ {
					g := r.SkipT(sk)
					for g >= w-pos {
						step := w - pos
						trk.AdvanceIdle(step)
						trk.OnMitigate()
						g -= step
						pos = 0
					}
					trk.AdvanceIdle(g)
					pos += g
					trk.ActivateInsert(i & 0x1FFFF)
					if pos++; pos == w {
						trk.OnMitigate()
						pos = 0
					}
				}
				sink += trk.Stats().Insertions
			},
		},
		{
			name: "group-run-path", unit: "ACT", unitsPerOp: 790, guardAllocs: true,
			bench: func(b *testing.B) {
				// The batched multi-row inner loop of the event engines: one
				// forced insertion, then a 789-ACT insertion-free walk of the
				// double-sided pair through ActivateRunGroup (boundary walk
				// until the REF cadence drains the FIFO, quiet-cadence
				// collapse for the rest). Must stay allocation-free once the
				// cycle plan is compiled.
				pat := patterns.DoubleSided(4000)
				rows, _ := pat.Group()
				ctrl := memctrl.New(memctrl.DefaultConfig(ap), dram.MustNewBank(ap, 0), core.New(core.DefaultConfig(w), rng.New(1)))
				ctrl.ActivateRunGroup(rows, 0, 790) // compile the plan outside the timer
				b.ReportAllocs()
				b.ResetTimer()
				phase := 0
				for i := 0; i < b.N; i++ {
					ctrl.ActivateInsert(rows[phase])
					phase = (phase + 1) % 2
					ctrl.ActivateRunGroup(rows, phase, 789)
					phase = (phase + 789) % 2
				}
				sink += ctrl.Stats().ACTs
			},
		},
		{
			name: "attack-engine", unit: "ACT", unitsPerOp: attackACTs,
			bench: func(b *testing.B) {
				pat := patterns.DoubleSided(4000)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := sim.RunAttack(attackCfg, sim.PrIDEScheme(), pat, uint64(i))
					sink += uint64(res.MaxDisturbance)
				}
			},
		},
		{
			name: "attack-event", unit: "ACT", unitsPerOp: attackACTs,
			bench: func(b *testing.B) {
				pat := patterns.DoubleSided(4000)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := sim.RunAttackEngine(attackCfg, sim.PrIDEScheme(), pat, uint64(i), eng.Event)
					sink += uint64(res.MaxDisturbance)
				}
			},
		},
		{
			name: "system-ttf-engine", unit: "tREFI", unitsPerOp: sysCfg.Banks * sysTREFIs,
			bench: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res := system.RunEngine(sysCfg, sim.PrIDEScheme(), uint64(i), eng.Exact)
					sink += uint64(res.TREFIsSimulated)
				}
			},
		},
		{
			name: "system-ttf-event", unit: "tREFI", unitsPerOp: sysCfg.Banks * sysTREFIs,
			bench: func(b *testing.B) {
				// The multi-tREFI bulk advance: at a surviving threshold the
				// per-bank pass retires thousands of refresh windows per gap
				// draw, so ns/tREFI collapses vs the stepped engine.
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res := system.RunEngine(sysCfg, sim.PrIDEScheme(), uint64(i), eng.Event)
					sink += uint64(res.TREFIsSimulated)
				}
			},
		},
		{
			name: "pattern-loss-engine", unit: "ACT", unitsPerOp: lossActs,
			bench: func(b *testing.B) {
				pat := patterns.DoubleSided(4000)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m := sim.MeasurePatternLoss(4, w, pat, lossActs, uint64(i))
					sink += uint64(len(m.Rows))
				}
			},
		},
		{
			name: "pattern-loss-event", unit: "ACT", unitsPerOp: lossActs,
			bench: func(b *testing.B) {
				pat := patterns.DoubleSided(4000)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m := sim.MeasurePatternLossEngine(4, w, pat, lossActs, uint64(i), eng.Event)
					sink += uint64(len(m.Rows))
				}
			},
		},
		{
			name: "trace-decode", unit: "record", unitsPerOp: traceRecords, guardAllocs: true,
			bench: func(b *testing.B) {
				// The streaming binary-trace decoder: one op decodes the whole
				// encoded stream through a reused Reader (Reset) and record
				// batch, so the alloc gate pins decoding at zero allocations
				// per op, not just per record.
				spec := workload.SPEC2017()[1] // lbm
				addrs, err := trace.Drain(workload.NewAddrSource(spec, replayMapping, traceRecords, 7), nil)
				if err != nil {
					b.Fatal(err)
				}
				var buf bytes.Buffer
				if err := trace.WriteAll(&buf, replayMapping, addrs); err != nil {
					b.Fatal(err)
				}
				data := buf.Bytes()
				br := bytes.NewReader(data)
				r, err := trace.NewReader(br)
				if err != nil {
					b.Fatal(err)
				}
				batch := make([]uint64, 4096)
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					br.Reset(data)
					if err := r.Reset(br); err != nil {
						b.Fatal(err)
					}
					for {
						n, err := r.ReadBatch(batch)
						for _, a := range batch[:n] {
							sink += a
						}
						if err != nil {
							break
						}
					}
				}
			},
		},
		{
			name: "server-replay-path", unit: "ACT", unitsPerOp: replayRecords,
			bench: func(b *testing.B) {
				// The full serial replay path: demux the record stream into
				// per-shard queues, then drive every bank's controller,
				// tracker and disturbance accounting through it.
				spec := workload.SPEC2017()[1] // lbm
				addrs, err := trace.Drain(workload.NewAddrSource(spec, replayMapping, replayRecords, 7), nil)
				if err != nil {
					b.Fatal(err)
				}
				topo, err := system.NewTopology(system.TopologyConfig{
					Params:  dram.DDR5(),
					Mapping: replayMapping,
					Scheme:  sim.PrIDEScheme(),
					TRH:     1000,
					Seed:    1,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := topo.Replay(trace.NewSliceSource(replayMapping, addrs))
					if err != nil {
						b.Fatal(err)
					}
					sink += uint64(res.CRC32)
				}
			},
		},
	}
}

// measure runs every engine once through testing.Benchmark.
func measure(scale int, stderr io.Writer) benchReport {
	rep := benchReport{SchemaVersion: schemaVersion, Scale: scale}
	for _, e := range engines(scale) {
		fmt.Fprintf(stderr, "bench %-20s ...", e.name)
		r := testing.Benchmark(e.bench)
		nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
		rep.Benchmarks = append(rep.Benchmarks, record{
			Name:        e.name,
			Unit:        e.unit,
			UnitsPerOp:  e.unitsPerOp,
			NsPerOp:     nsPerOp,
			NsPerUnit:   nsPerOp / float64(e.unitsPerOp),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			GuardAllocs: e.guardAllocs,
		})
		fmt.Fprintf(stderr, " %12.1f ns/op %8d allocs/op\n", nsPerOp, r.AllocsPerOp())
	}
	return rep
}

// loadBaseline reads a previously-emitted report.
func loadBaseline(path string) (benchReport, error) {
	var base benchReport
	raw, err := os.ReadFile(path)
	if err != nil {
		return base, fmt.Errorf("pride-bench: reading baseline: %w", err)
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		return base, fmt.Errorf("pride-bench: parsing baseline %s: %w", path, err)
	}
	if base.SchemaVersion != schemaVersion {
		return base, fmt.Errorf("pride-bench: baseline %s has schema %d, want %d", path, base.SchemaVersion, schemaVersion)
	}
	return base, nil
}

// compareReports checks fresh against the baseline and reports the number of
// gate failures. maxNsRegress < 0 disables the time gate. Benchmarks absent
// from the baseline are new since the baseline was committed: they are
// reported ("NEW") and pass, so adding a benchmark never requires
// regenerating the baseline in the same change. Baseline entries no longer
// measured are noted ("GONE") and also pass — the baseline is refreshed by
// the next `pride-bench -out`.
func compareReports(fresh, base benchReport, maxNsRegress float64, stdout io.Writer) int {
	byName := make(map[string]record, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		byName[r.Name] = r
	}
	measured := make(map[string]bool, len(fresh.Benchmarks))
	failures := 0
	for _, r := range fresh.Benchmarks {
		measured[r.Name] = true
		b, ok := byName[r.Name]
		if !ok {
			fmt.Fprintf(stdout, "NEW  %-20s %.2f ns/%s, %d allocs/op (not in baseline; passes)\n",
				r.Name, r.NsPerUnit, r.Unit, r.AllocsPerOp)
			continue
		}
		if r.GuardAllocs && r.AllocsPerOp > b.AllocsPerOp {
			fmt.Fprintf(stdout, "FAIL %-20s allocs/op %d > baseline %d\n", r.Name, r.AllocsPerOp, b.AllocsPerOp)
			failures++
			continue
		}
		if maxNsRegress >= 0 && b.NsPerUnit > 0 && r.NsPerUnit > b.NsPerUnit*(1+maxNsRegress) {
			fmt.Fprintf(stdout, "FAIL %-20s %.2f ns/%s > baseline %.2f (+%.0f%% tolerance)\n",
				r.Name, r.NsPerUnit, r.Unit, b.NsPerUnit, maxNsRegress*100)
			failures++
			continue
		}
		fmt.Fprintf(stdout, "ok   %-20s %.2f ns/%s, %d allocs/op (baseline %.2f, %d)\n",
			r.Name, r.NsPerUnit, r.Unit, r.AllocsPerOp, b.NsPerUnit, b.AllocsPerOp)
	}
	for _, b := range base.Benchmarks {
		if !measured[b.Name] {
			fmt.Fprintf(stdout, "GONE %-20s in baseline but not measured (removed or renamed)\n", b.Name)
		}
	}
	return failures
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected for testability.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pride-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out     = fs.String("out", "", "write the JSON report to this file (\"\" = stdout)")
		compare = fs.String("compare", "", "baseline JSON report to gate against (\"\" disables)")
		scale   = fs.Int("scale", 1, "workload divisor for smoke runs (1 = full scale)")
		maxNs   = fs.Float64("max-ns-regress", 0.25,
			"tolerated ns/unit regression vs -compare as a fraction (negative disables the time gate)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *scale < 1 {
		fmt.Fprintln(stderr, "-scale must be >= 1")
		return 2
	}

	rep := measure(*scale, stderr)

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	raw = append(raw, '\n')
	if *out == "" {
		stdout.Write(raw)
	} else if err := os.WriteFile(*out, raw, 0o644); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if *compare != "" {
		base, err := loadBaseline(*compare)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if base.Scale != rep.Scale {
			fmt.Fprintf(stdout, "note: comparing scale=%d run against scale=%d baseline (ns/unit is scale-adjusted)\n",
				rep.Scale, base.Scale)
		}
		if failures := compareReports(rep, base, *maxNs, stdout); failures > 0 {
			fmt.Fprintf(stderr, "pride-bench: %d benchmark gate(s) failed\n", failures)
			return 1
		}
	}
	return 0
}
