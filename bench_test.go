// Package pride's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation (see DESIGN.md's experiment index), plus
// ablation benchmarks for the design choices Section IV/VIII discusses.
//
// Each benchmark regenerates its experiment end-to-end and reports the
// headline quantity via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// doubles as a one-shot reproduction run. Paper-scale fidelity knobs live in
// the cmd/ tools; benchmarks use reduced iteration counts with identical
// code paths.
package pride_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"pride/internal/addrmap"
	"pride/internal/analytic"
	"pride/internal/core"
	"pride/internal/dram"
	"pride/internal/energy"
	"pride/internal/fuzz"
	"pride/internal/montecarlo"
	"pride/internal/patterns"
	"pride/internal/perfsim"
	"pride/internal/rng"
	"pride/internal/sim"
	"pride/internal/system"
	"pride/internal/trace"
	"pride/internal/tracker"
	"pride/internal/trialrunner"
	"pride/internal/workload"
)

// BenchmarkTable1Params derives the Table I quantities (W, ACTs per tREFW).
func BenchmarkTable1Params(b *testing.B) {
	p := dram.DDR5()
	acts := 0
	for i := 0; i < b.N; i++ {
		acts = p.ACTsPerTREFI()
	}
	b.ReportMetric(float64(acts), "ACTs/tREFI")
}

// BenchmarkFig8LossVsPosition runs the single-entry per-position Monte-Carlo
// (paper: 100M periods; bench: 50K per iteration) and reports the worst
// (position-1) loss probability, which the paper pins at 0.63.
func BenchmarkFig8LossVsPosition(b *testing.B) {
	w := dram.DDR5().ACTsPerTREFI()
	worst := 0.0
	for i := 0; i < b.N; i++ {
		res := montecarlo.SimulateLoss(montecarlo.LossConfig{
			Entries: 1, Window: w, InsertionProb: 1 / float64(w), Periods: 50_000,
		}, rng.New(uint64(i)))
		worst = res.PerPosition[0].LossProb()
	}
	b.ReportMetric(worst, "loss@K=1")
}

// BenchmarkTable3LossProb runs the exact multi-entry loss model for every
// buffer size of Table III and reports the N=4 loss (paper: 0.119).
func BenchmarkTable3LossProb(b *testing.B) {
	w := dram.DDR5().ACTsPerTREFI()
	l4 := 0.0
	for i := 0; i < b.N; i++ {
		for _, n := range []int{1, 2, 4, 8, 16} {
			l := analytic.LossProbability(n, w, 1/float64(w))
			if n == 4 {
				l4 = l
			}
		}
	}
	b.ReportMetric(l4, "loss(N=4)")
}

// BenchmarkFig9TRHvsSize sweeps buffer sizes 1..16 and reports the minimum
// TRH* (paper: ~3.78K at N=4-5).
func BenchmarkFig9TRHvsSize(b *testing.B) {
	p := dram.DDR5()
	w := p.ACTsPerTREFI()
	best := 0.0
	for i := 0; i < b.N; i++ {
		best = 1e18
		for n := 1; n <= 16; n++ {
			r := analytic.Analyze("PrIDE", n, w, 1/float64(w), p.TREFI, analytic.DefaultTargetTTFYears)
			if r.TRHStar < best {
				best = r.TRHStar
			}
		}
	}
	b.ReportMetric(best, "minTRH*")
}

// BenchmarkTable4PARA evaluates the PARA-DRFM comparison and reports
// PARA-DRFM's TRH* (paper: 17K).
func BenchmarkTable4PARA(b *testing.B) {
	p := dram.DDR5()
	trh := 0.0
	for i := 0; i < b.N; i++ {
		trh = analytic.EvaluateScheme(analytic.SchemePARADRFM, p, analytic.DefaultTargetTTFYears).TRHStar
		analytic.EvaluateScheme(analytic.SchemePARADRFMPlus, p, analytic.DefaultTargetTTFYears)
		analytic.EvaluateScheme(analytic.SchemePrIDE, p, analytic.DefaultTargetTTFYears)
	}
	b.ReportMetric(trh, "PARA-DRFM-TRH*")
}

// BenchmarkTable5RFM evaluates every mitigation rate of Table V and reports
// PrIDE+RFM16's TRH* (paper: 823).
func BenchmarkTable5RFM(b *testing.B) {
	p := dram.DDR5()
	trh := 0.0
	for i := 0; i < b.N; i++ {
		for _, s := range []analytic.Scheme{analytic.SchemePrIDEHalfRate, analytic.SchemePrIDE,
			analytic.SchemePrIDERFM40, analytic.SchemePrIDERFM16} {
			r := analytic.EvaluateScheme(s, p, analytic.DefaultTargetTTFYears)
			if s == analytic.SchemePrIDERFM16 {
				trh = r.TRHStar
			}
		}
	}
	b.ReportMetric(trh, "RFM16-TRH*")
}

// BenchmarkTable6DoubleSided reports PrIDE's double-sided threshold
// (paper: 1.92K).
func BenchmarkTable6DoubleSided(b *testing.B) {
	p := dram.DDR5()
	trhd := 0.0
	for i := 0; i < b.N; i++ {
		trhd = analytic.EvaluateScheme(analytic.SchemePrIDE, p, analytic.DefaultTargetTTFYears).TRHDoubleSided()
	}
	b.ReportMetric(trhd, "TRH-D*")
}

// BenchmarkTable8TTF computes the Target-TTF sensitivity sweep.
func BenchmarkTable8TTF(b *testing.B) {
	p := dram.DDR5()
	var rows []analytic.SensitivityRow
	for i := 0; i < b.N; i++ {
		rows = analytic.TTFSensitivity(p, []float64{100, 1_000, 10_000, 100_000, 1_000_000})
	}
	b.ReportMetric(rows[2].TRHSingle, "TRH-S*@10Ky")
}

// BenchmarkTable9DeviceTTF computes the device-threshold TTF table and
// reports PrIDE's system TTF at TRH-D=2000 in years (paper: 2936).
func BenchmarkTable9DeviceTTF(b *testing.B) {
	p := dram.DDR5()
	years := 0.0
	thresholds := []int{4800, 2000, 1800, 1600, 1400, 1200, 1000, 800, 600, 400, 200}
	schemes := []analytic.Scheme{analytic.SchemePrIDE, analytic.SchemePrIDERFM40, analytic.SchemePrIDERFM16}
	for i := 0; i < b.N; i++ {
		rows := analytic.DeviceTTFTable(p, thresholds, schemes)
		years = rows[1].TTFYears["PrIDE"]
	}
	b.ReportMetric(years, "TTF@2000-years")
}

// BenchmarkTable10Energy computes the Table X energy rows and reports the
// RFM16 total factor (paper: ~1.02-1.04x).
func BenchmarkTable10Energy(b *testing.B) {
	m := energy.DefaultModel()
	total := 0.0
	for i := 0; i < b.N; i++ {
		rows := energy.TableX(m)
		total = rows[2].TotalFactor
	}
	b.ReportMetric(total, "RFM16-energy-x")
}

// BenchmarkTable11SRAM computes the storage comparison and reports PrIDE's
// bytes (paper: 10).
func BenchmarkTable11SRAM(b *testing.B) {
	bytes := 0.0
	for i := 0; i < b.N; i++ {
		rows := analytic.SRAMOverheadTable([]int{4000, 400}, 84)
		bytes = rows[len(rows)-1].Bytes[400]
	}
	b.ReportMetric(bytes, "PrIDE-bytes")
}

// BenchmarkTable12SaroiuWolman runs both reliability models across buffer
// sizes and reports the N=4 divergence in TRH (paper: ~10).
func BenchmarkTable12SaroiuWolman(b *testing.B) {
	p := dram.DDR5()
	diff := 0.0
	for i := 0; i < b.N; i++ {
		rows := analytic.SaroiuWolmanTable(p, []int{1, 2, 4, 8, 16}, analytic.DefaultTargetTTFYears)
		diff = rows[3].OurTRH - rows[3].SWTRH
	}
	b.ReportMetric(diff, "model-delta@N=4")
}

// BenchmarkFig14Performance runs the perf model across all 34 workloads and
// reports the RFM16 geometric-mean slowdown (paper: ~1.6%).
func BenchmarkFig14Performance(b *testing.B) {
	cfg := perfsim.DefaultConfig()
	specs := workload.All()
	slow := 0.0
	for i := 0; i < b.N; i++ {
		rows := perfsim.Fig14(cfg, specs, 4_000, uint64(i))
		slow = 1 - perfsim.GeoMean(rows, "PrIDE+RFM16")
	}
	b.ReportMetric(slow*100, "RFM16-slowdown-%")
}

// BenchmarkFig15MaxDisturbance runs a reduced Fig 15 suite against PrIDE and
// reports its worst disturbance (paper: ~1.3K; must stay under TRH*=3.83K).
func BenchmarkFig15MaxDisturbance(b *testing.B) {
	p := dram.DDR5()
	p.RowsPerBank = 8192
	p.RowBits = 13
	suite := patterns.Fig15Suite(p.RowsPerBank, 8, 1)
	cfg := sim.AttackConfig{Params: p, ACTs: 100_000}
	worst := 0
	for i := 0; i < b.N; i++ {
		res := sim.MaxDisturbanceOverSuite(cfg, sim.PrIDEScheme(), suite, 1, uint64(i))
		worst = res.MaxDisturbance
	}
	b.ReportMetric(float64(worst), "PrIDE-maxDist")
}

// BenchmarkFig18LossValidation measures pattern loss against the model over
// a reduced Fig 18 suite and reports the worst measured/model ratio
// (Appendix C: must stay at or below ~1).
func BenchmarkFig18LossValidation(b *testing.B) {
	w := dram.DDR5().ACTsPerTREFI()
	model := analytic.LossProbability(4, w, 1/float64(w))
	suite := patterns.Fig18Suite(8192, 300, 2)
	ratio := 0.0
	for i := 0; i < b.N; i++ {
		worst := 0.0
		for _, pat := range suite {
			m := sim.MeasurePatternLoss(4, w, pat, 400_000, uint64(i))
			// Compare only well-sampled rows: a max over rows with a
			// handful of resolutions is an order statistic, not a loss
			// estimate (see cmd/pride-attack's Fig 18 handling).
			for _, row := range m.Rows {
				if row.Evicted+row.Mitigated < 150 {
					continue
				}
				if l := row.LossProb(); l > worst {
					worst = l
				}
			}
		}
		ratio = worst / model
	}
	b.ReportMetric(ratio, "measured/model")
}

// lossEngine10M is the acceptance workload for the parallel trial runner: a
// fixed-seed 10M-period single-entry loss run (1/10th of the paper's Fig 8
// budget).
var lossEngine10M = montecarlo.LossConfig{
	Entries: 1, Window: 79, InsertionProb: 1.0 / 79, Periods: 10_000_000,
}

// BenchmarkLossEngine compares the sharded Monte-Carlo loss engine across
// worker counts on the fixed-seed 10M-period run. Every variant asserts its
// merged result is bit-identical to the serial (workers=1) reference, so the
// speedup numbers are for provably the same computation. On an idle machine
// with >= 8 cores the workers=8 case should run >= 3x faster than workers=1:
//
//	go test -bench=LossEngine -benchtime=1x
func BenchmarkLossEngine(b *testing.B) {
	const seed = 1
	loss := func(b *testing.B, workers int) montecarlo.LossResult {
		res, err := montecarlo.SimulateLossCampaign(context.Background(), lossEngine10M, seed, trialrunner.Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	reference := loss(b, 1)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			worst := 0.0
			for i := 0; i < b.N; i++ {
				res := loss(b, workers)
				if !reflect.DeepEqual(res, reference) {
					b.Fatalf("workers=%d merged output differs from serial", workers)
				}
				worst = res.WorstLoss()
			}
			b.ReportMetric(worst, "worstLoss")
		})
	}
}

// BenchmarkAttackSuiteEngine compares the parallel attack-suite runner
// against its own serial (workers=1) execution on a reduced Fig 15 workload,
// asserting worker-count invariance of the merged result.
func BenchmarkAttackSuiteEngine(b *testing.B) {
	p := dram.DDR5()
	p.RowsPerBank = 8192
	p.RowBits = 13
	suite := patterns.Fig15Suite(p.RowsPerBank, 8, 1)
	cfg := sim.AttackConfig{Params: p, ACTs: 100_000}
	attack := func(b *testing.B, workers int) sim.AttackResult {
		res, err := sim.MaxDisturbanceOverSuiteCampaign(context.Background(), cfg, sim.PrIDEScheme(), suite, 2, 1, trialrunner.Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	reference := attack(b, 1)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := attack(b, workers)
				if res != reference {
					b.Fatalf("workers=%d merged output differs from serial", workers)
				}
			}
			b.ReportMetric(float64(reference.MaxDisturbance), "maxDist")
		})
	}
}

// serverReplayWorkload builds the fixed server-scale replay input: a
// 64-shard topology (4 channels x 2 ranks x 8 banks) and 400K lbm-calibrated
// trace records.
func serverReplayWorkload(b *testing.B) (*system.Topology, addrmap.Mapping, []uint64) {
	b.Helper()
	m := addrmap.Mapping{ColumnBits: 4, BankBits: 3, RowBits: 12, RankBits: 1, ChannelBits: 2, XORBankHash: true}
	addrs, err := trace.Drain(workload.NewAddrSource(workload.SPEC2017()[1], m, 400_000, 7), nil)
	if err != nil {
		b.Fatal(err)
	}
	topo, err := system.NewTopology(system.TopologyConfig{
		Params:  dram.DDR5(),
		Mapping: m,
		Scheme:  sim.PrIDEScheme(),
		TRH:     1000,
		Seed:    1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return topo, m, addrs
}

// BenchmarkServerReplay compares the sharded trace-replay campaign across
// worker counts on a fixed 400K-record server-scale input. Every variant
// asserts its merged result is bit-identical to the serial (workers=1)
// reference, so the speedup numbers are for provably the same computation. On
// an idle machine with >= 8 cores the workers=8 case should run >= 3x faster
// than workers=1:
//
//	go test -bench=ServerReplay -benchtime=1x
func BenchmarkServerReplay(b *testing.B) {
	topo, m, addrs := serverReplayWorkload(b)
	reference, err := topo.Replay(trace.NewSliceSource(m, addrs))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := topo.ReplayCampaign(context.Background(), trace.NewSliceSource(m, addrs),
					system.ReplayOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if !reflect.DeepEqual(res, reference) {
					b.Fatalf("workers=%d merged output differs from serial", workers)
				}
			}
			b.ReportMetric(float64(reference.TotalFlips()), "flips")
		})
	}
}

// BenchmarkTraceDecode measures the streaming binary-trace decoder in MB/s
// (the b.SetBytes rate): one op decodes the whole encoded stream through a
// reused Reader (Reset) and record batch, so the steady-state decode path
// allocates nothing at all.
func BenchmarkTraceDecode(b *testing.B) {
	_, m, addrs := serverReplayWorkload(b)
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, m, addrs); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	br := bytes.NewReader(data)
	r, err := trace.NewReader(br)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]uint64, 4096)
	var sink uint64
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
	if sink == 0 {
		b.Fatal("decoded stream summed to zero")
	}
}

// BenchmarkAblationEviction compares the loss probability of PrIDE's
// FIFO/FIFO policies against the PROTEAS-style Random/Random ablation
// (Section VIII) and reports the penalty ratio.
func BenchmarkAblationEviction(b *testing.B) {
	w := dram.DDR5().ACTsPerTREFI()
	ratio := 0.0
	for i := 0; i < b.N; i++ {
		fifo := analytic.LossProbability(4, w, 1/float64(w))
		rr := analytic.RandomRandomLoss(4, w, 1/float64(w))
		ratio = rr / fifo
	}
	b.ReportMetric(ratio, "random/fifo-loss")
}

// BenchmarkAblationInsertionRequirements measures how badly violating
// requirement R1 (always insert into invalid entries) inflates evictions —
// the Section IV-B rationale — under a uniform stream.
func BenchmarkAblationInsertionRequirements(b *testing.B) {
	w := dram.DDR5().ACTsPerTREFI()
	ratio := 0.0
	for i := 0; i < b.N; i++ {
		secure := core.DefaultConfig(w)
		insecure := core.DefaultConfig(w)
		insecure.InsecureAlwaysInsertIfInvalid = true
		var ev [2]uint64
		for v, cfg := range []core.Config{secure, insecure} {
			trk := core.New(cfg, rng.New(uint64(i)))
			for a := 0; a < 50_000; a++ {
				trk.OnActivate(a % 997)
				if a%w == w-1 {
					trk.OnMitigate()
				}
			}
			ev[v] = trk.Stats().Evictions
		}
		if ev[0] > 0 {
			ratio = float64(ev[1]) / float64(ev[0])
		}
	}
	b.ReportMetric(ratio, "R1-violation-evictions-x")
}

// BenchmarkAblationBufferSize sweeps the FIFO depth under a live attack and
// reports N=4's disturbance, demonstrating Fig 9's "bigger is not better" in
// simulation rather than analytically.
func BenchmarkAblationBufferSize(b *testing.B) {
	p := dram.DDR5()
	p.RowsPerBank = 8192
	p.RowBits = 13
	pat := patterns.DoubleSided(4000)
	dist4 := 0
	for i := 0; i < b.N; i++ {
		for _, n := range []int{1, 4, 16} {
			s := sim.PrIDEScheme()
			entries := n
			s.New = func(pp dram.Params, r *rng.Stream) tracker.Tracker {
				cfg := core.DefaultConfig(pp.ACTsPerTREFI())
				cfg.Entries = entries
				cfg.RowBits = pp.RowBits
				return core.New(cfg, r)
			}
			res := sim.RunAttack(sim.AttackConfig{Params: p, ACTs: 100_000}, s, pat, uint64(i))
			if n == 4 {
				dist4 = res.MaxDisturbance
			}
		}
	}
	b.ReportMetric(float64(dist4), "maxDist(N=4)")
}

// BenchmarkPrIDEHotPath measures the tracker's per-activation cost — the
// operation a DRAM bank would perform in hardware on every ACT.
func BenchmarkPrIDEHotPath(b *testing.B) {
	trk := core.New(core.DefaultConfig(79), rng.New(1))
	for i := 0; i < b.N; i++ {
		trk.OnActivate(i & 0x1FFFF)
		if i%79 == 78 {
			trk.OnMitigate()
		}
	}
}

// BenchmarkSystemTTFValidation runs the multi-bank empirical TTF experiment
// (cmd/pride-ttfsim's core) at a low threshold and reports the measured
// system MTTF in milliseconds.
func BenchmarkSystemTTFValidation(b *testing.B) {
	p := dram.DDR5()
	p.RowsPerBank = 1024
	p.RowBits = 10
	cfg := system.Config{Params: p, Banks: 2, TRH: 300, MaxTREFI: 100_000}
	mttf := 0.0
	for i := 0; i < b.N; i++ {
		mean, failed := system.MeasureMTTF(cfg, sim.PrIDEScheme(), 3, uint64(i))
		if failed > 0 {
			mttf = mean * 1000
		}
	}
	b.ReportMetric(mttf, "measured-MTTF-ms")
}

// BenchmarkAdversarialSearch runs a short island-model search campaign
// against PrIDE and reports the plateau disturbance (must stay under
// TRH* = 3.8K).
func BenchmarkAdversarialSearch(b *testing.B) {
	p := dram.DDR5()
	p.RowsPerBank = 4096
	p.RowBits = 12
	cfg := fuzz.Config{
		Attack:       sim.AttackConfig{Params: p, ACTs: 40_000},
		Generations:  3,
		Islands:      2,
		Population:   3,
		MigrateEvery: 2,
		MaxPairs:     8,
	}
	best := 0
	for i := 0; i < b.N; i++ {
		res := fuzz.Search(cfg, sim.PrIDEScheme(), uint64(i))
		best = res.BestDisturbance
	}
	b.ReportMetric(float64(best), "fuzz-plateau")
}
