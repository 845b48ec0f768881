// The cross-design tracker shootout: every tracker in the zoo
// (sim.SearchSchemes) side by side on the axes the paper trades off —
// analytic security (TRH*), per-bank SRAM cost (storage bits), simulator
// throughput (ns/ACT), and the committed corpus's best attack. Counter
// trackers have no analytic column: their failure modes depend on the
// pattern, which is the paper's central contrast.
//
// The JSON report regression-gates everything EXCEPT timing: TRH*, storage
// bits and the corpus columns are deterministic, so any drift against a
// committed baseline means a tracker, the analytic model, or the corpus
// changed behaviour. ns/ACT is machine-dependent and never compared. A
// tracker missing from the baseline is NEW and passes; a baseline tracker no
// longer measured is GONE and fails — dropping a design from the zoo must be
// an explicit baseline refresh, not an accident.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"pride/internal/analytic"
	"pride/internal/corpus"
	"pride/internal/dram"
	"pride/internal/patterns"
	"pride/internal/report"
	"pride/internal/rng"
	"pride/internal/sim"
	"pride/internal/tracker"
)

type shootoutOptions struct {
	CorpusDir string
	ACTs      int
	TTFYears  float64
	JSONOut   string
	Compare   string
}

// shootoutRow is one tracker's line in the shootout. Pointer fields are nil
// when the axis does not exist for the design (no analytic model, no
// committed corpus entry) — the text table renders those as "-".
type shootoutRow struct {
	Scheme      string   `json:"scheme"`
	TRHStar     *float64 `json:"trh_star,omitempty"`
	StorageBits int      `json:"storage_bits"`
	NsPerACT    float64  `json:"ns_per_act"`
	CorpusBest  *int     `json:"corpus_best,omitempty"`
	CorpusClass string   `json:"corpus_class,omitempty"`
}

type shootoutReport struct {
	ACTs     int           `json:"acts"`
	TTFYears float64       `json:"ttf_years"`
	Rows     []shootoutRow `json:"rows"`
}

// buildShootout measures every tracker in the zoo and assembles the report.
func buildShootout(opts shootoutOptions) (shootoutReport, error) {
	entries, err := corpus.Load(opts.CorpusDir)
	if err != nil {
		return shootoutReport{}, fmt.Errorf("loading corpus for the shootout columns: %w", err)
	}
	committed := make(map[string]corpus.Sidecar, len(entries))
	for _, e := range entries {
		committed[e.Sidecar.Scheme] = e.Sidecar
	}

	analyticByName := map[string]analytic.Result{}
	paper := dram.DDR5()
	for _, s := range analytic.AllSchemes() {
		r := analytic.EvaluateScheme(s, paper, opts.TTFYears)
		analyticByName[s.String()] = r
	}

	pat := patterns.TRRespass(500, 6, 2)
	// The ns/ACT measurement runs at the corpus's own (attack) geometry, so
	// MOAT's per-row state stays cheap to build.
	tp := sim.AttackParams()
	rep := shootoutReport{ACTs: opts.ACTs, TTFYears: opts.TTFYears}
	for _, s := range sim.SearchSchemes() {
		// Storage is quoted at the paper's full DDR5 geometry (17-bit rows)
		// so PrIDE lands on its published 85-bit budget.
		bits := s.New(paper, rng.New(1)).StorageBits()

		start := time.Now()
		sim.RunAttack(sim.AttackConfig{Params: tp, ACTs: opts.ACTs}, s, pat.Clone(), 1)
		ns := float64(time.Since(start).Nanoseconds()) / float64(opts.ACTs)

		row := shootoutRow{Scheme: s.Name, StorageBits: bits, NsPerACT: ns}
		if r, ok := analyticByName[s.Name]; ok {
			trh := r.TRHStar
			row.TRHStar = &trh
		}
		if side, ok := committed[s.Name]; ok {
			best := side.ExpectedDisturbance
			row.CorpusBest = &best
			row.CorpusClass = string(side.Class)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// renderShootout prints the human-readable table.
func renderShootout(rep shootoutReport, stdout io.Writer) {
	t := report.NewTable(
		fmt.Sprintf("Tracker shootout (%d ACTs/design, target TTF %s)",
			rep.ACTs, report.FormatTTFYears(rep.TTFYears)),
		"Tracker", "TRH*", "Storage bits", "ns/ACT", "Corpus best", "Class")
	for _, r := range rep.Rows {
		trh, best, class := "-", "-", "-"
		if r.TRHStar != nil {
			trh = fmt.Sprintf("%.0f", *r.TRHStar)
		}
		if r.CorpusBest != nil {
			best = fmt.Sprintf("%d", *r.CorpusBest)
			class = r.CorpusClass
		}
		t.AddRow(r.Scheme, trh, r.StorageBits, fmt.Sprintf("%.1f", r.NsPerACT), best, class)
	}
	t.Render(stdout)
	fmt.Fprintln(stdout, "\nTRH* '-' means the design has no pattern-independent analytic bound.")
	fmt.Fprintf(stdout, "MOAT's storage is SRAM only; its per-row PRAC counters add %d DRAM-side bits/bank.\n",
		tracker.NewMOAT(dram.DDR5().RowsPerBank, dram.DDR5().RowBits,
			tracker.DefaultMOATATI, tracker.DefaultMOATATO).DRAMCounterBits())
	fmt.Fprintln(stdout, "'climbing' corpus entries are the designs the adversarial search still defeats.")
}

// compareShootouts gates fresh against a committed baseline. Timing is never
// compared. Returns the number of failures.
func compareShootouts(fresh, base shootoutReport, stdout io.Writer) int {
	baseByScheme := make(map[string]shootoutRow, len(base.Rows))
	for _, r := range base.Rows {
		baseByScheme[r.Scheme] = r
	}
	failures := 0
	seen := map[string]bool{}
	for _, f := range fresh.Rows {
		seen[f.Scheme] = true
		b, ok := baseByScheme[f.Scheme]
		if !ok {
			fmt.Fprintf(stdout, "NEW  %-12s not in baseline; passes (refresh the baseline to gate it)\n", f.Scheme)
			continue
		}
		if !floatPtrEqual(f.TRHStar, b.TRHStar) {
			fmt.Fprintf(stdout, "FAIL %-12s TRH* %s, baseline %s — the analytic model changed\n",
				f.Scheme, fmtFloatPtr(f.TRHStar), fmtFloatPtr(b.TRHStar))
			failures++
		}
		if f.StorageBits != b.StorageBits {
			fmt.Fprintf(stdout, "FAIL %-12s storage %d bits, baseline %d — the tracker's cost changed\n",
				f.Scheme, f.StorageBits, b.StorageBits)
			failures++
		}
		if !intPtrEqual(f.CorpusBest, b.CorpusBest) || f.CorpusClass != b.CorpusClass {
			fmt.Fprintf(stdout, "FAIL %-12s corpus best %s (%s), baseline %s (%s) — the committed corpus changed\n",
				f.Scheme, fmtIntPtr(f.CorpusBest), orDash(f.CorpusClass),
				fmtIntPtr(b.CorpusBest), orDash(b.CorpusClass))
			failures++
		}
	}
	for _, b := range base.Rows {
		if !seen[b.Scheme] {
			fmt.Fprintf(stdout, "FAIL %-12s in baseline but no longer measured — dropping a tracker from the zoo requires an explicit baseline refresh\n", b.Scheme)
			failures++
		}
	}
	if failures == 0 {
		fmt.Fprintf(stdout, "shootout matches baseline: %d trackers gated on TRH*, storage and corpus columns (timing ignored)\n",
			len(fresh.Rows))
	}
	return failures
}

func floatPtrEqual(a, b *float64) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	// The analytic columns are deterministic; the epsilon only absorbs the
	// JSON round-trip's decimal formatting.
	return math.Abs(*a-*b) <= 1e-6*math.Max(1, math.Abs(*b))
}

func intPtrEqual(a, b *int) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || *a == *b
}

func fmtFloatPtr(p *float64) string {
	if p == nil {
		return "-"
	}
	return fmt.Sprintf("%.0f", *p)
}

func fmtIntPtr(p *int) string {
	if p == nil {
		return "-"
	}
	return fmt.Sprintf("%d", *p)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func runShootout(opts shootoutOptions, stdout, stderr io.Writer) int {
	if opts.ACTs < 1 {
		fmt.Fprintln(stderr, "-acts must be >= 1")
		return 2
	}
	rep, err := buildShootout(opts)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	renderShootout(rep, stdout)

	if opts.JSONOut != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := os.WriteFile(opts.JSONOut, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "\nwrote JSON report to %s\n", opts.JSONOut)
	}
	if opts.Compare != "" {
		blob, err := os.ReadFile(opts.Compare)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		var base shootoutReport
		if err := json.Unmarshal(blob, &base); err != nil {
			fmt.Fprintf(stderr, "parsing baseline %s: %v\n", opts.Compare, err)
			return 1
		}
		fmt.Fprintln(stdout)
		if failures := compareShootouts(rep, base, stdout); failures > 0 {
			fmt.Fprintf(stderr, "shootout deviates from baseline %s in %d place(s)\n", opts.Compare, failures)
			return 1
		}
	}
	return 0
}
