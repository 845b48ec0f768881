package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"pride/internal/corpus"
	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/patterns"
	"pride/internal/sim"
)

// attackSize is a Fig 15 campaign: patterns random patterns (the suite adds
// one fixed half-double), seeds trials per pattern, acts ACTs per trial.
type attackSize struct{ patterns, seeds, acts int }

func (a attackSize) args(seed uint64, extra ...string) []string {
	return append([]string{"-fig", "15", "-zoo", "-workers", strconv.Itoa(workers),
		"-patterns", strconv.Itoa(a.patterns), "-seeds", strconv.Itoa(a.seeds),
		"-acts", strconv.Itoa(a.acts), "-seed", strconv.FormatUint(seed, 10)}, extra...)
}

// simulatedACTs is the campaign's demand ACT count over every scheme.
func (a attackSize) simulatedACTs() float64 {
	return float64(len(attackSchemes()) * (a.patterns + 1) * a.seeds * a.acts)
}

// attackParams is the bank pride-attack -fig 15 attacks.
func attackParams() dram.Params {
	p := dram.DDR5()
	p.RowsPerBank = 8192
	p.RowBits = 13
	return p
}

// attackSpans records a traced campaign: each scheme's wall time and every
// trial's duration from the trialrunner Observer.
type attackSpans struct {
	schemes map[string]time.Duration

	mu     sync.Mutex
	trials []time.Duration
}

func (s *attackSpans) TrialStart(int) {}

func (s *attackSpans) TrialEnd(_ int, d time.Duration) {
	s.mu.Lock()
	s.trials = append(s.trials, d)
	s.mu.Unlock()
}

// attackInProcess runs the Fig 15 campaign through the library exactly as
// pride-attack does and returns its table rows. sp, when non-nil, traces it.
func attackInProcess(ctx context.Context, a attackSize, seed uint64, sp *attackSpans) ([][]string, error) {
	p := attackParams()
	suite := patterns.Fig15Suite(p.RowsPerBank, a.patterns, seed)
	cfg := sim.AttackConfig{Params: p, ACTs: a.acts}
	var rows [][]string
	for _, s := range attackSchemes() {
		opts := sim.CampaignOptions{Workers: workers, Engine: engine.Event}
		if sp != nil {
			opts.Observer = sp
		}
		start := time.Now()
		res, err := sim.MaxDisturbanceOverSuiteCampaign(ctx, cfg, s, suite, a.seeds, seed+uint64(len(s.Name)), opts)
		if err != nil {
			return nil, err
		}
		if sp != nil {
			sp.schemes[s.Name] = time.Since(start)
		}
		rows = append(rows, row(s.Name, res.MaxDisturbance, res.Pattern, res.MaxHammers))
	}
	return rows, nil
}

// attackLibraryCheck compares a pride-attack stdout with the library's table
// for the same campaign.
func attackLibraryCheck(want [][]string) func(stdout string) error {
	return func(stdout string) error {
		if err := compareRows(tableRows(stdout), want); err != nil {
			return fmt.Errorf("pride-attack table against the library: %v", err)
		}
		return nil
	}
}

// attackExpect returns pride-attack's stdout for the seed's campaign.
func attackExpect(ctx context.Context, e *env) (string, error) {
	r, err := runProc(ctx, e.binary("pride-attack"), e.size.attack.args(e.seed)...)
	return r.stdout, err
}

func runCampaignAttack(ctx context.Context, e *env, traced bool) (result, error) {
	a := e.size.attack
	// Set-up: build the seed's pattern suite, which is the campaign's input,
	// then warm the binary with a run at a tenth of the size. One set-up
	// takes tens of milliseconds, so it is repeated three times as often as
	// the other workloads' for a steadier median.
	warm := attackSize{patterns: max(1, a.patterns/10), seeds: 1, acts: max(1000, a.acts/10)}
	setups := 3 * e.size.setups
	var walls, suites []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		patterns.Fig15Suite(attackParams().RowsPerBank, a.patterns, e.seed)
		suites = append(suites, time.Since(t0).Seconds())
		if _, err := runProc(ctx, e.binary("pride-attack"), warm.args(e.seed)...); err != nil {
			return result{}, fmt.Errorf("set-up: %v", err)
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	m := newMetrics(traced)
	t := &tally{out: e.out}
	if traced {
		m.set("patterns.suite_s", median(suites), fmt.Sprintf("patterns.Fig15Suite, median of %d set-ups", setups))
		if err := tracedAttack(ctx, e, m, t); err != nil {
			return result{}, err
		}
		m.printNotes(e.out)
		return m.result(t)
	}
	m.set("setup_s", median(walls), fmt.Sprintf("median of %d suite builds + warm-up runs", setups))
	runs, window := e.runCLI(ctx, t, e.size.attackOpSeconds, "pride-attack", a.args(e.seed)...)
	want, err := attackInProcess(ctx, a, e.seed, nil)
	if err != nil {
		return result{}, fmt.Errorf("library output: %v", err)
	}
	if err := e.checkCLIRuns(t, "campaign-attack", runs, attackLibraryCheck(want)); err != nil {
		return result{}, err
	}
	setCLIMetrics(m, runs, window, a.simulatedACTs(), a.simulatedACTs())
	m.printNotes(e.out)
	return m.result(t)
}

// tracedAttack measures the campaign layers: an untraced and a traced
// in-process campaign, and a profiled pride-attack run.
func tracedAttack(ctx context.Context, e *env, m *metrics, t *tally) error {
	a := e.size.attack
	t0 := time.Now()
	want, err := attackInProcess(ctx, a, e.seed, nil)
	if err != nil {
		return err
	}
	plain := time.Since(t0).Seconds()
	sp := &attackSpans{schemes: map[string]time.Duration{}}
	t0 = time.Now()
	got, err := attackInProcess(ctx, a, e.seed, sp)
	if err != nil {
		return err
	}
	wall := time.Since(t0).Seconds()
	t.op(compareRows(got, want))

	m.set("traced_wall_s", wall, "traced in-process Fig 15 campaign over every scheme")
	m.set("tracing_overhead_s", wall-plain, fmt.Sprintf("traced minus untraced (untraced %.4fs)", plain))
	var schemeSum float64
	for _, s := range attackSchemes() {
		d := sp.schemes[s.Name].Seconds()
		schemeSum += d
		m.set("sim.scheme_s."+corpus.Slug(s.Name), d, "sim.MaxDisturbanceOverSuiteCampaign for "+s.Name)
	}
	var trials []float64
	var trialSum float64
	for _, d := range sp.trials {
		trials = append(trials, d.Seconds()*1000)
		trialSum += d.Seconds()
	}
	tt := tail(trials)
	m.set("sim.trial_p50_ms", median(trials), fmt.Sprintf("median of %d trials", len(trials)))
	m.set("sim.trial_tail_ms", tt.value, tt.String())
	m.set("trialrunner.idle_ratio", 1-trialSum/(workers*schemeSum), fmt.Sprintf("1 - trial time / (%d workers x campaign wall)", workers))

	prof := filepath.Join(e.work, "attack.pprof")
	r, err := runProc(ctx, e.binary("pride-attack"), a.args(e.seed, "-cpuprofile", prof)...)
	t.op(err)
	if err == nil {
		if err := e.checkCLIRuns(t, "campaign-attack", []procResult{r}, attackLibraryCheck(want)); err != nil {
			return err
		}
		return setProfileShares(ctx, m, prof)
	}
	return nil
}
