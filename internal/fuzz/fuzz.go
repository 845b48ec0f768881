// Package fuzz implements guided adversarial search for worst-case attack
// patterns — the methodology behind Blacksmith (and behind the paper's
// Section VII-F evaluation) turned into a reusable harness.
//
// The search is an island-model population search: N islands each evolve an
// independent (mu+lambda)-style population in Blacksmith's
// frequency/phase/amplitude space, and every K generations the islands
// exchange elites over a deterministic ring (island i's best-so-far replaces
// island i+1's worst member). Islands explore independently between
// migrations, so the population covers far more of the pattern space than a
// single hill climb, while migration lets a strong lineage spread.
//
// Determinism contract (the same one the campaign engines keep): island i's
// evolution during epoch e draws every random decision — genome
// initialization, mutations, per-evaluation simulation seeds — from the
// private stream rng.Derived(seed, e*islands+i), never from shared state,
// and migration is a pure function of the epoch's island states applied in
// island order. Results are therefore bit-identical at any worker count,
// and because every island state round-trips exactly through encoding/json,
// an interrupted search resumes from its checkpoint to the bit-identical
// result.
//
// Against counter-driven trackers the search climbs quickly (their worst
// case is pattern-shaped); against PrIDE it plateaus at the bounded
// disturbance the analytic model predicts, because no pattern parameter can
// influence PrIDE's policy decisions. That contrast is the paper's central
// claim, demonstrated by search rather than by enumeration — and the
// committed corpus/ directory plus its replay suite re-assert it on every
// change.
package fuzz

import (
	"context"
	"encoding/json"
	"fmt"

	"pride/internal/engine"
	"pride/internal/patterns"
	"pride/internal/rng"
	"pride/internal/sim"
	"pride/internal/trialrunner"
)

// Config parameterizes an island-model search campaign.
type Config struct {
	// Attack is the per-evaluation trial configuration.
	Attack sim.AttackConfig
	// Generations is the number of mutate-evaluate generations per island.
	Generations int
	// Islands is the number of independent populations.
	Islands int
	// Population is the number of genomes per island.
	Population int
	// MigrateEvery is the elite-migration cadence in generations: after
	// every MigrateEvery generations each island's best-so-far replaces its
	// ring successor's worst member. Values >= Generations mean the islands
	// never exchange genomes.
	MigrateEvery int
	// MaxPairs bounds the genome size.
	MaxPairs int
	// Engine selects the evaluation engine. The zero value is
	// engine.Exact, the per-ACT reference; engine.Event evaluates
	// skip-ahead trackers (PrIDE, PARA) orders of magnitude faster and
	// falls back to the exact loop for everything else.
	Engine engine.Kind
}

func (c Config) validate() error {
	switch {
	case c.Generations < 1:
		return fmt.Errorf("fuzz: Generations must be >= 1, got %d", c.Generations)
	case c.Islands < 1:
		return fmt.Errorf("fuzz: Islands must be >= 1, got %d", c.Islands)
	case c.Population < 1:
		return fmt.Errorf("fuzz: Population must be >= 1, got %d", c.Population)
	case c.MigrateEvery < 1:
		return fmt.Errorf("fuzz: MigrateEvery must be >= 1, got %d", c.MigrateEvery)
	case c.MaxPairs < 1:
		return fmt.Errorf("fuzz: MaxPairs must be >= 1, got %d", c.MaxPairs)
	case c.Attack.ACTs < 1:
		return fmt.Errorf("fuzz: Attack.ACTs must be >= 1, got %d", c.Attack.ACTs)
	}
	return nil
}

// Epochs returns the number of migration epochs the search runs: the
// generations split into MigrateEvery-sized chunks, with a final short epoch
// when MigrateEvery does not divide Generations. An epoch is the checkpoint
// granularity — an interrupted search resumes at the last completed epoch.
func (c Config) Epochs() int {
	return (c.Generations + c.MigrateEvery - 1) / c.MigrateEvery
}

// generationsIn returns how many generations epoch e runs.
func (c Config) generationsIn(e int) int {
	g := c.Generations - e*c.MigrateEvery
	if g > c.MigrateEvery {
		g = c.MigrateEvery
	}
	return g
}

// Member is one genome with the score of its evaluation and the simulation
// seed that produced it, so the best-found attack replays exactly.
type Member struct {
	Genome Genome `json:"genome"`
	Score  int    `json:"score"`
	// Seed is the per-evaluation simulation seed Score was measured under.
	Seed uint64 `json:"seed"`
}

// IslandState is the complete state of one island after an epoch. It holds
// only plain integers and slices, so it round-trips exactly through
// encoding/json — which is what makes checkpoint resume bit-identical.
type IslandState struct {
	// Members is the island's current population.
	Members []Member `json:"members"`
	// Best is the best member the island has ever evaluated (elitist: it
	// never regresses, even if migration later overwrites its slot).
	Best Member `json:"best"`
	// History records Best.Score after each completed generation.
	History []int `json:"history"`
}

// epochState is one checkpointed trial result: every island's state after
// the epoch's generations and the following migration.
type epochState struct {
	Islands []IslandState `json:"islands"`
}

// Result reports a search campaign's outcome.
type Result struct {
	// BestDisturbance is the highest max-disturbance found on any island.
	BestDisturbance int
	// BestGenome is the genome that achieved it.
	BestGenome Genome
	// BestSeed is the simulation seed BestDisturbance was measured under;
	// replaying BestPattern with it reproduces BestDisturbance exactly.
	BestSeed uint64
	// BestIsland is the island that found it (lowest index on ties).
	BestIsland int
	// BestPattern is BestGenome materialized as a pattern.
	BestPattern *patterns.Pattern
	// History records the global best disturbance after each generation
	// (the maximum of the island bests), for plateau/climb analysis.
	History []int
	// IslandHistories records each island's best-so-far after each
	// generation. Every row is monotone non-decreasing.
	IslandHistories [][]int
	// Evaluations counts attack simulations performed.
	Evaluations int
}

// SearchKey is the canonical checkpoint key of a search campaign:
// everything the evolution and evaluations depend on (configuration, scheme
// name, seed, engine) and nothing else — never the worker count.
func SearchKey(cfg Config, s sim.Scheme, seed uint64) string {
	return fmt.Sprintf("fuzz.search|scheme=%s|params=%+v|acts=%d|trh=%d|policy=%d|gens=%d|islands=%d|pop=%d|migrate=%d|maxpairs=%d|seed=%d%s",
		s.Name, cfg.Attack.Params, cfg.Attack.ACTs, cfg.Attack.TRH, cfg.Attack.Policy,
		cfg.Generations, cfg.Islands, cfg.Population, cfg.MigrateEvery, cfg.MaxPairs,
		seed, engine.KeySuffix(cfg.Engine))
}

// Search runs the island-model search to completion on the calling
// goroutine's context with default options and returns the worst pattern
// found. It panics on an invalid configuration or a panicking evaluation,
// keeping the historical fail-loud contract of the single-threaded climber
// it replaced.
func Search(cfg Config, scheme sim.Scheme, seed uint64) Result {
	res, err := SearchCampaign(context.Background(), cfg, scheme, seed, trialrunner.Options{})
	trialrunner.MustPanicFree(err)
	return res
}

// SearchCampaign runs the island-model search as a long-running campaign:
// cancellation with graceful drain (the in-flight epoch completes and lands
// in the checkpoint), durable epoch-granularity checkpoint/resume, and
// progress metering. The result is bit-identical at any worker count and
// across any interrupt/resume split. opts.Workers sizes the island pool
// inside each epoch; the epochs run in order on one worker. The engine is
// cfg.Engine (part of the key), so opts.Engine and opts.SelfCheck are unused.
func SearchCampaign(ctx context.Context, cfg Config, scheme sim.Scheme, seed uint64, opts trialrunner.Options) (Result, error) {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	epochs := cfg.Epochs()
	if opts.Checkpoint.Key == "" {
		opts.Checkpoint.Key = SearchKey(cfg, scheme, seed)
	}

	// Epochs form a dependency chain (epoch e evolves epoch e-1's migrated
	// populations), so the outer runner executes them strictly in order on
	// one worker; the parallelism is across islands inside each epoch.
	// states[e] is epoch e's result, pre-filled from the checkpoint for
	// stored epochs (the checkpoint layer skips them) and written inline by
	// fresh epochs before the next epoch starts.
	states := make([]epochState, epochs)
	have := make([]bool, epochs)
	if opts.Checkpoint.Enabled() {
		stored, err := trialrunner.LoadCheckpoint(opts.Checkpoint, epochs)
		if err != nil {
			return Result{}, err
		}
		for e, raw := range stored {
			if err := json.Unmarshal(raw, &states[e]); err != nil {
				return Result{}, fmt.Errorf("fuzz: decoding checkpointed epoch %d: %w", e, err)
			}
			have[e] = true
		}
	}

	epochOpts := opts
	epochOpts.Workers = 1
	_, err := trialrunner.Map(ctx, epochs,
		func(_, e int) epochState {
			var in []IslandState
			if e > 0 {
				if !have[e-1] {
					// Unreachable by construction: the single outer worker
					// claims epochs in order and a checkpoint gap re-runs
					// the missing epoch first.
					panic(fmt.Sprintf("fuzz: epoch %d ran before epoch %d completed", e, e-1))
				}
				in = states[e-1].Islands
			}
			st := runEpoch(cfg, scheme, seed, e, in, opts.Workers)
			states[e] = st
			have[e] = true
			return st
		},
		func(e int, st epochState) error {
			opts.AddActivations(int64(cfg.evaluationsIn(e)) * int64(cfg.Attack.ACTs))
			return nil
		},
		epochOpts)
	if err != nil {
		return Result{}, err
	}
	return cfg.result(states[epochs-1]), nil
}

// evaluationsIn returns how many attack simulations epoch e performs: one
// per fresh genome, plus the initial population on epoch 0.
func (c Config) evaluationsIn(e int) int {
	evals := c.Islands * c.Population * c.generationsIn(e)
	if e == 0 {
		evals += c.Islands * c.Population
	}
	return evals
}

// streamIndex maps (epoch, island) to the derived-RNG sub-stream index that
// drives the island's evolution during that epoch.
func (c Config) streamIndex(e, island int) uint64 {
	return uint64(e)*uint64(c.Islands) + uint64(island)
}

// runEpoch evolves every island for one epoch (in parallel across islands)
// and applies the deterministic ring migration. in is nil for epoch 0
// (islands initialize their populations) and the previous epoch's migrated
// states otherwise.
func runEpoch(cfg Config, scheme sim.Scheme, seed uint64, e int, in []IslandState, workers int) epochState {
	gens := cfg.generationsIn(e)
	out, err := trialrunner.Map(context.Background(), cfg.Islands, func(_, i int) IslandState {
		r := rng.Derived(seed, cfg.streamIndex(e, i))
		var st IslandState
		if e == 0 {
			st = initialIsland(cfg, scheme, r)
		} else {
			st = cloneIsland(in[i])
		}
		evolve(cfg, scheme, &st, gens, r)
		return st
	}, nil, trialrunner.Options{Workers: workers})
	trialrunner.MustPanicFree(err)
	migrate(out)
	return epochState{Islands: out}
}

// initialIsland draws and evaluates a fresh population.
func initialIsland(cfg Config, scheme sim.Scheme, r *rng.Stream) IslandState {
	rows := cfg.Attack.Params.RowsPerBank
	st := IslandState{Members: make([]Member, cfg.Population)}
	for i := range st.Members {
		g := RandomGenome(rows, cfg.MaxPairs, r)
		st.Members[i] = evaluate(cfg, scheme, g, r)
		if i == 0 || st.Members[i].Score > st.Best.Score {
			st.Best = st.Members[i]
		}
	}
	return st
}

// evolve runs gens elitist mutate-evaluate generations on one island,
// appending the best-so-far to the island's history after each.
func evolve(cfg Config, scheme sim.Scheme, st *IslandState, gens int, r *rng.Stream) {
	rows := cfg.Attack.Params.RowsPerBank
	for g := 0; g < gens; g++ {
		for i := range st.Members {
			child := st.Members[i].Genome.Mutate(rows, cfg.MaxPairs, r)
			cand := evaluate(cfg, scheme, child, r)
			if cand.Score >= st.Members[i].Score {
				st.Members[i] = cand
			}
			// Checked every generation regardless of acceptance, so a
			// migrant elite that is never beaten by a child still ratchets
			// the island's best.
			if st.Members[i].Score > st.Best.Score {
				st.Best = st.Members[i]
			}
		}
		st.History = append(st.History, st.Best.Score)
	}
}

// evaluate scores one genome: its pattern is replayed for cfg.Attack.ACTs
// activations under a private simulation seed drawn from the island stream.
func evaluate(cfg Config, scheme sim.Scheme, g Genome, r *rng.Stream) Member {
	seed := r.Uint64()
	res := sim.RunAttackEngine(cfg.Attack, scheme, g.Build(), seed, cfg.Engine)
	return Member{Genome: g, Score: res.MaxDisturbance, Seed: seed}
}

// migrate applies the deterministic ring exchange: island i's best-so-far
// replaces island (i+1) mod N's worst member (lowest score; lowest index on
// ties). All elites are gathered before any replacement, so the exchange is
// simultaneous — a cascade would make island i+2 receive island i's elite in
// one step, which would depend on iteration order.
func migrate(islands []IslandState) {
	n := len(islands)
	if n < 2 {
		return
	}
	elites := make([]Member, n)
	for i := range islands {
		elites[i] = islands[i].Best
	}
	for i := range islands {
		dst := &islands[(i+1)%n]
		worst := 0
		for j := 1; j < len(dst.Members); j++ {
			if dst.Members[j].Score < dst.Members[worst].Score {
				worst = j
			}
		}
		dst.Members[worst] = elites[i]
	}
}

// cloneIsland deep-copies an island state so an epoch never aliases its
// input (which may be the checkpoint-restored previous epoch, reused on a
// retried attempt).
func cloneIsland(in IslandState) IslandState {
	out := IslandState{
		Members: make([]Member, len(in.Members)),
		Best:    in.Best,
		History: append([]int(nil), in.History...),
	}
	for i, m := range in.Members {
		out.Members[i] = Member{Genome: m.Genome.clone(), Score: m.Score, Seed: m.Seed}
	}
	out.Best.Genome = in.Best.Genome.clone()
	return out
}

// result assembles the campaign result from the final epoch's states.
func (c Config) result(final epochState) Result {
	res := Result{
		History:         make([]int, c.Generations),
		IslandHistories: make([][]int, c.Islands),
		Evaluations:     c.Islands * c.Population * (c.Generations + 1),
	}
	for i, st := range final.Islands {
		res.IslandHistories[i] = st.History
		for g, v := range st.History {
			if v > res.History[g] {
				res.History[g] = v
			}
		}
		if i == 0 || st.Best.Score > res.BestDisturbance {
			res.BestDisturbance = st.Best.Score
			res.BestGenome = st.Best.Genome
			res.BestSeed = st.Best.Seed
			res.BestIsland = i
		}
	}
	res.BestPattern = res.BestGenome.Build()
	return res
}
