package montecarlo

import (
	"context"
	"fmt"

	"pride/internal/engine"
	"pride/internal/rng"
	"pride/internal/trialrunner"
)

// Sharding plan: a simulation budget is cut into independent chunks, each
// driven by its own index-derived RNG stream (rng.Derived(seed, chunk)).
// The plan is a pure function of the budget — never of the worker count —
// so the merged result is bit-for-bit identical for any number of workers,
// including 1. Chunks target a pool-friendly count while staying large
// enough that the per-chunk warm-up transient (each chunk starts with an
// empty FIFO rather than a stationary one) stays statistically negligible.
const (
	// targetChunks is the sharding granularity: enough chunks that pools of
	// any practical width load-balance, few enough that per-chunk overhead
	// and warm-up bias vanish.
	targetChunks = 64
	// minLossChunkPeriods floors the chunk size so tiny budgets are not
	// atomized (the warm-up transient is tens of windows per chunk).
	minLossChunkPeriods = 4096
	// minRoundChunk floors the per-chunk round count; rounds carry no
	// cross-round state at all, so the floor only bounds scheduling
	// overhead.
	minRoundChunk = 512
)

// chunkSizes cuts total into deterministic shard sizes of at least minChunk,
// independent of worker count.
func chunkSizes(total, minChunk int) []int {
	chunk := (total + targetChunks - 1) / targetChunks
	if chunk < minChunk {
		chunk = minChunk
	}
	n := (total + chunk - 1) / chunk
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = chunk
	}
	sizes[n-1] = total - (n-1)*chunk
	return sizes
}

// merge accumulates o into r (same configuration, so equal slice lengths).
func (r *LossResult) merge(o LossResult) {
	for i := range o.PerPosition {
		r.PerPosition[i].Insertions += o.PerPosition[i].Insertions
		r.PerPosition[i].Evicted += o.PerPosition[i].Evicted
		r.PerPosition[i].Mitigated += o.PerPosition[i].Mitigated
	}
	for i := range o.StartOccupancy {
		r.StartOccupancy[i] += o.StartOccupancy[i]
	}
}

// LossCampaignKey is the canonical checkpoint key of a loss campaign: every
// parameter the chunk plan, per-chunk RNG streams, and per-chunk draw
// sequences depend on — including the engine — and nothing else (in
// particular not the worker count). The exact engine keeps the historical
// key spelling, so checkpoints written before engines existed still resume.
func LossCampaignKey(cfg LossConfig, seed uint64, eng engine.Kind) string {
	return fmt.Sprintf("montecarlo.loss|n=%d|w=%d|p=%g|periods=%d|seed=%d%s",
		cfg.Entries, cfg.Window, cfg.InsertionProb, cfg.Periods, seed, engine.KeySuffix(eng))
}

// LossCampaignTrials reports how many chunks (checkpointable trials) a loss
// campaign over cfg runs — the trial total a progress meter should expect.
func LossCampaignTrials(cfg LossConfig) int {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return len(chunkSizes(cfg.Periods, minLossChunkPeriods))
}

// totalMitigations sums the mitigation counter across window positions.
func (r LossResult) totalMitigations() int64 {
	var total int64
	for _, s := range r.PerPosition {
		total += int64(s.Mitigated)
	}
	return total
}

// SimulateLossCampaign shards cfg.Periods into independent chunks and runs
// them on a trialrunner pool, merging per-position and occupancy counters in
// chunk order. Chunk i always consumes stream rng.Derived(seed, i), so the
// result is a pure function of (cfg, seed, opts.Engine): opts.Workers only
// changes how fast it arrives.
//
// The estimator is the same unbiased one as SimulateLoss; the only
// difference from one long serial stream is that each chunk restarts from an
// empty FIFO, a warm-up transient of tens of windows per >=4096-window
// chunk. The cross-validation tests hold the sharded campaign to the exact
// DP model with the same tolerances as the serial engine. Cancellation,
// checkpoint/resume and metering follow trialrunner.Map.
func SimulateLossCampaign(ctx context.Context, cfg LossConfig, seed uint64, opts trialrunner.Options) (LossResult, error) {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if opts.Checkpoint.Key == "" {
		opts.Checkpoint.Key = LossCampaignKey(cfg, seed, opts.Engine)
	}
	cfg.SelfCheck = cfg.SelfCheck || opts.SelfCheck
	sizes := chunkSizes(cfg.Periods, minLossChunkPeriods)
	// One scratch arena per worker index: chunks run by the same worker
	// reuse the FIFO buffer; scratch never reaches a result.
	scratch := make([]lossScratch, opts.PoolSize(len(sizes)))
	results, err := trialrunner.Map(ctx, len(sizes),
		func(worker, i int) LossResult {
			c := cfg
			c.Periods = sizes[i]
			// A tripped event-engine guard re-runs the chunk on the exact
			// engine from a fresh stream derived from the same index.
			return trialrunner.Guarded(&opts, "montecarlo.event", i,
				func() LossResult { return simulateLossEvent(c, rng.Derived(seed, uint64(i)), &scratch[worker]) },
				func() LossResult { return simulateLoss(c, rng.Derived(seed, uint64(i)), &scratch[worker]) })
		},
		func(i int, r LossResult) error {
			opts.AddPeriods(int64(sizes[i]))
			opts.AddMitigations(r.totalMitigations())
			return nil
		}, opts)
	if err != nil {
		return LossResult{}, err
	}
	return trialrunner.Fold(results, func(acc, next LossResult) LossResult {
		acc.merge(next)
		return acc
	}), nil
}

// RoundsCampaignKey is the canonical checkpoint key of a round-failure
// campaign; like LossCampaignKey it embeds the engine, with the exact
// engine keeping the historical spelling.
func RoundsCampaignKey(cfg RoundConfig, seed uint64, eng engine.Kind) string {
	return fmt.Sprintf("montecarlo.rounds|n=%d|w=%d|p=%g|trh=%d|rounds=%d|seed=%d%s",
		cfg.Entries, cfg.Window, cfg.InsertionProb, cfg.TRH, cfg.Rounds, seed, engine.KeySuffix(eng))
}

// SimulateRoundsCampaign shards cfg.Rounds into chunks on a trialrunner
// pool, with the same cancellation/checkpoint/metering contract as
// SimulateLossCampaign. Rounds are fully independent (each resets the
// tracker), so sharding is exact, not merely unbiased: the merged counts are
// worker-count invariant.
// Progress reports each chunk's activation slots as window-equivalents
// (rounds x TRH / W, an upper bound since rounds end early on mitigation)
// and every non-failing round as one mitigation of the aggressor.
func SimulateRoundsCampaign(ctx context.Context, cfg RoundConfig, seed uint64, opts trialrunner.Options) (RoundResult, error) {
	if cfg.Rounds <= 0 {
		panic(fmt.Sprintf("montecarlo: invalid round config %+v", cfg))
	}
	if opts.Checkpoint.Key == "" {
		opts.Checkpoint.Key = RoundsCampaignKey(cfg, seed, opts.Engine)
	}
	cfg.SelfCheck = cfg.SelfCheck || opts.SelfCheck
	sizes := chunkSizes(cfg.Rounds, minRoundChunk)
	scratch := make([]roundScratch, opts.PoolSize(len(sizes)))
	results, err := trialrunner.Map(ctx, len(sizes),
		func(worker, i int) RoundResult {
			c := cfg
			c.Rounds = sizes[i]
			return trialrunner.Guarded(&opts, "montecarlo.event", i,
				func() RoundResult { return simulateRoundsEvent(c, rng.Derived(seed, uint64(i)), &scratch[worker]) },
				func() RoundResult { return simulateRounds(c, rng.Derived(seed, uint64(i)), &scratch[worker]) })
		},
		func(i int, r RoundResult) error {
			opts.AddPeriods(int64(r.Rounds) * int64(cfg.TRH) / int64(cfg.Window))
			opts.AddMitigations(int64(r.Rounds - r.Failures))
			return nil
		}, opts)
	if err != nil {
		return RoundResult{}, err
	}
	return trialrunner.Fold(results, func(acc, next RoundResult) RoundResult {
		acc.Rounds += next.Rounds
		acc.Failures += next.Failures
		return acc
	}), nil
}
