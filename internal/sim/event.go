package sim

import (
	"fmt"

	"pride/internal/core"
	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/memctrl"
	"pride/internal/patterns"
	"pride/internal/rng"
	"pride/internal/tracker"
)

// This file implements the event-driven attack engine. The exact engine
// (sim.go) steps every activation: one pattern step, one tracker draw, one
// bank-counter update per ACT. With a skip-ahead tracker (PrIDE, PARA) the
// insertion decision is a pattern-independent Bernoulli(p), so the event
// engine samples the geometric gap to the next insertion (rng.SkipT) and
// retires the gap in bulk: pattern runs collapse through Pattern.Run/Advance
// into memctrl.ActivateRun segments, whose deterministic hammer/REF/RFM
// bookkeeping is ACT-for-ACT identical to the stepped path.
//
// The gap draws and the tracker's transitive-mitigation draws share ONE
// stream, in the same order the exact engine consumes them (gap drawn
// immediately before the insertion it decides). At p = 1 every slot inserts
// and the two engines' draw sequences coincide exactly, which the tests pin
// as bit-identity; below p = 1 equivalence is statistical.
//
// Scheduled trackers (MINT) pre-commit each interval's insertion position
// instead of drawing per ACT, so geometric gaps would simulate the wrong
// process; for those the engine queries tracker.ScheduledAdvancer.NextInsert
// and idles to either the scheduled slot or the next mitigation opportunity,
// re-querying after every opportunity. Because the schedule draw happens
// inside OnMitigate on both paths, the scheduled event path is bit-identical
// to the exact path at ANY insertion probability.
//
// Trackers without either capability (PRoHIT, DSAC, PARFM, MOAT, insecure
// PrIDE ablations) and the OpenPage policy (activations depend on row-buffer
// state, so slots are not iid) fall back to the exact loop.

// RunAttack replays one pattern against one scheme for cfg.ACTs activations
// on the selected engine and returns the measured metrics. The event engine
// falls back to the exact loop when the scheme's tracker does not support
// skip-ahead or the policy is OpenPage; the fallback constructs the trial
// identically to the exact engine, so it is bit-identical to it.
func RunAttack(cfg AttackConfig, s Scheme, pat *patterns.Pattern, seed uint64, eng engine.Kind) AttackResult {
	return runAttackEngine(cfg, s, pat, seed, nil, eng)
}

// runAttackEngine dispatches one trial to the selected engine, optionally
// against a caller-supplied freshly-reset bank.
func runAttackEngine(cfg AttackConfig, s Scheme, pat *patterns.Pattern, seed uint64, bank *dram.Bank, eng engine.Kind) AttackResult {
	if eng == engine.Event {
		return runAttackEvent(cfg, s, pat, seed, bank)
	}
	return runAttack(cfg, s, pat, seed, bank)
}

func runAttackEvent(cfg AttackConfig, s Scheme, pat *patterns.Pattern, seed uint64, bank *dram.Bank) AttackResult {
	if cfg.ACTs <= 0 {
		panic(fmt.Sprintf("sim: ACTs must be positive, got %d", cfg.ACTs))
	}
	if bank == nil {
		bank = dram.MustNewBank(cfg.Params, cfg.TRH)
	}
	// The gap sampler and the tracker share one stream, like the exact
	// engine's per-ACT draws and transitive draws do.
	r := rng.New(seed)
	trk := s.New(cfg.Params, r)
	mcfg := memctrl.DefaultConfig(cfg.Params)
	mcfg.RFMThreshold = s.RFMThreshold
	if s.MitigationEveryNREF > 0 {
		mcfg.MitigationEveryNREF = s.MitigationEveryNREF
	}
	mcfg.SelfCheck = cfg.SelfCheck
	ctrl := memctrl.New(mcfg, bank, trk)

	sa, ok := ctrl.SkipAdvancer()
	if !ok || cfg.Policy == OpenPage {
		if sched, sok := ctrl.ScheduledAdvancer(); sok && cfg.Policy != OpenPage {
			scheduledReplay(ctrl, sched, pat, cfg)
			return attackResult(s, pat, bank, ctrl)
		}
		steppedReplay(ctrl, pat, cfg)
		return attackResult(s, pat, bank, ctrl)
	}

	sk := rng.NewSkip(rng.NewThreshold(sa.InsertionProb()))
	pat.Reset()
	left := cfg.ACTs
	for left > 0 {
		g := r.SkipT(sk)
		if g >= left {
			// No further insertion lands inside the budget: the rest of the
			// trial is one idle stretch.
			idleACTs(ctrl, pat, left)
			break
		}
		idleACTs(ctrl, pat, g)
		left -= g
		ctrl.ActivateInsert(pat.Next())
		left--
	}
	return attackResult(s, pat, bank, ctrl)
}

// scheduledReplay is the event loop for scheduled trackers: idle to the
// tracker's next scheduled insertion when it lands before the next
// mitigation opportunity, otherwise idle through the opportunity (inside
// ActivateRun, which fires OnMitigate at the exact boundary, advancing the
// schedule) and re-query.
func scheduledReplay(ctrl *memctrl.Controller, sched tracker.ScheduledAdvancer, pat *patterns.Pattern, cfg AttackConfig) {
	pat.Reset()
	left := cfg.ACTs
	for left > 0 {
		idle, ok := sched.NextInsert()
		if ok && idle < ctrl.ACTsToNextMitigation() {
			if idle >= left {
				idleACTs(ctrl, pat, left)
				return
			}
			idleACTs(ctrl, pat, idle)
			left -= idle
			ctrl.ActivateInsert(pat.Next())
			left--
			continue
		}
		// No insertion lands before the next opportunity.
		n := ctrl.ACTsToNextMitigation()
		if n > left {
			n = left
		}
		idleACTs(ctrl, pat, n)
		left -= n
	}
}

// idleACTs retires n insertion-free activations. Patterns with a small
// fundamental cycle (single-sided, double-sided, TRRespass, Blacksmith
// without decoy drift) retire the whole stretch through one
// ActivateRunGroup call — the alternating-pattern fix: a length-2 cycle no
// longer degenerates to per-ACT work. Longer cycles fall back to same-row
// run batching.
func idleACTs(ctrl *memctrl.Controller, pat *patterns.Pattern, n int) {
	if n <= 0 {
		return
	}
	if pat.CycleLen() <= patterns.MaxBatchGroup {
		rows, phase := pat.Group()
		ctrl.ActivateRunGroup(rows, phase, n)
		pat.Advance(n)
		return
	}
	for n > 0 {
		row, k := pat.Run(n)
		ctrl.ActivateRun(row, k)
		pat.Advance(k)
		n -= k
	}
}

func measurePatternLossEngine(entries, w int, pat *patterns.Pattern, acts int, seed uint64, sc *lossMeasureScratch, eng engine.Kind, selfCheck bool) LossMeasurement {
	if eng == engine.Event {
		return measurePatternLossEvent(entries, w, pat, acts, seed, sc, selfCheck)
	}
	return measurePatternLoss(entries, w, pat, acts, seed, sc, selfCheck)
}

// measurePatternLossEvent is the event-driven measurePatternLoss: the
// tracker-only replay has no bank, so an idle stretch is just AdvanceIdle
// plus cursor movement, split at the every-w-ACTs mitigation boundaries.
func measurePatternLossEvent(entries, w int, pat *patterns.Pattern, acts int, seed uint64, sc *lossMeasureScratch, selfCheck bool) LossMeasurement {
	if acts <= 0 {
		panic(fmt.Sprintf("sim: acts must be positive, got %d", acts))
	}
	r := rng.New(seed)
	trk := core.New(lossTrackerConfig(entries, w, selfCheck), r)

	sc.reset()
	sc.observe(trk)

	sk := rng.NewSkip(rng.NewThreshold(trk.InsertionProb()))
	pat.Reset()
	pos := 0 // ACTs into the current mitigation window
	idle := func(n int) {
		if trk.Occupancy() == 0 && n > 0 {
			// Empty FIFO and no insertion lands inside the stretch, so every
			// window boundary is an idle pop: no draws, no observer events
			// (see core.PrIDE.OnMitigate). The whole stretch collapses to
			// counter arithmetic.
			trk.AdvanceIdle(n)
			trk.AdvanceIdleMitigations((pos + n) / w)
			pos = (pos + n) % w
			pat.Advance(n)
			return
		}
		for n > 0 {
			k := w - pos
			if n < k {
				k = n
			}
			trk.AdvanceIdle(k)
			pat.Advance(k)
			pos += k
			n -= k
			if pos == w {
				pos = 0
				trk.OnMitigate()
			}
		}
	}
	left := acts
	for left > 0 {
		g := r.SkipT(sk)
		if g >= left {
			idle(left)
			break
		}
		idle(g)
		left -= g
		trk.ActivateInsert(pat.Next())
		left--
		pos++
		if pos == w {
			pos = 0
			trk.OnMitigate()
		}
	}
	return sc.measurement(pat)
}
