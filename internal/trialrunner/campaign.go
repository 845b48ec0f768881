package trialrunner

import (
	"pride/internal/engine"
	"pride/internal/guard"
)

// The progress counters below report to Options.Progress. Each counter is
// an optional capability of the sink, discovered structurally and declared
// only here, so a sink implements just the counters it wants.

// AddPeriods reports n freshly-simulated refresh intervals (tREFI windows).
func (o *Options) AddPeriods(n int64) {
	if c, ok := o.Progress.(interface{ AddPeriods(n int64) }); ok {
		c.AddPeriods(n)
	}
}

// AddActivations reports n freshly-simulated demand activations.
func (o *Options) AddActivations(n int64) {
	if c, ok := o.Progress.(interface{ AddActivations(n int64) }); ok {
		c.AddActivations(n)
	}
}

// AddMitigations reports n mitigations issued by a tracker.
func (o *Options) AddMitigations(n int64) {
	if c, ok := o.Progress.(interface{ AddMitigations(n int64) }); ok {
		c.AddMitigations(n)
	}
}

// AddRecords reports n decoded trace records.
func (o *Options) AddRecords(n int64) {
	if c, ok := o.Progress.(interface{ AddRecords(n int64) }); ok {
		c.AddRecords(n)
	}
}

// AddBytes reports n bytes of decoded trace records.
func (o *Options) AddBytes(n int64) {
	if c, ok := o.Progress.(interface{ AddBytes(n int64) }); ok {
		c.AddBytes(n)
	}
}

// fallbackCounter is the Progress capability counting event→exact engine
// fallbacks (internal/obs.Campaign implements it).
type fallbackCounter interface{ AddEngineFallbacks(n int64) }

// engineTripper is the optional Faults capability that forces an invariant
// trip for a given trial index (faultinject.Injector implements it).
type engineTripper interface{ EngineTrip(trial uint64) bool }

// Guarded runs trial i of a stochastic campaign on opts.Engine. Any engine
// but engine.Event runs exact directly. The event engine runs event under
// guard.Run; when a guard trips — a genuine invariant violation, or one
// forced by a Faults schedule that implements EngineTrip — the trial re-runs
// on exact and one fallback is counted on Progress, so the campaign degrades
// gracefully instead of aborting. exact must rebuild whatever state event
// used (a fresh stream derived from the same trial index, a reset bank).
// site names the guard component in a forced trip's violation message
// ("montecarlo.event", "sim.event", ...).
func Guarded[R any](opts *Options, site string, i int, event, exact func() R) R {
	if opts.Engine != engine.Event {
		return exact()
	}
	forced := false
	if et, ok := opts.Faults.(engineTripper); ok {
		forced = et.EngineTrip(uint64(i))
	}
	r, v := guard.Run(func() R {
		if forced {
			guard.Failf(site, "forced-trip", "injected engine trip (trial %d)", i)
		}
		return event()
	})
	if v == nil {
		return r
	}
	if c, ok := opts.Progress.(fallbackCounter); ok {
		c.AddEngineFallbacks(1)
	}
	return exact()
}
