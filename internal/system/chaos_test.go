package system

import (
	"context"
	"testing"

	"pride/internal/engine"
	"pride/internal/faultinject"
	"pride/internal/obs"
	"pride/internal/sim"
	"pride/internal/trialrunner"
)

// TestMTTFForcedTripFallsBackToExact forces a guard trip on every
// event-engine trial of an MTTF campaign: each trial re-runs on the exact
// engine with the same trial-derived seed, so the campaign matches the
// exact-engine campaign bit-for-bit and every fallback is counted.
func TestMTTFForcedTripFallsBackToExact(t *testing.T) {
	cfg := Config{Params: sysParams(), Banks: 2, TRH: 150, MaxTREFI: 30_000}
	const trials, seed = 6, 21
	exactMean, exactFailed, err := MeasureMTTFCampaign(context.Background(), cfg, sim.PrIDEScheme(), trials, seed,
		trialrunner.Options{Workers: 2, Engine: engine.Exact})
	if err != nil {
		t.Fatal(err)
	}

	inj := faultinject.New(1)
	inj.Arm(faultinject.SiteEngineTrip, faultinject.Trigger{Every: 1})
	camp := obs.NewCampaign("mttf-trip", trials, 2)
	mean, failed, err := MeasureMTTFCampaign(context.Background(), cfg, sim.PrIDEScheme(), trials, seed,
		trialrunner.Options{Workers: 2, Engine: engine.Event, Progress: camp, Observer: camp, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if mean != exactMean || failed != exactFailed {
		t.Fatalf("tripped-everywhere event campaign (%v, %d) differs from exact campaign (%v, %d)",
			mean, failed, exactMean, exactFailed)
	}
	if n := camp.Snapshot().EngineFallbacks; n != int64(trials) {
		t.Fatalf("EngineFallbacks = %d, want %d (one per trial)", n, trials)
	}
}

// TestSystemSelfCheckInvariance pins that the runtime guards never perturb a
// whole-system run: identical results with self-checking on and off, and a
// healthy simulation trips nothing.
func TestSystemSelfCheckInvariance(t *testing.T) {
	cfg := Config{Params: sysParams(), Banks: 2, TRH: 100, MaxTREFI: 5000}
	checked := cfg
	checked.SelfCheck = true
	for _, eng := range []engine.Kind{engine.Exact, engine.Event} {
		want := RunEngine(cfg, sim.PrIDEScheme(), 9, eng)
		got := RunEngine(checked, sim.PrIDEScheme(), 9, eng)
		if got != want {
			t.Fatalf("engine %v: SelfCheck changed the system result:\n got %+v\nwant %+v", eng, got, want)
		}
	}

	// Campaign-level SelfCheck (the -selfcheck flag path) is equally inert.
	const trials, seed = 4, 21
	plainMean, plainFailed, err := MeasureMTTFCampaign(context.Background(), cfg, sim.PrIDEScheme(), trials, seed,
		trialrunner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	mean, failed, err := MeasureMTTFCampaign(context.Background(), cfg, sim.PrIDEScheme(), trials, seed,
		trialrunner.Options{Workers: 2, SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if mean != plainMean || failed != plainFailed {
		t.Fatal("-selfcheck changed the MTTF campaign result")
	}
}
