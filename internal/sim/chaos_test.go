package sim

import (
	"context"
	"reflect"
	"testing"

	"pride/internal/engine"
	"pride/internal/faultinject"
	"pride/internal/obs"
	"pride/internal/trialrunner"
)

// TestAttackForcedTripFallsBackToExact forces a guard trip on every
// event-engine attack trial: each one must re-run on the exact engine with
// the same trial-derived seed, so the campaign equals the exact-engine
// campaign bit-for-bit and every fallback is counted.
func TestAttackForcedTripFallsBackToExact(t *testing.T) {
	suite := parallelSuite(5)
	cfg := attackCfg(10_000)
	const seeds, baseSeed = 2, 77
	exact, err := MaxDisturbanceOverSuiteCampaign(context.Background(), cfg, PrIDEScheme(), suite, seeds, baseSeed,
		trialrunner.Options{Workers: 2, Engine: engine.Exact})
	if err != nil {
		t.Fatal(err)
	}

	inj := faultinject.New(1)
	inj.Arm(faultinject.SiteEngineTrip, faultinject.Trigger{Every: 1})
	trials := len(suite) * seeds
	camp := obs.NewCampaign("attack-trip", trials, 2)
	got, err := MaxDisturbanceOverSuiteCampaign(context.Background(), cfg, PrIDEScheme(), suite, seeds, baseSeed,
		trialrunner.Options{Workers: 2, Engine: engine.Event, Progress: camp, Observer: camp, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if got != exact {
		t.Fatalf("tripped-everywhere event campaign %+v differs from exact campaign %+v", got, exact)
	}
	if n := camp.Snapshot().EngineFallbacks; n != int64(trials) {
		t.Fatalf("EngineFallbacks = %d, want %d (one per trial)", n, trials)
	}
}

// TestSuiteLossForcedTripFallsBackToExact covers the same contract for the
// Fig 18 loss-measurement campaign shape.
func TestSuiteLossForcedTripFallsBackToExact(t *testing.T) {
	suite := parallelSuite(3)
	const entries, w, acts, seed = 4, 16, 20_000, 11
	exact, err := MeasureSuiteLossCampaign(context.Background(), entries, w, suite, acts, seed,
		trialrunner.Options{Workers: 2, Engine: engine.Exact})
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(1)
	inj.Arm(faultinject.SiteEngineTrip, faultinject.Trigger{Every: 1})
	got, err := MeasureSuiteLossCampaign(context.Background(), entries, w, suite, acts, seed,
		trialrunner.Options{Workers: 2, Engine: engine.Event, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, exact) {
		t.Fatal("tripped-everywhere loss campaign differs from the exact campaign")
	}
}

// TestAttackSelfCheckInvariance pins that the runtime guards are read-only:
// a healthy attack run produces identical results (and trips nothing) with
// self-checking on and off, on both engines.
func TestAttackSelfCheckInvariance(t *testing.T) {
	cfg := attackCfg(20_000)
	checked := cfg
	checked.SelfCheck = true
	pat := parallelSuite(5)[1] // TRRespass exercises the FIFO hardest
	for _, eng := range []engine.Kind{engine.Exact, engine.Event} {
		want := RunAttackEngine(cfg, PrIDEScheme(), pat.Clone(), 7, eng)
		got := RunAttackEngine(checked, PrIDEScheme(), pat.Clone(), 7, eng)
		if got != want {
			t.Fatalf("engine %v: SelfCheck changed the attack result:\n got %+v\nwant %+v", eng, got, want)
		}
	}

	// Campaign-level SelfCheck (the -selfcheck flag path) is equally inert.
	suite := parallelSuite(5)
	plain, err := MaxDisturbanceOverSuiteCampaign(context.Background(), cfg, PrIDEScheme(), suite, 2, 77,
		trialrunner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := MaxDisturbanceOverSuiteCampaign(context.Background(), cfg, PrIDEScheme(), suite, 2, 77,
		trialrunner.Options{Workers: 2, SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain != guarded {
		t.Fatal("-selfcheck changed the attack campaign result")
	}
}
