package system

import (
	"context"
	"reflect"
	"testing"

	"pride/internal/baseline"
	"pride/internal/core"
	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/rng"
	"pride/internal/sim"
	"pride/internal/tracker"
	"pride/internal/trialrunner"
)

// pOneScheme is PrIDE with insertion probability 1, the configuration where
// the event engine's gaps are always zero and the per-bank shared streams
// are consumed in the exact engine's order — so trials are bit-identical.
func pOneScheme() sim.Scheme {
	return sim.Scheme{
		Name:                "PrIDE-p1",
		MitigationEveryNREF: 1,
		New: func(p dram.Params, r *rng.Stream) tracker.Tracker {
			cfg := core.DefaultConfig(p.ACTsPerTREFI())
			cfg.RowBits = p.RowBits
			cfg.InsertionProb = 1
			return core.New(cfg, r)
		},
	}
}

func TestRunEngineBitIdenticalAtPOne(t *testing.T) {
	cfg := Config{Params: sysParams(), Banks: 3, TRH: 400, MaxTREFI: 3000}
	for seed := uint64(1); seed <= 3; seed++ {
		exact := RunEngine(cfg, pOneScheme(), seed, engine.Exact)
		event := RunEngine(cfg, pOneScheme(), seed, engine.Event)
		if !reflect.DeepEqual(exact, event) {
			t.Errorf("seed %d: p=1 engines diverged:\nexact %+v\nevent %+v", seed, exact, event)
		}
	}
}

func TestRunEngineFallsBackWithoutSkipAhead(t *testing.T) {
	// PRoHIT's insertion decision is table-state-coupled: no skip-ahead,
	// so the event engine must fall back to an identically-seeded exact run.
	prohit := sim.Scheme{
		Name:                "PRoHIT",
		MitigationEveryNREF: 1,
		New: func(p dram.Params, r *rng.Stream) tracker.Tracker {
			return baseline.NewPRoHIT(baseline.DefaultPRoHITEntries, p.RowBits,
				baseline.DefaultPRoHITInsertProb, baseline.DefaultPRoHITPromoteProb, r)
		},
	}
	cfg := Config{Params: sysParams(), Banks: 2, TRH: 80, MaxTREFI: 3000}
	exact := Run(cfg, prohit, 7)
	event := RunEngine(cfg, prohit, 7, engine.Event)
	if !reflect.DeepEqual(exact, event) {
		t.Fatalf("fallback diverged:\nexact %+v\nevent %+v", exact, event)
	}
}

// TestMeasureMTTFEngineAgreesWithCampaign pins the serial sampler's engine
// plumbing: MeasureMTTFEngine derives trial seeds exactly like
// MeasureMTTFCampaign, so for EITHER engine the serial measurement and a
// multi-worker campaign are bit-identical. (Before MeasureMTTFEngine the
// serial path drew seeds sequentially and hardwired the exact engine, so the
// two samplers could never be compared trial for trial.)
func TestMeasureMTTFEngineAgreesWithCampaign(t *testing.T) {
	cfg := Config{Params: sysParams(), Banks: 2, TRH: 150, MaxTREFI: 30_000}
	const trials, seed = 8, 11
	for _, eng := range []engine.Kind{engine.Exact, engine.Event} {
		serialMean, serialFailed := MeasureMTTFEngine(cfg, sim.PrIDEScheme(), trials, seed, eng)
		campMean, campFailed, err := MeasureMTTFCampaign(context.Background(), cfg, sim.PrIDEScheme(), trials, seed,
			trialrunner.Options{Workers: 4, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		if serialFailed == 0 {
			t.Fatalf("engine %v: no failures at TRH=150", eng)
		}
		if serialMean != campMean || serialFailed != campFailed {
			t.Fatalf("engine %v: serial (%.17g, %d) != campaign (%.17g, %d)",
				eng, serialMean, serialFailed, campMean, campFailed)
		}
	}
}

// TestRunEventMultiTREFIAdvance exercises the bulk advance at a surviving
// threshold: a 100k-refresh-interval horizon retires through multi-window
// gap chunks (each spanning thousands of tREFIs, collapsed by memctrl's
// quiet cadence) and must still report the horizon exactly. The boundary
// bookkeeping's bit-exactness is pinned separately, by memctrl's collapse
// twins and the p=1 engine identity above.
func TestRunEventMultiTREFIAdvance(t *testing.T) {
	cfg := Config{Params: sysParams(), Banks: 1, TRH: 100_000, MaxTREFI: 100_000}
	res := RunEngine(cfg, sim.PrIDEScheme(), 5, engine.Event)
	if res.Failed {
		t.Fatalf("unexpected failure at TRH=100000: %+v", res)
	}
	if res.TREFIsSimulated != cfg.MaxTREFI {
		t.Fatalf("TREFIsSimulated = %d, want %d", res.TREFIsSimulated, cfg.MaxTREFI)
	}
}

func TestMTTFCampaignEventEngine(t *testing.T) {
	cfg := Config{Params: sysParams(), Banks: 2, TRH: 150, MaxTREFI: 30_000}
	const trials, seed = 8, 11
	wantMean, wantFailed, err := MeasureMTTFCampaign(context.Background(), cfg, sim.PrIDEScheme(), trials, seed,
		trialrunner.Options{Workers: 1, Engine: engine.Event})
	if err != nil {
		t.Fatal(err)
	}
	if wantFailed == 0 {
		t.Fatal("event engine saw no failures at TRH=150")
	}
	mean, failed, err := MeasureMTTFCampaign(context.Background(), cfg, sim.PrIDEScheme(), trials, seed,
		trialrunner.Options{Workers: 4, Engine: engine.Event})
	if err != nil {
		t.Fatal(err)
	}
	if mean != wantMean || failed != wantFailed {
		t.Fatalf("workers=4: (%.17g, %d) != workers=1 (%.17g, %d)", mean, failed, wantMean, wantFailed)
	}

	// Same failure process on the exact engine: both samplers must see most
	// trials fail and means of the same order of magnitude.
	exactMean, exactFailed := mttfAt(cfg, sim.PrIDEScheme(), trials, seed, 4)
	if exactFailed < 6 || wantFailed < 6 {
		t.Fatalf("too few failures to compare: exact %d, event %d", exactFailed, wantFailed)
	}
	if ratio := wantMean / exactMean; ratio < 1.0/3 || ratio > 3 {
		t.Errorf("MTTF means: event %.3g vs exact %.3g (ratio %.2f)", wantMean, exactMean, ratio)
	}

	if MTTFCampaignKey(cfg, sim.PrIDEScheme(), trials, seed, engine.Exact) ==
		MTTFCampaignKey(cfg, sim.PrIDEScheme(), trials, seed, engine.Event) {
		t.Fatal("MTTF keys identical across engines")
	}
}
