package server

import (
	"context"
	"strings"
	"testing"

	"pride/internal/addrmap"
	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/montecarlo"
	"pride/internal/sim"
	"pride/internal/system"
	"pride/internal/trialrunner"
	"pride/internal/workload"
)

func TestSpecPrepareValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error
	}{
		{"no sub-spec", Spec{Kind: "security"}, "exactly one"},
		{"two sub-specs", Spec{Kind: "security", Security: &SecuritySpec{Periods: 1}, TTF: &TTFSpec{}}, "exactly one"},
		{"kind/sub-spec mismatch", Spec{Kind: "security", TTF: &TTFSpec{}}, `kind "security" requires`},
		{"unknown kind", Spec{Kind: "nope", Security: &SecuritySpec{Periods: 1}}, "unknown kind"},
		{"unknown engine", Spec{Kind: "security", Engine: "warp", Security: &SecuritySpec{Periods: 1}}, "unknown engine"},
		{"bad periods", Spec{Kind: "security", Security: &SecuritySpec{Periods: -1}}, "Periods"},
		{"unknown scheme", Spec{Kind: "ttfsim", TTF: &TTFSpec{Scheme: "nope", Banks: 1, TRH: 100, MaxTREFI: 10, Trials: 1}}, "unknown scheme"},
		{"bad trials", Spec{Kind: "ttfsim", TTF: &TTFSpec{Scheme: "PrIDE", Banks: 1, TRH: 100, MaxTREFI: 10, Trials: 0}}, "trials"},
		{"bad acts", Spec{Kind: "attack", Attack: &AttackSpec{Scheme: "PrIDE", ACTs: 0}}, "ACTs"},
		{"replay both sources", Spec{Kind: "replay", Replay: &ReplaySpec{Workload: "lbm", TracePath: "/t", Scheme: "PrIDE", TRH: 500}}, "exactly one of workload"},
		{"replay neither source", Spec{Kind: "replay", Replay: &ReplaySpec{Scheme: "PrIDE", TRH: 500}}, "exactly one of workload"},
		{"replay engine rejected", Spec{Kind: "replay", Engine: "exact", Replay: &ReplaySpec{Workload: "lbm", ACTs: 10, Mapping: "col=6 bank=2 row=10 rank=0 chan=0 xor=0", Scheme: "PrIDE", TRH: 500}}, "inherently exact"},
		{"replay unknown workload", Spec{Kind: "replay", Replay: &ReplaySpec{Workload: "quake", ACTs: 10, Mapping: "col=6 bank=2 row=10 rank=0 chan=0 xor=0", Scheme: "PrIDE", TRH: 500}}, "unknown workload"},
	}
	for _, tc := range cases {
		_, err := tc.spec.prepare()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestSecurityKeyMatchesCLIKey(t *testing.T) {
	// The server's cache key must be the exact checkpoint key the
	// equivalent CLI run derives — that identity is what makes a CLI
	// checkpoint and a server cache entry interchangeable descriptions of
	// the same computation. Each want comes from the library key function
	// the CLI calls, with the spec's parameters. For attack that pins only
	// the key function, not a pride-attack invocation: pride-attack builds
	// the suite from -seed but uses -seed+len(scheme name) as the base seed,
	// and its key counts len(suite) = -patterns+1 (Fig15Suite appends one
	// pattern), while the daemon keys the spec's pattern count and uses the
	// spec seed for both.
	cases := []struct {
		kind string
		spec Spec
		want string
	}{
		{"security", Spec{Kind: "security", Seed: 42, Security: &SecuritySpec{Entries: 2, Window: 16, Periods: 1000}},
			montecarlo.LossCampaignKey(montecarlo.LossConfig{Entries: 2, Window: 16, InsertionProb: 1.0 / 16, Periods: 1000}, 42, engine.Event)},
		{"attack", Spec{Kind: "attack", Seed: 5, Attack: &AttackSpec{Scheme: "PrIDE", ACTs: 20000, Patterns: 3, Seeds: 2}},
			sim.AttackCampaignKey(sim.AttackConfig{Params: sim.AttackParams(), ACTs: 20000}, sim.PrIDEScheme(), 3, 2, 5, engine.Event)},
		{"ttfsim", Spec{Kind: "ttfsim", Seed: 3, Engine: "exact", TTF: &TTFSpec{Scheme: "PrIDE", Banks: 2, TRH: 150, MaxTREFI: 300, Trials: 4}},
			system.MTTFCampaignKey(system.Config{Params: system.TTFParams(), Banks: 2, TRH: 150, MaxTREFI: 300}, sim.PrIDEScheme(), 4, 3, engine.Exact)},
	}
	for _, c := range cases {
		p, err := c.spec.prepare()
		if err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		if p.key != c.want {
			t.Errorf("%s key = %q, want %q", c.kind, p.key, c.want)
		}
	}
}

func TestReplayJobKeyMatchesDirectCampaign(t *testing.T) {
	// The daemon files a replay job under a key computed by fingerprinting
	// the source before the run; it must equal the checkpoint key a direct
	// ReplayCampaign of the same generated workload derives.
	const mapping = "col=6 bank=2 row=10 rank=0 chan=1 xor=0"
	spec := Spec{Kind: "replay", Seed: 9, Replay: &ReplaySpec{
		Workload: "lbm", Mapping: mapping, ACTs: 5000, Scheme: "PrIDE", TRH: 500,
	}}
	p, err := spec.prepare()
	if err != nil {
		t.Fatal(err)
	}
	wl, ok := workload.ByName("lbm")
	if !ok {
		t.Fatal("workload lbm missing")
	}
	m, err := addrmap.ParseMapping(mapping)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := system.TopologyConfig{Params: dram.DDR5(), Mapping: m, Scheme: sim.PrIDEScheme(), TRH: 500, Seed: 9}
	topo, err := system.NewTopology(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := topo.ReplayCampaign(context.Background(), workload.NewAddrSource(wl, m, 5000, 9), trialrunner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := system.ReplayCampaignKey(tcfg, res.Records, res.CRC32); p.key != want {
		t.Fatalf("replay job key = %q, want %q", p.key, want)
	}
}

func TestSpecKeyIgnoresExecutionHints(t *testing.T) {
	base := Spec{Kind: "security", Seed: 1, Security: &SecuritySpec{Periods: 100}}
	p1, err := base.prepare()
	if err != nil {
		t.Fatal(err)
	}
	hinted := base
	hinted.Workers = 7
	hinted.TrialRetries = 3
	p2, err := hinted.prepare()
	if err != nil {
		t.Fatal(err)
	}
	if p1.key != p2.key {
		t.Fatalf("execution hints changed the cache key:\n  %q\n  %q", p1.key, p2.key)
	}
	if jobID(p1.key) != jobID(p2.key) {
		t.Fatal("job IDs differ for equal keys")
	}
}

func TestReplayKeyStableAcrossPrepares(t *testing.T) {
	spec := Spec{Kind: "replay", Seed: 9, Replay: &ReplaySpec{
		Workload: "lbm", Mapping: "col=6 bank=2 row=10 rank=0 chan=1 xor=0",
		ACTs: 5000, Scheme: "PrIDE", TRH: 500,
	}}
	p1, err := spec.prepare()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := spec.prepare()
	if err != nil {
		t.Fatal(err)
	}
	if p1.key != p2.key {
		t.Fatalf("replay key not stable:\n  %q\n  %q", p1.key, p2.key)
	}
	if !strings.Contains(p1.key, "records=5000") {
		t.Fatalf("replay key %q does not pin the record count", p1.key)
	}
}

func TestJobIDAndSeedAreDeterministic(t *testing.T) {
	if jobID("k") != jobID("k") || jobSeed("k") != jobSeed("k") {
		t.Fatal("jobID/jobSeed not deterministic")
	}
	if jobID("a") == jobID("b") {
		t.Fatal("distinct keys collided")
	}
	if len(jobID("x")) != 16 {
		t.Fatalf("jobID length = %d, want 16", len(jobID("x")))
	}
}
