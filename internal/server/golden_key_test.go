package server

import (
	"testing"

	"pride/internal/addrmap"
	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/fuzz"
	"pride/internal/montecarlo"
	"pride/internal/sim"
	"pride/internal/system"
)

// TestGoldenCampaignKeys pins the exact checkpoint / cache key string of
// one input of every campaign kind. A key is the identity of a checkpoint
// file on disk and of a daemon result-cache entry, so any change to its
// spelling silently orphans every checkpoint and cache entry written
// before: resumes restart from zero and resubmissions recompute. Only the
// key helpers and Spec.prepare are used, so the test reads the same across
// refactors of the campaign runners behind them.
func TestGoldenCampaignKeys(t *testing.T) {
	attackParams := dram.DDR5()
	attackParams.RowsPerBank = 8192
	attackParams.RowBits = 13
	ttfParams := dram.DDR5()
	ttfParams.RowsPerBank = 4096
	ttfParams.RowBits = 12
	attack := sim.AttackConfig{Params: attackParams, ACTs: 40000, TRH: 1000}
	mapping, err := addrmap.ParseMapping("col=4 bank=2 row=10 rank=1 chan=1 xor=1")
	if err != nil {
		t.Fatal(err)
	}
	topo := system.TopologyConfig{Params: dram.DDR5(), Mapping: mapping, Scheme: sim.PrIDEScheme(), TRH: 300, Seed: 9, RFMBudgets: []int{0, 48}}
	search := fuzz.Config{Attack: attack, Generations: 5, Islands: 3, Population: 4, MigrateEvery: 2, MaxPairs: 8, Engine: engine.Event}

	cases := []struct {
		kind, got, want string
	}{
		{"loss", montecarlo.LossCampaignKey(montecarlo.LossConfig{Entries: 1, Window: 79, InsertionProb: 1.0 / 79, Periods: 200000}, 7, engine.Event), "montecarlo.loss|n=1|w=79|p=0.012658227848101266|periods=200000|seed=7|engine=event"},
		{"loss-exact", montecarlo.LossCampaignKey(montecarlo.LossConfig{Entries: 1, Window: 79, InsertionProb: 1.0 / 79, Periods: 200000}, 7, engine.Exact), "montecarlo.loss|n=1|w=79|p=0.012658227848101266|periods=200000|seed=7"},
		{"rounds", montecarlo.RoundsCampaignKey(montecarlo.RoundConfig{Entries: 4, Window: 79, InsertionProb: 1.0 / 79, TRH: 2000, Rounds: 5000}, 3, engine.Event), "montecarlo.rounds|n=4|w=79|p=0.012658227848101266|trh=2000|rounds=5000|seed=3|engine=event"},
		{"attack", sim.AttackCampaignKey(attack, sim.PrIDEScheme(), 3, 2, 7, engine.Event), "sim.attack|scheme=PrIDE|params={TREFW:32ms TREFI:3.9µs TRFC:350ns TRC:45ns TFAWLimit:22 BanksPerRank:32 Banks:64 RowsPerBank:8192 RowBits:13 MitigationsPerTREFI:1 BlastRadius:1}|acts=40000|trh=1000|policy=0|patterns=3|seeds=2|seed=7|engine=event"},
		{"suite-loss", sim.SuiteLossCampaignKey(4, 79, 30, 30000, 7, engine.Event), "sim.suiteloss|n=4|w=79|patterns=30|acts=30000|seed=7|engine=event"},
		{"mttf", system.MTTFCampaignKey(system.Config{Params: ttfParams, Banks: 2, TRH: 150, MaxTREFI: 30000}, sim.PrIDEScheme(), 4, 1, engine.Event), "system.mttf|scheme=PrIDE|params={TREFW:32ms TREFI:3.9µs TRFC:350ns TRC:45ns TFAWLimit:22 BanksPerRank:32 Banks:64 RowsPerBank:4096 RowBits:12 MitigationsPerTREFI:1 BlastRadius:1}|banks=2|trh=150|maxtrefi=30000|trials=4|seed=1|engine=event"},
		{"search", fuzz.SearchKey(search, sim.PrIDEScheme(), 7), "fuzz.search|scheme=PrIDE|params={TREFW:32ms TREFI:3.9µs TRFC:350ns TRC:45ns TFAWLimit:22 BanksPerRank:32 Banks:64 RowsPerBank:8192 RowBits:13 MitigationsPerTREFI:1 BlastRadius:1}|acts=40000|trh=1000|policy=0|gens=5|islands=3|pop=4|migrate=2|maxpairs=8|seed=7|engine=event"},
		{"replay", system.ReplayCampaignKey(topo, 60000, 0xdeadbeef), "system.replay|scheme=PrIDE|params={TREFW:32ms TREFI:3.9µs TRFC:350ns TRC:45ns TFAWLimit:22 BanksPerRank:32 Banks:64 RowsPerBank:131072 RowBits:17 MitigationsPerTREFI:1 BlastRadius:1}|mapping=col=4 bank=2 row=10 rank=1 chan=1 xor=1|trh=300|rfm=[0 48]|scramble=0|seed=9|records=60000|crc=deadbeef"},
	}
	specs := []struct {
		kind string
		spec Spec
		want string
	}{
		{"security", Spec{Kind: "security", Seed: 42, Security: &SecuritySpec{Entries: 2, Window: 16, Periods: 1000}}, "montecarlo.loss|n=2|w=16|p=0.0625|periods=1000|seed=42|engine=event"},
		{"attack", Spec{Kind: "attack", Seed: 5, Attack: &AttackSpec{Scheme: "PrIDE", ACTs: 20000, Patterns: 2, Seeds: 1}}, "sim.attack|scheme=PrIDE|params={TREFW:32ms TREFI:3.9µs TRFC:350ns TRC:45ns TFAWLimit:22 BanksPerRank:32 Banks:64 RowsPerBank:8192 RowBits:13 MitigationsPerTREFI:1 BlastRadius:1}|acts=20000|trh=0|policy=0|patterns=2|seeds=1|seed=5|engine=event"},
		{"ttfsim", Spec{Kind: "ttfsim", Seed: 3, Engine: "exact", TTF: &TTFSpec{Scheme: "PrIDE", Banks: 2, TRH: 150, MaxTREFI: 300, Trials: 2}}, "system.mttf|scheme=PrIDE|params={TREFW:32ms TREFI:3.9µs TRFC:350ns TRC:45ns TFAWLimit:22 BanksPerRank:32 Banks:64 RowsPerBank:4096 RowBits:12 MitigationsPerTREFI:1 BlastRadius:1}|banks=2|trh=150|maxtrefi=300|trials=2|seed=3"},
		{"replay", Spec{Kind: "replay", Seed: 9, Replay: &ReplaySpec{Workload: "lbm", Mapping: "col=4 bank=2 row=10 rank=1 chan=1 xor=1", ACTs: 5000, Scheme: "PrIDE", TRH: 300}}, "system.replay|scheme=PrIDE|params={TREFW:32ms TREFI:3.9µs TRFC:350ns TRC:45ns TFAWLimit:22 BanksPerRank:32 Banks:64 RowsPerBank:131072 RowBits:17 MitigationsPerTREFI:1 BlastRadius:1}|mapping=col=4 bank=2 row=10 rank=1 chan=1 xor=1|trh=300|rfm=[]|scramble=0|seed=9|records=5000|crc=e981532a"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s key:\n got  %q\n want %q", c.kind, c.got, c.want)
		}
	}
	for _, s := range specs {
		p, err := s.spec.prepare()
		if err != nil {
			t.Fatalf("%s spec: %v", s.kind, err)
		}
		if p.key != s.want {
			t.Errorf("%s spec key:\n got  %q\n want %q", s.kind, p.key, s.want)
		}
	}
}
