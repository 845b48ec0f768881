package server

import (
	"bufio"
	"context"
	"fmt"
	"os"

	"pride/internal/addrmap"
	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/montecarlo"
	"pride/internal/patterns"
	"pride/internal/sim"
	"pride/internal/system"
	"pride/internal/trace"
	"pride/internal/trialrunner"
	"pride/internal/workload"
)

// Spec is the wire form of one campaign submission: which experiment to run
// and its configuration. Exactly one of the kind-specific sub-specs must be
// set, matching Kind. Fields that cannot change a result (Workers,
// TrialRetries, TrialDeadline) are execution hints and are excluded from the
// job's cache key.
type Spec struct {
	// Kind selects the campaign: "security", "attack", "ttfsim" or
	// "replay" — the same four experiments the CLIs run.
	Kind string `json:"kind"`
	// Seed is the campaign base seed; every trial derives its own stream
	// from it.
	Seed uint64 `json:"seed"`
	// Engine selects the simulation engine for the stochastic kinds:
	// "event" (default) or "exact". Replay is inherently exact and
	// rejects the field.
	Engine string `json:"engine,omitempty"`
	// SelfCheck enables runtime invariant guards. Not part of the cache
	// key (guards never change results, only confidence).
	SelfCheck bool `json:"selfcheck,omitempty"`
	// Workers overrides the per-campaign worker-pool size (0 selects the
	// server default). Never part of the cache key.
	Workers int `json:"workers,omitempty"`
	// TrialRetries retries a panicked/errored trial this many times before
	// quarantining it. Never part of the cache key.
	TrialRetries int `json:"trial_retries,omitempty"`

	Security *SecuritySpec `json:"security,omitempty"`
	Attack   *AttackSpec   `json:"attack,omitempty"`
	TTF      *TTFSpec      `json:"ttfsim,omitempty"`
	Replay   *ReplaySpec   `json:"replay,omitempty"`
}

// SecuritySpec runs a montecarlo insertion-loss campaign (the paper's Fig 8
// methodology: a size-1 FIFO sampled at p = 1/W unless overridden).
type SecuritySpec struct {
	// Entries is the tracker size N (default 1).
	Entries int `json:"entries,omitempty"`
	// Window is W, activations per mitigation window (default the DDR5
	// ACTs-per-tREFI).
	Window int `json:"window,omitempty"`
	// InsertionProb is the sampling probability (default 1/Window).
	InsertionProb float64 `json:"insertion_prob,omitempty"`
	// Periods is the number of tREFI windows to simulate.
	Periods int `json:"periods"`
}

// AttackSpec runs a worst-pattern disturbance campaign over a generated
// Fig 15 pattern suite.
type AttackSpec struct {
	// Scheme names the mitigation under attack (sim.SchemeByName).
	Scheme string `json:"scheme"`
	// ACTs is the trial length in demand activations.
	ACTs int `json:"acts"`
	// TRH, when positive, enables bit-flip detection at that threshold.
	TRH int `json:"trh,omitempty"`
	// Patterns is the suite size (default 16).
	Patterns int `json:"patterns,omitempty"`
	// Seeds is the number of seeds per pattern (default 4).
	Seeds int `json:"seeds,omitempty"`
}

// TTFSpec runs a multi-bank mean-time-to-failure campaign.
type TTFSpec struct {
	// Scheme names the mitigation (sim.SchemeByName).
	Scheme string `json:"scheme"`
	// Banks is the number of concurrently attacked banks.
	Banks int `json:"banks"`
	// TRH is the device Rowhammer threshold under test.
	TRH int `json:"trh"`
	// MaxTREFI bounds the simulation horizon in refresh intervals.
	MaxTREFI int `json:"max_trefi"`
	// Trials is the campaign trial count.
	Trials int `json:"trials"`
}

// ReplaySpec runs a server-scale sharded trace replay, fed either by a
// workload generator (deterministic in the spec) or a binary trace file on
// the server's filesystem.
type ReplaySpec struct {
	// Workload names a generator spec (workload.All); mutually exclusive
	// with TracePath.
	Workload string `json:"workload,omitempty"`
	// Mapping is the address-mapping string for generated workloads, e.g.
	// "ch1:ra1:ba3:ro12:co6" (addrmap.ParseMapping).
	Mapping string `json:"mapping,omitempty"`
	// ACTs is the generated record count (generator mode only).
	ACTs int `json:"acts,omitempty"`
	// TracePath is a binary ACT trace on the server host; mutually
	// exclusive with Workload.
	TracePath string `json:"trace_path,omitempty"`
	// Scheme names the mitigation every bank runs.
	Scheme string `json:"scheme"`
	// TRH is the device Rowhammer threshold under test.
	TRH int `json:"trh"`
}

// prepared is a validated, runnable form of a Spec: its canonical cache key
// (the exact checkpoint key the equivalent CLI run would use) and a run
// function producing the JSON-encodable result. run takes the server's
// execution options, none of which reaches a result, and sets the engine
// itself because the key embeds it.
type prepared struct {
	key string
	run func(ctx context.Context, opts trialrunner.Options) (any, error)
}

// prepare validates the spec into the existing config structs and returns
// its runnable form. All validation errors are client errors (the spec is
// wrong), never server state.
func (s Spec) prepare() (prepared, error) {
	set := 0
	for _, sub := range []bool{s.Security != nil, s.Attack != nil, s.TTF != nil, s.Replay != nil} {
		if sub {
			set++
		}
	}
	if set != 1 {
		return prepared{}, fmt.Errorf("exactly one of security/attack/ttfsim/replay must be set, got %d", set)
	}
	// The engine field takes the CLI spellings; its absence means the CLIs'
	// default, the event engine.
	eng := engine.Event
	if s.Engine != "" {
		var err error
		if eng, err = engine.Parse(s.Engine); err != nil {
			return prepared{}, err
		}
	}
	switch s.Kind {
	case "security":
		if s.Security == nil {
			return prepared{}, fmt.Errorf("kind %q requires the %q sub-spec", s.Kind, s.Kind)
		}
		return s.prepareSecurity(eng)
	case "attack":
		if s.Attack == nil {
			return prepared{}, fmt.Errorf("kind %q requires the %q sub-spec", s.Kind, s.Kind)
		}
		return s.prepareAttack(eng)
	case "ttfsim":
		if s.TTF == nil {
			return prepared{}, fmt.Errorf("kind %q requires the %q sub-spec", s.Kind, s.Kind)
		}
		return s.prepareTTF(eng)
	case "replay":
		if s.Replay == nil {
			return prepared{}, fmt.Errorf("kind %q requires the %q sub-spec", s.Kind, s.Kind)
		}
		return s.prepareReplay()
	default:
		return prepared{}, fmt.Errorf("unknown kind %q (want security, attack, ttfsim or replay)", s.Kind)
	}
}

// SecurityResult is the stored result of a security job.
type SecurityResult struct {
	WorstLoss float64               `json:"worst_loss"`
	Detail    montecarlo.LossResult `json:"detail"`
}

func (s Spec) prepareSecurity(eng engine.Kind) (prepared, error) {
	sub := *s.Security
	cfg := montecarlo.LossConfig{
		Entries:       sub.Entries,
		Window:        sub.Window,
		InsertionProb: sub.InsertionProb,
		Periods:       sub.Periods,
		SelfCheck:     s.SelfCheck,
	}.WithFig8Defaults()
	if err := cfg.Validate(); err != nil {
		return prepared{}, err
	}
	seed := s.Seed
	return prepared{
		key: montecarlo.LossCampaignKey(cfg, seed, eng),
		run: func(ctx context.Context, opts trialrunner.Options) (any, error) {
			opts.Engine = eng
			res, err := montecarlo.SimulateLossCampaign(ctx, cfg, seed, opts)
			if err != nil {
				return nil, err
			}
			return SecurityResult{WorstLoss: res.WorstLoss(), Detail: res}, nil
		},
	}, nil
}

func (s Spec) prepareAttack(eng engine.Kind) (prepared, error) {
	sub := *s.Attack
	scheme, err := sim.SchemeByName(sub.Scheme)
	if err != nil {
		return prepared{}, err
	}
	if sub.Patterns == 0 {
		sub.Patterns = 16
	}
	if sub.Seeds == 0 {
		sub.Seeds = 4
	}
	if sub.Patterns < 1 || sub.Seeds < 1 {
		return prepared{}, fmt.Errorf("attack: patterns and seeds must be >= 1, got %d and %d", sub.Patterns, sub.Seeds)
	}
	cfg := sim.AttackConfig{Params: sim.AttackParams(), ACTs: sub.ACTs, TRH: sub.TRH, SelfCheck: s.SelfCheck}
	if err := cfg.Validate(); err != nil {
		return prepared{}, err
	}
	seed := s.Seed
	nPat := sub.Patterns
	seeds := sub.Seeds
	return prepared{
		key: sim.AttackCampaignKey(cfg, scheme, nPat, seeds, seed, eng),
		run: func(ctx context.Context, opts trialrunner.Options) (any, error) {
			suite := patterns.Fig15Suite(cfg.Params.RowsPerBank, nPat, seed)
			opts.Engine = eng
			res, err := sim.MaxDisturbanceOverSuiteCampaign(ctx, cfg, scheme, suite, seeds, seed, opts)
			if err != nil {
				return nil, err
			}
			return res, nil
		},
	}, nil
}

// TTFResult is the stored result of a ttfsim job.
type TTFResult struct {
	MeanSeconds float64 `json:"mean_seconds"`
	Failed      int     `json:"failed"`
	Trials      int     `json:"trials"`
}

func (s Spec) prepareTTF(eng engine.Kind) (prepared, error) {
	sub := *s.TTF
	scheme, err := sim.SchemeByName(sub.Scheme)
	if err != nil {
		return prepared{}, err
	}
	if sub.Trials < 1 {
		return prepared{}, fmt.Errorf("ttfsim: trials must be >= 1, got %d", sub.Trials)
	}
	cfg := system.Config{
		Params:    system.TTFParams(),
		Banks:     sub.Banks,
		TRH:       sub.TRH,
		MaxTREFI:  sub.MaxTREFI,
		SelfCheck: s.SelfCheck,
	}
	if err := cfg.Validate(); err != nil {
		return prepared{}, err
	}
	seed := s.Seed
	trials := sub.Trials
	return prepared{
		key: system.MTTFCampaignKey(cfg, scheme, trials, seed, eng),
		run: func(ctx context.Context, opts trialrunner.Options) (any, error) {
			opts.Engine = eng
			mean, failed, err := system.MeasureMTTFCampaign(ctx, cfg, scheme, trials, seed, opts)
			if err != nil {
				return nil, err
			}
			return TTFResult{MeanSeconds: mean, Failed: failed, Trials: trials}, nil
		},
	}, nil
}

// ReplayResult is the stored result of a replay job: the deterministic
// per-channel aggregate plus the stream fingerprint — exactly what
// pride-replay prints.
type ReplayResult struct {
	Records    uint64                  `json:"records"`
	CRC32      string                  `json:"crc32"`
	TotalFlips int                     `json:"total_flips"`
	PerChannel []system.ChannelSummary `json:"per_channel"`
}

func (s Spec) prepareReplay() (prepared, error) {
	sub := *s.Replay
	if s.Engine != "" {
		return prepared{}, fmt.Errorf("replay: the engine field is rejected (replay is inherently exact)")
	}
	if (sub.Workload == "") == (sub.TracePath == "") {
		return prepared{}, fmt.Errorf("replay: exactly one of workload and trace_path must be set")
	}
	scheme, err := sim.SchemeByName(sub.Scheme)
	if err != nil {
		return prepared{}, err
	}

	// makeSource opens a fresh record stream; replay consumes its source,
	// so the key pre-pass and every run attempt each need their own.
	var makeSource func() (trace.Source, func(), error)
	if sub.TracePath != "" {
		path := sub.TracePath
		makeSource = func() (trace.Source, func(), error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, nil, err
			}
			tr, err := trace.NewReader(bufio.NewReaderSize(f, 1<<16))
			if err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("%s: %v", path, err)
			}
			return tr, func() { f.Close() }, nil
		}
	} else {
		wspec, ok := workload.ByName(sub.Workload)
		if !ok {
			return prepared{}, fmt.Errorf("replay: unknown workload %q", sub.Workload)
		}
		if sub.ACTs < 1 {
			return prepared{}, fmt.Errorf("replay: acts must be >= 1 for a generated workload, got %d", sub.ACTs)
		}
		m, err := addrmap.ParseMapping(sub.Mapping)
		if err != nil {
			return prepared{}, fmt.Errorf("replay: mapping: %v", err)
		}
		acts, wseed := sub.ACTs, s.Seed
		makeSource = func() (trace.Source, func(), error) {
			return workload.NewAddrSource(wspec, m, acts, wseed), func() {}, nil
		}
	}

	// The topology mapping comes from the source itself (the trace header
	// is the single source of geometric truth), so probe one source for it
	// and for the cache-key fingerprint in the same pass.
	src, closeSrc, err := makeSource()
	if err != nil {
		return prepared{}, err
	}
	tcfg := system.TopologyConfig{
		Params:    dram.DDR5(),
		Mapping:   src.Mapping(),
		Scheme:    scheme,
		TRH:       sub.TRH,
		Seed:      s.Seed,
		SelfCheck: s.SelfCheck,
	}
	if err := tcfg.Validate(); err != nil {
		closeSrc()
		return prepared{}, err
	}
	records, crc, err := system.Fingerprint(src)
	closeSrc()
	if err != nil {
		return prepared{}, err
	}

	key := system.ReplayCampaignKey(tcfg, records, crc)
	return prepared{
		key: key,
		run: func(ctx context.Context, opts trialrunner.Options) (any, error) {
			// The job is filed under the intake fingerprint's key. Naming
			// the checkpoint by it up front lets a drain that lands in the
			// demux still leave the checkpoint the job resumes from.
			opts.Checkpoint.Key = key
			topo, err := system.NewTopology(tcfg)
			if err != nil {
				return nil, err
			}
			src, closeSrc, err := makeSource()
			if err != nil {
				return nil, err
			}
			defer closeSrc()
			res, err := topo.ReplayCampaign(ctx, faultedSource(src, opts.Faults), opts)
			if err != nil {
				return nil, err
			}
			return ReplayResult{
				Records:    res.Records,
				CRC32:      fmt.Sprintf("%08x", res.CRC32),
				TotalFlips: res.TotalFlips(),
				PerChannel: res.PerChannel(),
			}, nil
		},
	}, nil
}

// faultSource wraps a replay source with the trace.read fault site: a chaos
// schedule can fail a read mid-demux and watch the job-level retry absorb
// it.
type faultSource struct {
	trace.Source
	in traceFaults
}

// traceFaults is the trace.read fault-site capability of a campaign's Faults
// (faultinject.Injector implements it).
type traceFaults interface{ TraceReadFault() error }

func (f faultSource) ReadBatch(dst []uint64) (int, error) {
	if err := f.in.TraceReadFault(); err != nil {
		return 0, err
	}
	return f.Source.ReadBatch(dst)
}

// faultedSource wraps src when faults carries the trace.read site; with no
// faults armed it returns src untouched.
func faultedSource(src trace.Source, faults trialrunner.TrialFaults) trace.Source {
	in, ok := faults.(traceFaults)
	if !ok {
		return src
	}
	return faultSource{Source: src, in: in}
}
