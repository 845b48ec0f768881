// Package cli carries the campaign plumbing shared by the pride commands:
// the signal-aware run context, the -checkpoint and -progress-every flags,
// the obs.Campaign reporter lifecycle, and the mapping from campaign errors
// to process exit codes.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pride/internal/engine"
	"pride/internal/faultinject"
	"pride/internal/obs"
	"pride/internal/trialrunner"
)

// Exit codes beyond the flag-parse convention (2): ExitInterrupted is the
// shell convention for a SIGINT death (128 + signal 2), ExitError covers
// every other campaign failure (panicked trials, checkpoint I/O).
const (
	ExitError       = 1
	ExitInterrupted = 130
)

// SignalContext returns a context cancelled by SIGINT or SIGTERM. The first
// signal triggers the campaigns' graceful drain (in-flight trials finish and
// land in the checkpoint); a second signal kills the process the usual way.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// CampaignFlags holds the shared durability/observability flag values.
type CampaignFlags struct {
	// Checkpoint is the checkpoint base path ("" disables). Sections of a
	// multi-section run each derive their own file from it (CheckpointAt).
	Checkpoint string
	// ProgressEvery is the progress-line cadence (0 disables).
	ProgressEvery time.Duration
	// Engine selects the simulation engine for stochastic sections. The
	// commands default to engine.Event (geometric skip-ahead); -engine=exact
	// selects the per-ACT reference oracle. Checkpoint keys embed the
	// engine, so a run checkpointed under one engine never resumes under
	// the other.
	Engine engine.Value
	// SelfCheck enables runtime invariant guards in the simulation engines;
	// an event-engine trial whose guard trips re-runs on the exact engine.
	SelfCheck bool
	// CheckpointForce archives a stale checkpoint (key mismatch) aside and
	// starts fresh instead of refusing to run.
	CheckpointForce bool
	// TrialRetries is how many times a panicked/errored trial is retried
	// before being quarantined (0 keeps single-attempt semantics).
	TrialRetries int
	// TrialDeadline, when > 0, fails any trial running longer than it.
	TrialDeadline time.Duration
	// Chaos is the fault-injection schedule spec ("" disables); see
	// faultinject.Parse. ChaosSeed seeds its deterministic streams.
	Chaos     string
	ChaosSeed uint64
}

// Register installs the -checkpoint, -progress-every and -engine flags on fs.
func (c *CampaignFlags) Register(fs *flag.FlagSet) {
	c.Engine.Kind = engine.Event
	fs.Var(&c.Engine, "engine",
		`simulation engine: "event" (geometric skip-ahead) or "exact" (per-ACT reference; bit-compatible with pre-engine checkpoints)`)
	fs.BoolVar(&c.SelfCheck, "selfcheck", false,
		"enable runtime invariant guards; an event-engine trial whose guard trips re-runs on the exact engine")
	c.registerDurability(fs)
}

// RegisterNoEngine installs the campaign flags for commands whose
// computation is inherently exact — trace replay consumes one record per
// demand ACT, so there is no stochastic engine to select and no -engine
// flag to mis-set. -selfcheck keeps its guard-only meaning (there is no
// event engine to fall back from).
func (c *CampaignFlags) RegisterNoEngine(fs *flag.FlagSet) {
	c.Engine.Kind = engine.Exact
	fs.BoolVar(&c.SelfCheck, "selfcheck", false,
		"enable runtime invariant guards in the controllers, banks and trackers")
	c.registerDurability(fs)
}

// registerDurability installs the engine-independent durability and
// observability flags shared by Register and RegisterNoEngine.
func (c *CampaignFlags) registerDurability(fs *flag.FlagSet) {
	fs.StringVar(&c.Checkpoint, "checkpoint", "",
		"checkpoint base path: completed trials are persisted there and an interrupted run resumes from it (\"\" disables)")
	fs.DurationVar(&c.ProgressEvery, "progress-every", 0,
		"emit a structured progress line to stderr at this interval, e.g. 10s (0 disables)")
	fs.BoolVar(&c.CheckpointForce, "checkpoint-force", false,
		"archive a stale checkpoint (key mismatch) to <path>.stale and start fresh instead of failing")
	fs.IntVar(&c.TrialRetries, "trial-retries", 0,
		"retry a panicked/errored trial this many times before quarantining it (0 disables)")
	fs.DurationVar(&c.TrialDeadline, "trial-deadline", 0,
		"fail any trial running longer than this, e.g. 30s (0 disables)")
	fs.StringVar(&c.Chaos, "chaos", "",
		`deterministic fault-injection schedule, e.g. "checkpoint.write:nth=2,kind=shortwrite;trial.panic:nth=1" ("" disables)`)
	fs.Uint64Var(&c.ChaosSeed, "chaos-seed", 1,
		"seed for the -chaos schedule's probabilistic triggers")
}

// RetryPolicy maps the -trial-retries / -trial-deadline flags to the
// trialrunner policy (retries are attempts beyond the first).
func (c CampaignFlags) RetryPolicy() trialrunner.RetryPolicy {
	p := trialrunner.Retries(c.TrialRetries)
	p.Deadline = c.TrialDeadline
	return p
}

// Options assembles one section's campaign options from the flags, with
// camp as Progress sink and Observer and ChaosContext's faults.
func (c CampaignFlags) Options(section string, workers int, camp *obs.Campaign, faults trialrunner.TrialFaults) trialrunner.Options {
	return trialrunner.Options{
		Workers:    workers,
		Checkpoint: c.CheckpointAt(section),
		Progress:   camp,
		Observer:   camp,
		Engine:     c.Engine.Kind,
		SelfCheck:  c.SelfCheck,
		Retry:      c.RetryPolicy(),
		Faults:     faults,
	}
}

// Injector parses the -chaos schedule into a fault injector, or returns nil
// when chaos is disabled. Callers must assign the result to a campaign's
// Faults field only when it is non-nil (a typed-nil interface would defeat
// the campaigns' Faults == nil fast path).
func (c CampaignFlags) Injector() (*faultinject.Injector, error) {
	if c.Chaos == "" {
		return nil, nil
	}
	inj, err := faultinject.Parse(c.ChaosSeed, c.Chaos)
	if err != nil {
		return nil, fmt.Errorf("-chaos: %w", err)
	}
	return inj, nil
}

// ChaosContext wires the -chaos schedule for a command: it parses the
// injector, binds its trial.cancel site to a context derived from ctx, and
// returns the Faults value to thread into campaign options. When chaos is
// disabled the original context and a nil Faults interface come back (never
// a typed-nil injector), with a no-op stop. Callers must defer stop.
func (c CampaignFlags) ChaosContext(ctx context.Context) (context.Context, context.CancelFunc, trialrunner.TrialFaults, error) {
	inj, err := c.Injector()
	if err != nil || inj == nil {
		return ctx, func() {}, nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	inj.BindCancel(cancel)
	return ctx, cancel, inj, nil
}

// sanitizeSuffix keeps checkpoint-file suffixes filesystem-safe.
func sanitizeSuffix(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		default:
			return '-'
		}
	}, s)
}

// CheckpointAt derives the checkpoint for one section of a run: the base
// path plus a sanitized section suffix, so the sections of a multi-section
// command (one per scheme, per buffer size, per threshold point) never share
// a file. Returns a disabled Checkpoint when no base path is set; the Key is
// left empty for the engine to fill with its canonical experiment key.
func (c CampaignFlags) CheckpointAt(section string) trialrunner.Checkpoint {
	if c.Checkpoint == "" {
		return trialrunner.Checkpoint{}
	}
	path := c.Checkpoint
	if section != "" {
		path += "." + sanitizeSuffix(section)
	}
	return trialrunner.Checkpoint{Path: path, ForceFresh: c.CheckpointForce}
}

// StartCampaign creates an obs.Campaign, publishes it on the expvar surface,
// and — when -progress-every is set — starts its periodic reporter on
// stderr. The returned stop function is idempotent-safe to defer: it halts
// the reporter (blocking until no further line can land), emits one final
// summary line when reporting was enabled, and unpublishes the campaign.
func (c CampaignFlags) StartCampaign(ctx context.Context, name string, trials, workers int, stderr io.Writer) (*obs.Campaign, func()) {
	camp := obs.NewCampaign(name, trials, workers)
	camp.Publish()
	stopReporter := camp.StartReporter(ctx, stderr, c.ProgressEvery)
	return camp, func() {
		stopReporter()
		if c.ProgressEvery > 0 {
			fmt.Fprintln(stderr, camp.Line())
		}
		camp.Unpublish()
	}
}

// FailureCode diagnoses a campaign error on stderr and maps it to an exit
// code: ExitInterrupted for a cancelled run (with a resume hint when a
// checkpoint was kept), ExitError for everything else (the full panic stack
// of a faulty trial included).
func FailureCode(err error, checkpointBase string, stderr io.Writer) int {
	var pe *trialrunner.PanicError
	if errors.As(err, &pe) {
		fmt.Fprintf(stderr, "%v\n%s", err, pe.Stack)
		return ExitError
	}
	if errors.Is(err, context.Canceled) {
		if checkpointBase != "" {
			fmt.Fprintf(stderr, "interrupted: completed trials saved; rerun the same command with -checkpoint %s to resume\n", checkpointBase)
		} else {
			fmt.Fprintln(stderr, "interrupted (rerun with -checkpoint PATH to make runs resumable)")
		}
		return ExitInterrupted
	}
	fmt.Fprintln(stderr, err)
	return ExitError
}
