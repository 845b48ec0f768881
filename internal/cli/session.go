package cli

import (
	"context"
	"fmt"
	"io"

	"pride/internal/obs"
	"pride/internal/trialrunner"
)

// Session is one command run's campaign environment, started once the
// command's flags are validated: the run context (bound to the -chaos
// schedule's trial.cancel site), the profiler, and every section's campaign
// reporter and options.
type Session struct {
	flags       CampaignFlags
	ctx         context.Context
	faults      trialrunner.TrialFaults
	stderr      io.Writer
	stopChaos   context.CancelFunc
	stopProfile func() error
}

// Start validates -workers and -chaos, binds the chaos schedule to ctx and
// starts profiling. An error is a usage error (exit 2). Close the session on
// the way out.
func (c CampaignFlags) Start(ctx context.Context, stderr io.Writer) (*Session, error) {
	if err := trialrunner.ValidateWorkers(c.Workers); err != nil {
		return nil, err
	}
	ctx, stopChaos, faults, err := c.chaosContext(ctx)
	if err != nil {
		return nil, err
	}
	stopProfile, err := c.startProfile()
	if err != nil {
		stopChaos()
		return nil, err
	}
	return &Session{flags: c, ctx: ctx, faults: faults, stderr: stderr,
		stopChaos: stopChaos, stopProfile: stopProfile}, nil
}

// Close finishes the profiles (a write error is reported on stderr) and
// releases the chaos context.
func (s *Session) Close() {
	if err := s.stopProfile(); err != nil {
		fmt.Fprintln(s.stderr, err)
	}
	s.stopChaos()
}

// Context is the run context: cancelled by SIGINT/SIGTERM (under Main) or
// by the chaos schedule's trial.cancel site.
func (s *Session) Context() context.Context { return s.ctx }

// Section opens one campaign of the run, named uniquely within the command
// (one per scheme, buffer size or threshold point). It publishes an
// obs.Campaign on expvar, starts its stderr progress reporter when
// -progress-every is set, and returns the options to run the campaign with:
// the section's own checkpoint file, the campaign as progress sink and
// observer, and the flags' engine, self-check, retry and fault settings.
// done stops the reporter, prints a final summary line when reporting is on,
// unpublishes the campaign and returns its last snapshot.
func (s *Session) Section(name string, trials int) (opts trialrunner.Options, done func() obs.Snapshot) {
	c := s.flags
	camp := obs.NewCampaign(name, trials, c.Workers)
	camp.Publish()
	stopReporter := camp.StartReporter(s.ctx, s.stderr, c.ProgressEvery)
	retry := trialrunner.Retries(c.TrialRetries)
	retry.Deadline = c.TrialDeadline
	opts = trialrunner.Options{
		Workers:    c.Workers,
		Checkpoint: c.checkpointAt(name),
		Progress:   camp,
		Observer:   camp,
		Engine:     c.Engine.Kind,
		SelfCheck:  c.SelfCheck,
		Retry:      retry,
		Faults:     s.faults,
	}
	return opts, func() obs.Snapshot {
		snap := camp.Snapshot()
		stopReporter()
		if c.ProgressEvery > 0 {
			fmt.Fprintln(s.stderr, camp.Line())
		}
		camp.Unpublish()
		return snap
	}
}

// FailureCode diagnoses a campaign error on stderr and maps it to the
// command's exit code (see failureCode).
func (s *Session) FailureCode(err error) int {
	return failureCode(err, s.flags.Checkpoint, s.stderr)
}
