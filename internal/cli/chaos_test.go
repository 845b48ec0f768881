package cli

import (
	"context"
	"flag"
	"io"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"pride/internal/faultinject"
	"pride/internal/trialrunner"
)

func TestRetryPolicyMapping(t *testing.T) {
	retryPolicy := func(c CampaignFlags) trialrunner.RetryPolicy {
		c.Workers = 1
		opts, done := startSession(t, c, io.Discard).Section("retry", 1)
		done()
		return opts.Retry
	}
	if p := retryPolicy(CampaignFlags{}); p != (trialrunner.RetryPolicy{}) {
		t.Fatalf("zero flags produced policy %+v", p)
	}
	p := retryPolicy(CampaignFlags{TrialRetries: 2, TrialDeadline: 30 * time.Second})
	if p.Attempts != 3 {
		t.Fatalf("2 retries mapped to %d attempts, want 3 (1 initial + 2 retries)", p.Attempts)
	}
	if p.Deadline != 30*time.Second {
		t.Fatalf("deadline = %v", p.Deadline)
	}
}

func TestInjectorParsesChaosSpec(t *testing.T) {
	injector := func(c CampaignFlags) (trialrunner.TrialFaults, error) {
		_, stop, faults, err := c.chaosContext(context.Background())
		t.Cleanup(stop)
		return faults, err
	}
	faults, err := injector(CampaignFlags{})
	if err != nil || faults != nil {
		t.Fatalf("disabled chaos returned (%v, %v)", faults, err)
	}

	c := CampaignFlags{Chaos: "checkpoint.write:nth=2,kind=shortwrite;trial.panic:nth=1,kind=panic", ChaosSeed: 7}
	faults, err = injector(c)
	if err != nil {
		t.Fatal(err)
	}
	inj, ok := faults.(*faultinject.Injector)
	if !ok || inj == nil {
		t.Fatalf("armed chaos returned %T, want a *faultinject.Injector", faults)
	}
	// The spec round-trips through the injector, so -chaos values are
	// reproducible from logs.
	s := inj.String()
	for _, want := range []string{"checkpoint.write", "trial.panic", "nth=2", "kind=shortwrite"} {
		if !strings.Contains(s, want) {
			t.Fatalf("injector spec %q lost %q", s, want)
		}
	}

	if _, err := injector(CampaignFlags{Chaos: "trial.panic:nth=bogus"}); err == nil {
		t.Fatal("malformed -chaos spec parsed without error")
	} else if !strings.Contains(err.Error(), "-chaos") {
		t.Fatalf("parse error does not name the flag: %v", err)
	}
}

func TestChaosContextDisabledReturnsUntypedNil(t *testing.T) {
	ctx := context.Background()
	got, stop, faults, err := CampaignFlags{}.chaosContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if got != ctx {
		t.Fatal("disabled chaos replaced the context")
	}
	// Faults must be an UNTYPED nil: campaigns fast-path on Faults == nil,
	// and a typed-nil *Injector inside the interface would defeat it.
	if faults != nil {
		t.Fatalf("disabled chaos returned non-nil Faults %T", faults)
	}
}

func TestChaosContextBindsCancelSite(t *testing.T) {
	c := CampaignFlags{Chaos: "trial.cancel:nth=1", ChaosSeed: 1}
	ctx, stop, faults, err := c.chaosContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if faults == nil {
		t.Fatal("armed chaos returned nil Faults")
	}
	inj, ok := faults.(*faultinject.Injector)
	if !ok {
		t.Fatalf("Faults is %T, want *faultinject.Injector", faults)
	}
	// Firing the cancel site must cancel the derived context — the injected
	// stand-in for a mid-campaign SIGINT.
	inj.TrialFault(0, 0)
	select {
	case <-ctx.Done():
	case <-time.After(time.Second):
		t.Fatal("trial.cancel fired but the chaos context never cancelled")
	}

	if _, _, _, err := (CampaignFlags{Chaos: "::"}).chaosContext(context.Background()); err == nil {
		t.Fatal("malformed spec did not surface through chaosContext")
	}
}

func TestCheckpointAtCarriesForceFresh(t *testing.T) {
	c := CampaignFlags{Checkpoint: "/tmp/run.ckpt", CheckpointForce: true}
	if cp := c.checkpointAt("fig8"); !cp.ForceFresh {
		t.Fatal("-checkpoint-force not threaded into the section checkpoint")
	}
	if cp := (CampaignFlags{CheckpointForce: true}).checkpointAt("fig8"); cp.ForceFresh {
		t.Fatal("disabled checkpoint carries ForceFresh")
	}
}

func TestRegisterInstallsResilienceFlags(t *testing.T) {
	var c CampaignFlags
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	c.Register(fs)
	err := fs.Parse([]string{
		"-selfcheck",
		"-checkpoint-force",
		"-trial-retries", "2",
		"-trial-deadline", "45s",
		"-chaos", "trial.err:prob=0.1",
		"-chaos-seed", "9",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.SelfCheck || !c.CheckpointForce || c.TrialRetries != 2 ||
		c.TrialDeadline != 45*time.Second || c.Chaos != "trial.err:prob=0.1" || c.ChaosSeed != 9 {
		t.Fatalf("parsed %+v", c)
	}
}

// TestSignalContextCancelsOnSIGTERM pins the satellite contract: SIGTERM
// (the signal a container runtime or batch scheduler sends) drains a
// campaign exactly like SIGINT instead of killing the process mid-write.
func TestSignalContextCancelsOnSIGTERM(t *testing.T) {
	ctx, cancel := signalContext()
	defer cancel()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM did not cancel the signal context")
	}
}
