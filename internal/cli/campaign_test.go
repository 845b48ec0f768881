package cli

import (
	"context"
	"errors"
	"flag"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pride/internal/engine"
	"pride/internal/trialrunner"
)

func TestCheckpointAtDerivesPerSectionPaths(t *testing.T) {
	c := CampaignFlags{Checkpoint: "/tmp/run.ckpt"}
	if got := c.checkpointAt("fig15-PrIDE+RFM 40").Path; got != "/tmp/run.ckpt.fig15-PrIDE-RFM-40" {
		t.Fatalf("sanitized section path = %q", got)
	}
	if got := c.checkpointAt("").Path; got != "/tmp/run.ckpt" {
		t.Fatalf("empty section path = %q", got)
	}
	if cp := (CampaignFlags{}).checkpointAt("fig8"); cp.Path != "" {
		t.Fatalf("disabled flags produced checkpoint %q", cp.Path)
	}
}

func TestRegisterInstallsFlags(t *testing.T) {
	var c CampaignFlags
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	c.Register(fs)
	if c.Engine.Kind != engine.Event {
		t.Fatalf("default engine %v, want event", c.Engine.Kind)
	}
	if err := fs.Parse([]string{"-checkpoint", "base", "-progress-every", "250ms", "-engine", "exact"}); err != nil {
		t.Fatal(err)
	}
	if c.Checkpoint != "base" || c.ProgressEvery != 250*time.Millisecond {
		t.Fatalf("parsed %+v", c)
	}
	if c.Engine.Kind != engine.Exact {
		t.Fatalf("-engine exact parsed to %v", c.Engine.Kind)
	}

	fs = flag.NewFlagSet("x", flag.ContinueOnError)
	fs.SetOutput(&strings.Builder{})
	c = CampaignFlags{}
	c.Register(fs)
	if err := fs.Parse([]string{"-engine", "warp"}); err == nil {
		t.Fatal("-engine warp parsed without error")
	}
}

func TestFailureCodeMapping(t *testing.T) {
	var errOut strings.Builder
	pe := &trialrunner.PanicError{Trial: 3, Value: "boom", Stack: []byte("goroutine 1\n")}
	if code := failureCode(pe, "", &errOut); code != ExitError {
		t.Fatalf("panic exit code %d", code)
	}
	if !strings.Contains(errOut.String(), "goroutine 1") {
		t.Fatalf("panic stack not shown: %q", errOut.String())
	}

	errOut.Reset()
	if code := failureCode(context.Canceled, "base", &errOut); code != ExitInterrupted {
		t.Fatalf("cancel exit code %d", code)
	}
	if !strings.Contains(errOut.String(), "-checkpoint base") {
		t.Fatalf("no resume hint: %q", errOut.String())
	}

	errOut.Reset()
	if code := failureCode(errors.New("disk full"), "", &errOut); code != ExitError {
		t.Fatalf("plain error exit code %d", code)
	}
}

// startSession starts a session from c for a test and closes it at cleanup.
func startSession(t *testing.T, c CampaignFlags, stderr io.Writer) *Session {
	t.Helper()
	s, err := c.Start(context.Background(), stderr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestStartCampaignReportsAndStops(t *testing.T) {
	var errOut strings.Builder
	s := startSession(t, CampaignFlags{Workers: 2, ProgressEvery: time.Millisecond}, &errOut)
	opts, done := s.Section("unit", 4)
	opts.Observer.TrialStart(0)
	opts.Observer.TrialEnd(0, time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	if snap := done(); snap.TrialsDone != 1 {
		t.Fatalf("final snapshot %+v, want 1 trial done", snap)
	}
	if !strings.Contains(errOut.String(), "progress campaign=unit") {
		t.Fatalf("no progress line emitted: %q", errOut.String())
	}
}

func TestSessionStartRejectsUsageErrors(t *testing.T) {
	bad := map[string]CampaignFlags{
		"workers":     {Workers: 0},
		"-chaos":      {Workers: 1, Chaos: "::"},
		"CPU profile": {Workers: 1, CPUProfile: filepath.Join(t.TempDir(), "no", "dir", "cpu.pprof")},
	}
	for want, c := range bad {
		if _, err := c.Start(context.Background(), io.Discard); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Start(%+v) = %v, want an error naming %q", c, err, want)
		}
	}
}
