package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pride/internal/cli"
	"pride/internal/patterns"
)

// quietSession starts a campaign session on the given worker count with no
// checkpoint, chaos, profiling or progress reporting, closed at cleanup.
func quietSession(t *testing.T, workers int) *cli.Session {
	t.Helper()
	s, err := cli.CampaignFlags{Workers: workers}.Start(context.Background(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// fig15Quiet / fig18Quiet run the figure builders with no campaign features
// enabled.
func fig15Quiet(t *testing.T, nPat, seeds, acts int, seed uint64, workers int) string {
	t.Helper()
	tbl, err := fig15(quietSession(t, workers), nPat, seeds, acts, seed, false)
	if err != nil {
		t.Fatalf("fig15: %v", err)
	}
	return tbl.String()
}

func fig18Quiet(t *testing.T, scale, acts int, seed uint64, workers int) string {
	t.Helper()
	tbl, err := fig18(quietSession(t, workers), scale, acts, seed)
	if err != nil {
		t.Fatalf("fig18: %v", err)
	}
	return tbl.String()
}

func TestFig15TableListsAllSchemes(t *testing.T) {
	out := fig15Quiet(t, 4, 1, 30_000, 1, 2)
	for _, scheme := range []string{"PRoHIT", "DSAC", "PARA-MC", "PARFM",
		"PrIDE", "PrIDE+RFM40", "PrIDE+RFM16"} {
		if !strings.Contains(out, scheme) {
			t.Errorf("scheme %s missing:\n%s", scheme, out)
		}
	}
}

func TestFig15ZooFlagAddsSchemes(t *testing.T) {
	tbl, err := fig15(quietSession(t, 2), 2, 1, 20_000, 1, true)
	if err != nil {
		t.Fatalf("fig15: %v", err)
	}
	out := tbl.String()
	for _, scheme := range []string{"MINT", "MOAT"} {
		if !strings.Contains(out, scheme) {
			t.Errorf("zoo scheme %s missing:\n%s", scheme, out)
		}
	}
	// Without -zoo the line-up stays the paper's own.
	if base := fig15Quiet(t, 2, 1, 20_000, 1, 2); strings.Contains(base, "MINT") || strings.Contains(base, "MOAT") {
		t.Errorf("zoo schemes leaked into the default Fig 15 line-up:\n%s", base)
	}
}

func TestFig18TableCoversThreeSizes(t *testing.T) {
	out := fig18Quiet(t, 300, 60_000, 1, 2)
	for _, n := range []string{"| 4 ", "| 6 ", "| 16 "} {
		if !strings.Contains(out, n) {
			t.Errorf("buffer size row %q missing:\n%s", n, out)
		}
	}
}

func TestFiguresWorkerCountInvariant(t *testing.T) {
	// The rendered tables must be byte-identical for every -workers value.
	want15 := fig15Quiet(t, 3, 2, 20_000, 5, 1)
	want18 := fig18Quiet(t, 300, 40_000, 5, 1)
	for _, workers := range []int{2, 4} {
		if got := fig15Quiet(t, 3, 2, 20_000, 5, workers); got != want15 {
			t.Errorf("fig15 output differs between workers 1 and %d", workers)
		}
		if got := fig18Quiet(t, 300, 40_000, 5, workers); got != want18 {
			t.Errorf("fig18 output differs between workers 1 and %d", workers)
		}
	}
}

func TestRunWorkersFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-fig", "15", "-patterns", "3", "-seeds", "1",
		"-acts", "20000", "-workers", "2"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Fig 15") {
		t.Fatalf("figure missing from output:\n%s", out.String())
	}
}

func TestRunRejectsBadWorkers(t *testing.T) {
	for _, bad := range []string{"0", "-1"} {
		var out, errOut strings.Builder
		if code := run(context.Background(), []string{"-fig", "15", "-workers", bad}, &out, &errOut); code != 2 {
			t.Errorf("-workers %s: exit code %d, want 2", bad, code)
		}
		if !strings.Contains(errOut.String(), "workers") {
			t.Errorf("-workers %s: no diagnostic on stderr: %q", bad, errOut.String())
		}
	}
}

func TestRunRejectsUnknownFigure(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-fig", "99"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown figure: exit code %d, want 2", code)
	}
}

func TestReplayTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "attack.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := patterns.WriteTrace(f, patterns.TRRespass(500, 6, 3)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	tbl, err := replayTrace(path, 20_000, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if !strings.Contains(out, "trrespass(n=6)") || !strings.Contains(out, "PrIDE") {
		t.Fatalf("replay output incomplete:\n%s", out)
	}
}

func TestReplayTraceErrors(t *testing.T) {
	if _, err := replayTrace("/nonexistent/file", 100, 1, false); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(bad, []byte("seq: not-a-row\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := replayTrace(bad, 100, 1, false); err == nil {
		t.Fatal("malformed trace accepted")
	}
}

// cancelOnProgress is a stderr sink that cancels the run's context as soon
// as the first progress line lands — a deterministic stand-in for a SIGINT
// arriving mid-campaign.
type cancelOnProgress struct {
	mu       sync.Mutex
	cancel   context.CancelFunc
	buf      strings.Builder
	canceled bool
}

func (w *cancelOnProgress) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.WriteString(string(p))
	if !w.canceled && strings.Contains(w.buf.String(), "progress campaign=") {
		w.canceled = true
		w.cancel()
	}
	return len(p), nil
}

func TestRunFig15InterruptAndResumeBitIdentical(t *testing.T) {
	args := []string{"-fig", "15", "-patterns", "3", "-seeds", "2", "-acts", "20000", "-workers", "2"}
	var plain strings.Builder
	if code := run(context.Background(), args, &plain, io.Discard); code != 0 {
		t.Fatalf("uninterrupted run failed: %d", code)
	}

	base := filepath.Join(t.TempDir(), "attack.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelOnProgress{cancel: cancel}
	var interrupted strings.Builder
	code := run(ctx, append(args, "-checkpoint", base, "-progress-every", "500us"), &interrupted, w)
	if code != cli.ExitInterrupted && code != 0 {
		t.Fatalf("interrupted run exited %d, want %d or completion", code, cli.ExitInterrupted)
	}
	if code == cli.ExitInterrupted {
		w.mu.Lock()
		hint := strings.Contains(w.buf.String(), "resume")
		w.mu.Unlock()
		if !hint {
			t.Fatal("no resume hint on stderr after interrupt")
		}
	}

	var resumed strings.Builder
	if code := run(context.Background(), append(args, "-checkpoint", base), &resumed, io.Discard); code != 0 {
		t.Fatalf("resumed run failed: %d", code)
	}
	if resumed.String() != plain.String() {
		t.Fatal("resumed stdout is not byte-identical to the uninterrupted run")
	}
}
