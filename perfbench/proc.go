package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// procResult is one finished CLI process.
type procResult struct {
	wall      time.Duration // exec until exit
	firstByte time.Duration // exec until the first byte on stdout
	maxRSSMB  float64
	stdout    string
	stderr    string
}

// runProc runs one CLI to completion. It fails if the process cannot start,
// exits non-zero or prints nothing on stdout.
func runProc(ctx context.Context, name string, args ...string) (procResult, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return procResult{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return procResult{}, err
	}
	var (
		stdout    bytes.Buffer
		firstByte time.Duration
		buf       [32 << 10]byte
	)
	for {
		n, rerr := pipe.Read(buf[:])
		if n > 0 && stdout.Len() == 0 {
			firstByte = time.Since(start)
		}
		stdout.Write(buf[:n])
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			return procResult{}, rerr
		}
	}
	werr := cmd.Wait()
	res := procResult{
		wall:      time.Since(start),
		firstByte: firstByte,
		stdout:    stdout.String(),
		stderr:    stderr.String(),
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if werr != nil {
		return res, fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), werr, lastLine(res.stderr))
	}
	if stdout.Len() == 0 {
		return res, fmt.Errorf("%s %s: no output", name, strings.Join(args, " "))
	}
	return res, nil
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// opCount is how many operations of nominal length opSeconds fill a
// measured phase of the given length. The count depends only on the
// arguments, never on measured speed, so two commits do the same work.
func opCount(seconds, opSeconds float64) int {
	return int(math.Max(1, math.Round(seconds/opSeconds)))
}

// overBudget reports whether a measured phase that began at start has run
// for twice its nominal length. Phases then stop issuing operations, so a
// slow box cannot stretch a run without bound.
func (e *env) overBudget(start time.Time) bool {
	return time.Since(start).Seconds() > 2*e.seconds
}

// checkRuns marks each run whose output fails check as failed. The runs were
// already counted as attempted, and their timings stay in the metrics.
func (t *tally) checkRuns(runs []procResult, check func(stdout string) error) {
	for i, r := range runs {
		if err := check(r.stdout); err != nil {
			t.failed++
			fail(t.out, "run %d: %v", i, err)
		}
	}
}

// checkCLIRuns marks each run as failed whose stdout differs from the
// committed expected output (when the seed has one) or from the library's
// output for the same input.
func (e *env) checkCLIRuns(t *tally, workload string, runs []procResult, library func(stdout string) error) error {
	golden, ok, err := e.committed(workload)
	if err != nil {
		return err
	}
	e.noteCommitted(workload, ok)
	t.checkRuns(runs, func(stdout string) error {
		if ok {
			if err := compareText(workload+" stdout against the committed expected output", stdout, golden); err != nil {
				return err
			}
		}
		return library(stdout)
	})
	return nil
}

// settle flushes the set-up's file writes to disk before a measured phase,
// so their write-back never runs inside it.
func settle() { syscall.Sync() }

// runCLI runs one CLI opCount times in a closed loop with one client. It
// returns the runs that exited cleanly and the wall time of the phase.
func (e *env) runCLI(ctx context.Context, t *tally, opSeconds float64, name string, args ...string) ([]procResult, float64) {
	settle()
	var runs []procResult
	start := time.Now()
	for i := 0; i < opCount(e.seconds, opSeconds) && (i == 0 || !e.overBudget(start)); i++ {
		r, err := runProc(ctx, e.binary(name), args...)
		t.op(err)
		if err == nil {
			runs = append(runs, r)
		}
	}
	return runs, time.Since(start).Seconds()
}

// tableRows returns the data rows of the first markdown table in out, each
// cell trimmed: the rows after the header and its separator line.
func tableRows(out string) [][]string {
	var rows [][]string
	inTable := false
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if !inTable {
			inTable = true // header
			continue
		}
		if strings.HasPrefix(cells[0], "---") {
			continue
		}
		rows = append(rows, cells)
	}
	return rows
}

// compareRows reports the first difference between the rows a CLI printed and
// the rows expected for its seed.
func compareRows(got, want [][]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d table rows, want %d", len(got), len(want))
	}
	for i := range want {
		if strings.Join(got[i], " | ") != strings.Join(want[i], " | ") {
			return fmt.Errorf("row %d: got %q, want %q", i, strings.Join(got[i], " | "), strings.Join(want[i], " | "))
		}
	}
	return nil
}

func row(cells ...any) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = fmt.Sprint(c)
	}
	return out
}
