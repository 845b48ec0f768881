// Package clitest pins a campaign command's flag surface from the outside:
// it drives the command's run function with -help and reads the flag names
// and printed defaults back from the usage listing (usage prose is not
// compared), so moving flags between a command and cli.CampaignFlags can
// never silently rename or re-default one.
package clitest

import (
	"context"
	"io"
	"regexp"
	"strings"
	"testing"
)

// Run is a command's main with its dependencies injected.
type Run func(ctx context.Context, args []string, stdout, stderr io.Writer) int

var (
	flagLine    = regexp.MustCompile(`^  -([^ ]+)`)
	defaultText = regexp.MustCompile(`\(default (.*)\)$`)
)

// CheckFlags asserts that the command registers exactly the flags in want,
// each with the default its usage listing prints ("" for a zero default,
// which the flag package leaves unprinted).
func CheckFlags(t testing.TB, run Run, want map[string]string) {
	t.Helper()
	var errOut strings.Builder
	if code := run(context.Background(), []string{"-help"}, io.Discard, &errOut); code != 2 {
		t.Fatalf("-help exited %d, want 2", code)
	}
	got := map[string]string{}
	name := ""
	for _, line := range strings.Split(errOut.String(), "\n") {
		if m := flagLine.FindStringSubmatch(line); m != nil {
			name = m[1]
			got[name] = ""
		} else if m := defaultText.FindStringSubmatch(line); m != nil && name != "" {
			got[name] = m[1]
		}
	}
	for name, def := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("flag -%s missing", name)
		} else if g != def {
			t.Errorf("flag -%s default %q, want %q", name, g, def)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected flag -%s", name)
		}
	}
}

// CheckBadWorkers asserts that a zero or negative -workers exits 2 with
// "workers" on stderr; args are whatever else the command needs to get past
// its own flag checks.
func CheckBadWorkers(t testing.TB, run Run, args ...string) {
	t.Helper()
	for _, w := range []string{"0", "-3"} {
		var errOut strings.Builder
		code := run(context.Background(), append([]string{"-workers", w}, args...), io.Discard, &errOut)
		if code != 2 || !strings.Contains(errOut.String(), "workers") {
			t.Errorf("-workers %s: exit %d, stderr %q; want exit 2 naming workers", w, code, errOut.String())
		}
	}
}
