package main

import (
	"strconv"
	"testing"

	"pride/internal/cli/clitest"
	"pride/internal/trialrunner"
)

// TestFlagSurface pins the command's flag names, their defaults and the
// bad -workers exit code, so moving flags between the command and the shared
// campaign flags can never silently rename or re-default one.
func TestFlagSurface(t *testing.T) {
	clitest.CheckFlags(t, run, map[string]string{
		"chaos":            "",
		"chaos-seed":       "1",
		"checkpoint":       "",
		"checkpoint-force": "",
		"cpuprofile":       "",
		"engine":           "event",
		"memprofile":       "",
		"progress-every":   "",
		"selfcheck":        "",
		"trial-deadline":   "",
		"trial-retries":    "",
		"workers":          strconv.Itoa(trialrunner.DefaultWorkers()),
		"banks":            "4",
		"csv":              "",
		"horizon":          "200000",
		"rfm":              "",
		"scheme":           "",
		"seed":             "1",
		"trhd":             "",
		"trials":           "20",
	})
	clitest.CheckBadWorkers(t, run)
}
