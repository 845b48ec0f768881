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
		"acts":             "150000",
		"corpus":           "",
		"generations":      "20",
		"islands":          "4",
		"maxpairs":         "12",
		"migrate-every":    "5",
		"population":       "6",
		"save":             "",
		"scheme":           `"PrIDE"`,
		"seed":             "1",
	})
	clitest.CheckBadWorkers(t, run)
}
