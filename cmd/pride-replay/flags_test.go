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
		"memprofile":       "",
		"progress-every":   "",
		"selfcheck":        "",
		"trial-deadline":   "",
		"trial-retries":    "",
		"workers":          strconv.Itoa(trialrunner.DefaultWorkers()),
		"acts":             "1000000",
		"csv":              "",
		"emit":             "",
		"mapping":          `"col=13 bank=5 row=17 rank=0 chan=0 xor=1"`,
		"rfm":              "",
		"scheme":           `"PrIDE"`,
		"scramble-seed":    "",
		"seed":             "1",
		"trace":            "",
		"trh":              "1000",
		"workload":         "",
		"workload-seed":    "7",
	})
	clitest.CheckBadWorkers(t, run, "-workload", "lbm")
}
