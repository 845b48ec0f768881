package main

import (
	"context"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// profEntry attributes CPU samples to one layer entry point. A function
// matches when its name starts with pkg and ends with "."+fn.
type profEntry struct {
	metric string
	pkg    string
	fns    []string
	flat   bool
}

var profEntries = []profEntry{
	{metric: "prof.trace.ReadBatch", pkg: "pride/internal/trace.", fns: []string{"ReadBatch"}},
	{metric: "prof.system.demux", pkg: "pride/internal/system.", fns: []string{"demux"}},
	{metric: "prof.addrmap.Route", pkg: "pride/internal/addrmap.", fns: []string{"Route"}},
	{metric: "prof.memctrl.Activate", pkg: "pride/internal/memctrl.", fns: []string{"Activate"}},
	{metric: "prof.memctrl.ActivateRunGroup", pkg: "pride/internal/memctrl.", fns: []string{"ActivateRunGroup"}},
	{metric: "prof.dram.Activate", pkg: "pride/internal/dram.", fns: []string{"Activate"}},
	{metric: "prof.dram.HammerCycle", pkg: "pride/internal/dram.", fns: []string{"HammerCycle"}},
	{metric: "prof.core.OnActivate", pkg: "pride/internal/core.", fns: []string{"OnActivate"}},
	{metric: "prof.runtime.copy", pkg: "runtime.", fns: []string{"duffcopy", "memmove"}, flat: true},
	{metric: "prof.runtime.gc", pkg: "runtime.", fns: []string{"gcBgMarkWorker", "gcAssistAlloc"}},
}

// profLine is one function of a `go tool pprof -top` listing, its shares
// as fractions of all samples.
type profLine struct {
	name      string
	flat, cum float64
}

// readProfile lists every function of a CPU profile with `go tool pprof`.
func readProfile(ctx context.Context, path string) ([]profLine, error) {
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-cum",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %v", path, err)
	}
	return parseProfileTop(string(out))
}

// parseProfileTop parses the rows of a pprof -top listing:
//
//	flat  flat%   sum%        cum   cum%  name
func parseProfileTop(out string) ([]profLine, error) {
	var lines []profLine
	header := false
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 5 && f[0] == "flat" && f[1] == "flat%" {
			header = true
			continue
		}
		if !header || len(f) < 6 {
			continue
		}
		flat, err1 := parsePct(f[1])
		cum, err2 := parsePct(f[4])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("pprof line %q: unparsable share", line)
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		lines = append(lines, profLine{name: name, flat: flat, cum: cum})
	}
	if !header {
		return nil, fmt.Errorf("pprof output has no -top listing")
	}
	return lines, nil
}

func parsePct(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	return v / 100, err
}

// share attributes the listing to one entry: per function name, the sum of
// its flat shares or the largest of its cumulative shares, added over fns.
func (p profEntry) share(lines []profLine) float64 {
	total := 0.0
	for _, fn := range p.fns {
		best := 0.0
		for _, l := range lines {
			if !strings.HasPrefix(l.name, p.pkg) || !strings.HasSuffix(l.name, "."+fn) {
				continue
			}
			if p.flat {
				total += l.flat
			} else {
				best = max(best, l.cum)
			}
		}
		total += best
	}
	return total
}

// setProfileShares reads the CPU profile at path into the prof.* metrics.
func setProfileShares(ctx context.Context, m *metrics, path string) error {
	lines, err := readProfile(ctx, path)
	if err != nil {
		return err
	}
	for _, p := range profEntries {
		kind := "cumulative"
		if p.flat {
			kind = "flat"
		}
		m.set(p.metric, p.share(lines), fmt.Sprintf("%s CPU share of %s{%s}", kind, p.pkg, strings.Join(p.fns, ",")))
	}
	return nil
}
