// Command pride-replay drives a server-scale topology — N channels × ranks ×
// banks, each bank owning its own controller, tracker and derived RNG stream
// — from an ACT-granularity trace. Records are demuxed by (channel, rank,
// bank) into per-shard queues and replayed by a worker pool; the result is
// bit-identical at any -workers count, across checkpoint resume, and between
// a generator-driven run and a replay of the trace it emitted.
//
// The trace comes from a file (-trace; the compact binary format or the
// human-readable text form, sniffed automatically) or from a synthetic
// workload generator (-workload, one of the SPEC2017-calibrated specs).
// -emit writes the stream as a binary trace and replays the emitted file, so
// it doubles as a text-to-binary converter and a generator snapshot tool.
//
// Usage:
//
//	pride-replay -trace server.trace
//	pride-replay -workload lbm -acts 2000000 -mapping "col=6 bank=2 row=12 rank=1 chan=1 xor=1"
//	pride-replay -workload lbm -acts 100000 -emit snapshot.trace
//	pride-replay -trace server.trace -scheme MINT -rfm 16,32 -scramble-seed 99
//	pride-replay -trace server.trace -checkpoint replay.ckpt -progress-every 10s
//
// Replay is inherently exact (one trace record per demand ACT), so there is
// no -engine flag. Throughput metrics (records/s, ACTs/s, MB/s) land on
// stderr; the per-channel result table on stdout is deterministic.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"pride/internal/addrmap"
	"pride/internal/cli"
	"pride/internal/dram"
	"pride/internal/report"
	"pride/internal/sim"
	"pride/internal/system"
	"pride/internal/trace"
	"pride/internal/trialrunner"
	"pride/internal/workload"
)

func main() {
	ctx, cancel := cli.SignalContext()
	defer cancel()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, so the CLI surface (flag
// parsing, error paths, exit codes) is testable. ctx cancellation (SIGINT in
// production) drains the shard pool gracefully: in-flight shards finish, land
// in the checkpoint when one is configured, and the process exits 130 with a
// resume hint.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pride-replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tracePath = fs.String("trace", "", "trace file to replay (binary or text form, sniffed automatically)")
		wlName    = fs.String("workload", "", "synthetic workload generator to replay instead of a trace file (a SPEC2017 spec name, e.g. \"lbm\")")
		acts      = fs.Int("acts", 1_000_000, "record count generated in -workload mode")
		wlSeed    = fs.Uint64("workload-seed", 7, "generator seed in -workload mode")
		mapStr    = fs.String("mapping", addrmap.DefaultDDR5().String(),
			"address mapping in -workload mode (a trace file carries its own)")
		emitPath = fs.String("emit", "", "write the stream as a binary trace here, then replay the emitted file")
		schemeN  = fs.String("scheme", "PrIDE", "mitigation scheme every bank runs (see internal/sim.SearchSchemes)")
		trh      = fs.Int("trh", 1000, "device double-sided Rowhammer threshold")
		rfm      = fs.String("rfm", "", "per-channel RFM budgets, comma-separated: one value for all channels or one per channel (\"\" = scheme default)")
		scramble = fs.Uint64("scramble-seed", 0, "per-bank row-scrambler seed; 0 disables (trace rows are then internal rows)")
		seed     = fs.Uint64("seed", 1, "base seed for the per-shard tracker streams")
		csv      = fs.Bool("csv", false, "emit the per-channel table as CSV")
		workers  = fs.Int("workers", trialrunner.DefaultWorkers(),
			"worker goroutines for the shard pool (>= 1; 1 = serial; results are worker-count invariant)")
		cf cli.CampaignFlags
		pf cli.ProfileFlags
	)
	cf.RegisterNoEngine(fs)
	pf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case *tracePath == "" && *wlName == "":
		fmt.Fprintln(stderr, "one of -trace or -workload is required")
		return 2
	case *tracePath != "" && *wlName != "":
		fmt.Fprintln(stderr, "-trace and -workload are mutually exclusive")
		return 2
	case *tracePath != "" && set["mapping"]:
		fmt.Fprintln(stderr, "-mapping applies only to -workload mode: a trace file carries its own mapping")
		return 2
	case *tracePath != "" && (set["acts"] || set["workload-seed"]):
		fmt.Fprintln(stderr, "-acts and -workload-seed apply only to -workload mode")
		return 2
	}
	if err := trialrunner.ValidateWorkers(*workers); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	scheme, err := sim.SchemeByName(*schemeN)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	budgets, err := parseBudgets(*rfm)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	// Build the record source: a streamed file or a workload generator.
	var src trace.Source
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer f.Close()
		src, err = openTrace(f)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", *tracePath, err)
			return 2
		}
	} else {
		spec, ok := workload.ByName(*wlName)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q (have %s)\n", *wlName, specNames())
			return 2
		}
		if *acts < 1 {
			fmt.Fprintln(stderr, "-acts must be >= 1")
			return 2
		}
		m, err := addrmap.ParseMapping(*mapStr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		src = workload.NewAddrSource(spec, m, *acts, *wlSeed)
	}

	// -emit snapshots the stream to a binary trace and replays the emitted
	// file, so what lands on disk is exactly what the replay consumed.
	if *emitPath != "" {
		if err := emitTrace(src, *emitPath); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		f, err := os.Open(*emitPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer f.Close()
		src, err = trace.NewReader(bufio.NewReader(f))
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", *emitPath, err)
			return 2
		}
	}

	topo, err := system.NewTopology(system.TopologyConfig{
		Params:       dram.DDR5(),
		Mapping:      src.Mapping(),
		Scheme:       scheme,
		TRH:          *trh,
		Seed:         *seed,
		RFMBudgets:   budgets,
		ScrambleSeed: *scramble,
		SelfCheck:    cf.SelfCheck,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	ctx, stopChaos, faults, err := cf.ChaosContext(ctx)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer stopChaos()
	stopProf, err := pf.Start()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, err)
		}
	}()

	camp, stop := cf.StartCampaign(ctx, "replay", topo.Shards(), *workers, stderr)
	res, err := topo.ReplayCampaign(ctx, src, cf.Options("replay", *workers, camp, faults))
	snap := camp.Snapshot()
	stop()
	if err != nil {
		return cli.FailureCode(err, cf.Checkpoint, stderr)
	}

	// The stdout report is deterministic (worker-count invariant): the
	// per-channel aggregate table plus the stream fingerprint. Wall-clock
	// throughput goes to stderr below.
	t := report.NewTable(
		fmt.Sprintf("Server-scale trace replay (%s, %s, TRH %d)",
			scheme.Name, src.Mapping().String(), *trh),
		"Channel", "ACTs", "REFs", "RFMs", "Mitigations", "Victim Refreshes", "Flips", "Max Disturbance")
	for _, c := range res.PerChannel() {
		t.AddRow(c.Channel, c.ACTs, c.REFs, c.RFMs, c.Mitigations, c.VictimRefreshes, c.Flips, c.MaxDisturbance)
	}
	if *csv {
		t.CSV(stdout)
	} else {
		t.Render(stdout)
	}
	fmt.Fprintf(stdout, "\nreplayed %d records crc=%08x shards=%d flips=%d\n",
		res.Records, res.CRC32, len(res.Shards), res.TotalFlips())

	actsPerSec := 0.0
	if snap.ElapsedSeconds > 0 {
		actsPerSec = float64(snap.Activations) / snap.ElapsedSeconds
	}
	fmt.Fprintf(stderr, "throughput records=%d records_per_sec=%.3g acts_per_sec=%.3g mb_per_sec=%.2f elapsed=%.2fs\n",
		snap.Records, snap.RecordsPerSec, actsPerSec, snap.MBPerSec, snap.ElapsedSeconds)
	return 0
}

// openTrace sniffs whether f holds the binary or the text trace form and
// returns the matching source. Binary streams decode incrementally; the text
// form is small by construction and is loaded whole.
func openTrace(f *os.File) (trace.Source, error) {
	br := bufio.NewReaderSize(f, 1<<16)
	head, err := br.Peek(len(trace.Magic))
	if err == nil && string(head) == trace.Magic {
		return trace.NewReader(br)
	}
	m, addrs, err := trace.ReadText(br)
	if err != nil {
		return nil, err
	}
	return trace.NewSliceSource(m, addrs), nil
}

// emitTrace drains src and writes it as a binary trace at path.
func emitTrace(src trace.Source, path string) error {
	addrs, err := trace.Drain(src, nil)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteAll(f, src.Mapping(), addrs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseBudgets parses the -rfm comma-separated per-channel budget list.
func parseBudgets(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("-rfm: budget %q must be a non-negative integer", p)
		}
		out[i] = v
	}
	return out, nil
}

// specNames lists the available workload names for the error message.
func specNames() string {
	var names []string
	for _, s := range workload.All() {
		names = append(names, s.Name)
	}
	return strings.Join(names, ", ")
}
