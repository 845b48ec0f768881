package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Expected outputs are what the programs printed at the commit the benchmark
// was made at, committed under perfbench/expected/ so that every later
// commit is compared with them rather than with its own library:
//
//   - replay-trace and campaign-attack: the pride-replay and pride-attack
//     stdout, byte for byte;
//   - serve-mix: one line per fresh submission with a digest of its spec and
//     of the result the job returned.
//
// There is one file per workload, size and seed, for the default and the
// held-out seed at full size and at the small size the self-tests use. A
// change meant to alter a simulated statistic regenerates them with
// -write-expected; any other change must leave them matching.
//
// Runs on another seed have no file of their own, so every run also checks a
// canary: the program's output for the default seed at small size against its
// committed file.

// expectedSeeds are the seeds with committed expected outputs.
var expectedSeeds = []uint64{defaultSeed, heldOutSeed}

// smallSeconds is the nominal run length of the small size; serve-mix plans
// depend on it, so the small expected outputs are made with it.
const smallSeconds = 10

func expectedPath(dir, workload, size string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d.txt", workload, size, seed))
}

// committed returns the committed expected output of the workload for e's
// size and seed; ok is false when there is none.
func (e *env) committed(workload string) (text string, ok bool, err error) {
	data, err := os.ReadFile(expectedPath(e.expectDir, workload, e.size.name, e.seed))
	if os.IsNotExist(err) {
		return "", false, nil
	}
	return string(data), err == nil, err
}

// noteCommitted reports which committed expected output a run is compared
// with.
func (e *env) noteCommitted(workload string, ok bool) {
	if ok {
		fmt.Fprintf(e.out, "# expected output: %s\n", expectedPath(e.expectDir, workload, e.size.name, e.seed))
		return
	}
	fmt.Fprintf(e.out, "# no committed expected output for seed %d at size %s: outputs are compared with the library; the canary compares seed %d with %s\n",
		e.seed, e.size.name, defaultSeed, expectedPath(e.expectDir, workload, "small", defaultSeed))
}

// compareText reports the first line where got differs from want.
func compareText(what, got, want string) error {
	if got == want {
		return nil
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Errorf("%s differs at line %d: got %q, want %q", what, i+1, gl, wl)
		}
	}
	return fmt.Errorf("%s differs", what)
}

// smallEnv is e at the small size, the given seed and its own scratch
// directory.
func (e *env) smallEnv(seed uint64, dir string) (*env, error) {
	c := *e
	c.seed, c.size, c.seconds, c.work = seed, smallSizes(), smallSeconds, dir
	return &c, os.MkdirAll(dir, 0o755)
}

// canary checks the program's output for the default seed at small size
// against its committed expected output.
func canary(ctx context.Context, b bench, e *env) error {
	c, err := e.smallEnv(defaultSeed, filepath.Join(e.work, "canary"))
	if err != nil {
		return err
	}
	want, ok, err := c.committed(b.name)
	if err != nil || !ok {
		return fmt.Errorf("canary: no committed expected output %s (%v)", expectedPath(c.expectDir, b.name, "small", defaultSeed), err)
	}
	got, err := b.expect(ctx, c)
	if err != nil {
		return fmt.Errorf("canary: %v", err)
	}
	if err := compareText("canary "+expectedPath(c.expectDir, b.name, "small", defaultSeed), got, want); err != nil {
		return err
	}
	fmt.Fprintf(e.out, "# canary: %s seed %d at size small matches its committed expected output\n", b.name, defaultSeed)
	return nil
}

// writeExpected regenerates every committed expected output in e.expectDir:
// both expected seeds at full size (made with e.seconds) and at small size.
func writeExpected(ctx context.Context, e *env) error {
	if err := os.MkdirAll(e.expectDir, 0o755); err != nil {
		return err
	}
	for _, b := range benches {
		for _, seed := range expectedSeeds {
			full := *e
			full.seed, full.work = seed, filepath.Join(e.work, "expected", b.name, "full")
			if err := os.MkdirAll(full.work, 0o755); err != nil {
				return err
			}
			small, err := e.smallEnv(seed, filepath.Join(e.work, "expected", b.name, "small"))
			if err != nil {
				return err
			}
			for _, c := range []*env{&full, small} {
				text, err := b.expect(ctx, c)
				if err != nil {
					return fmt.Errorf("%s seed %d size %s: %v", b.name, seed, c.size.name, err)
				}
				path := expectedPath(e.expectDir, b.name, c.size.name, seed)
				if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
					return err
				}
				fmt.Fprintf(e.out, "wrote %s\n", path)
			}
		}
	}
	return os.RemoveAll(filepath.Join(e.work, "expected"))
}

func digest(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }
