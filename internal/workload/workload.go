// Package workload provides the SPEC2017-rate workload substitute for the
// paper's gem5 evaluation (Table VII, Fig 14).
//
// SPEC binaries cannot ship with this repository, so each workload is
// characterized by the three parameters that determine its DRAM behaviour —
// memory intensity (LLC misses per kilo-instruction), row-buffer locality,
// and exploitable memory-level parallelism — with values in line with the
// published memory-system characterizations of SPEC CPU2017 rate workloads.
// Figure 14's effect is purely a DRAM-bandwidth effect (RFM blocks a bank
// for 180ns every RFM_TH activations), so traces with realistic ACT rates
// reproduce its shape; see DESIGN.md's substitution table.
package workload

import (
	"fmt"
	"sort"

	"pride/internal/rng"
)

// Spec characterizes one workload's memory behaviour.
type Spec struct {
	// Name is the SPEC2017 binary name (or "mixNN" for multiprogrammed
	// mixes).
	Name string
	// MPKI is LLC misses per kilo-instruction reaching DRAM.
	MPKI float64
	// RowHitRate is the fraction of requests hitting an open row.
	RowHitRate float64
	// MLP is the average number of overlapping outstanding misses.
	MLP float64
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	switch {
	case s.MPKI < 0:
		return fmt.Errorf("workload %s: negative MPKI", s.Name)
	case s.RowHitRate < 0 || s.RowHitRate > 1:
		return fmt.Errorf("workload %s: RowHitRate %v outside [0,1]", s.Name, s.RowHitRate)
	case s.MLP < 1:
		return fmt.Errorf("workload %s: MLP %v must be >= 1", s.Name, s.MLP)
	}
	return nil
}

// SPEC2017 returns the 17 rate workloads of the paper's Fig 14, with
// memory-behaviour parameters consistent with published SPEC CPU2017
// characterizations (memory-bound: mcf, lbm, bwaves, roms; moderate: gcc,
// cactuBSSN, wrf, xz, parest; compute-bound: leela, povray, exchange2, ...).
func SPEC2017() []Spec {
	return []Spec{
		{Name: "blender", MPKI: 1.2, RowHitRate: 0.55, MLP: 2.5},
		{Name: "lbm", MPKI: 45.0, RowHitRate: 0.75, MLP: 5.0},
		{Name: "roms", MPKI: 22.0, RowHitRate: 0.65, MLP: 4.0},
		{Name: "gcc", MPKI: 6.5, RowHitRate: 0.50, MLP: 2.0},
		{Name: "mcf", MPKI: 55.0, RowHitRate: 0.25, MLP: 3.5},
		{Name: "cactuBSSN", MPKI: 12.0, RowHitRate: 0.60, MLP: 3.0},
		{Name: "xz", MPKI: 4.5, RowHitRate: 0.40, MLP: 1.8},
		{Name: "deepsjeng", MPKI: 1.0, RowHitRate: 0.45, MLP: 1.5},
		{Name: "imagick", MPKI: 0.5, RowHitRate: 0.70, MLP: 1.5},
		{Name: "nab", MPKI: 1.8, RowHitRate: 0.60, MLP: 2.0},
		{Name: "bwaves", MPKI: 28.0, RowHitRate: 0.80, MLP: 5.5},
		{Name: "namd", MPKI: 0.8, RowHitRate: 0.65, MLP: 1.8},
		{Name: "parest", MPKI: 7.0, RowHitRate: 0.55, MLP: 2.5},
		{Name: "leela", MPKI: 0.3, RowHitRate: 0.50, MLP: 1.2},
		{Name: "wrf", MPKI: 9.0, RowHitRate: 0.70, MLP: 3.0},
		{Name: "povray", MPKI: 0.1, RowHitRate: 0.60, MLP: 1.2},
		{Name: "exchange2", MPKI: 0.05, RowHitRate: 0.50, MLP: 1.1},
	}
}

// Mixes returns 17 multiprogrammed mixes (the paper's "mix" workloads):
// deterministic 4-way combinations of the rate workloads, averaged into a
// single aggregate spec per mix (the perfsim core model is per-workload).
func Mixes() []Spec {
	base := SPEC2017()
	mixes := make([]Spec, 0, 17)
	r := rng.New(0x5EED5)
	for i := 0; i < 17; i++ {
		var mpki, hit, mlp float64
		for j := 0; j < 4; j++ {
			w := base[r.Intn(len(base))]
			mpki += w.MPKI
			hit += w.RowHitRate
			mlp += w.MLP
		}
		mixes = append(mixes, Spec{
			Name:       fmt.Sprintf("mix%02d", i+1),
			MPKI:       mpki / 4,
			RowHitRate: hit / 4,
			MLP:        mlp / 4,
		})
	}
	return mixes
}

// All returns the paper's full 34-workload line-up (17 rate + 17 mixes),
// sorted by name for stable reporting.
func All() []Spec {
	all := append(SPEC2017(), Mixes()...)
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// ByName returns the workload of All with exactly the given name.
func ByName(name string) (Spec, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Request is one DRAM request of a generated trace.
type Request struct {
	// Bank and Row address the request.
	Bank int
	Row  int
	// InstrGap is the number of instructions the core retires between the
	// previous request and this one.
	InstrGap int
	// RowHit records whether the generator intended an open-row hit.
	RowHit bool
}

// Trace generates n requests for spec over `banks` banks and `rows` rows per
// bank, deterministically from seed. Row-buffer locality is modelled by
// repeating the previous (bank,row) with probability RowHitRate; otherwise a
// fresh random (bank,row) is drawn.
func Trace(spec Spec, banks, rows, n int, seed uint64) []Request {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if banks < 1 || rows < 1 || n < 0 {
		panic(fmt.Sprintf("workload: bad trace shape banks=%d rows=%d n=%d", banks, rows, n))
	}
	r := rng.New(seed)
	out := make([]Request, n)
	curBank, curRow := r.Intn(banks), r.Intn(rows)
	// Mean instruction gap between misses: 1000/MPKI.
	meanGap := 1.0
	if spec.MPKI > 0 {
		meanGap = 1000.0 / spec.MPKI
	}
	for i := range out {
		hit := r.Bernoulli(spec.RowHitRate)
		if !hit {
			curBank = r.Intn(banks)
			curRow = r.Intn(rows)
		}
		// Geometric inter-arrival around the mean gap keeps the trace
		// bursty like real miss streams.
		gap := 1
		if meanGap > 1 {
			gap = 1 + r.Geometric(1/meanGap)
		}
		out[i] = Request{Bank: curBank, Row: curRow, InstrGap: gap, RowHit: hit}
	}
	return out
}
