package workload

import (
	"math"
	"testing"
)

func TestSPEC2017Lineup(t *testing.T) {
	specs := SPEC2017()
	if len(specs) != 17 {
		t.Fatalf("workloads = %d, want the paper's 17", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("%v", err)
		}
		if names[s.Name] {
			t.Errorf("duplicate workload %s", s.Name)
		}
		names[s.Name] = true
	}
	// The artifact's binary list must be present.
	for _, want := range []string{"blender", "lbm", "roms", "gcc", "mcf", "cactuBSSN",
		"xz", "deepsjeng", "imagick", "nab", "bwaves", "namd", "parest", "leela",
		"wrf", "povray", "exchange2"} {
		if !names[want] {
			t.Errorf("workload %s missing", want)
		}
	}
}

func TestMemoryIntensityOrdering(t *testing.T) {
	// The published characterization shape: mcf and lbm are memory-bound,
	// povray and exchange2 are compute-bound.
	byName := map[string]Spec{}
	for _, s := range SPEC2017() {
		byName[s.Name] = s
	}
	if byName["mcf"].MPKI < 10*byName["povray"].MPKI {
		t.Fatal("mcf must be far more memory-intensive than povray")
	}
	if byName["lbm"].RowHitRate <= byName["mcf"].RowHitRate {
		t.Fatal("lbm (streaming) must have better row locality than mcf (pointer chasing)")
	}
}

func TestMixes(t *testing.T) {
	mixes := Mixes()
	if len(mixes) != 17 {
		t.Fatalf("mixes = %d, want 17", len(mixes))
	}
	for _, m := range mixes {
		if err := m.Validate(); err != nil {
			t.Errorf("%v", err)
		}
	}
	// Deterministic across calls.
	again := Mixes()
	for i := range mixes {
		if mixes[i] != again[i] {
			t.Fatal("Mixes not deterministic")
		}
	}
}

func TestAllIs34Sorted(t *testing.T) {
	all := All()
	if len(all) != 34 {
		t.Fatalf("All = %d workloads, want 34", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Fatalf("All not sorted at %d: %s >= %s", i, all[i-1].Name, all[i].Name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, w := range All() {
		got, ok := ByName(w.Name)
		if !ok || got.Name != w.Name {
			t.Fatalf("ByName(%q) = %q, %t", w.Name, got.Name, ok)
		}
	}
	if _, ok := ByName("quake"); ok {
		t.Fatal("ByName accepted an unknown workload")
	}
}

func TestTraceShape(t *testing.T) {
	spec := Spec{Name: "x", MPKI: 20, RowHitRate: 0.6, MLP: 2}
	tr := Trace(spec, 32, 1024, 50_000, 1)
	if len(tr) != 50_000 {
		t.Fatalf("trace length = %d", len(tr))
	}
	hits := 0
	for _, r := range tr {
		if r.Bank < 0 || r.Bank >= 32 || r.Row < 0 || r.Row >= 1024 {
			t.Fatalf("request out of range: %+v", r)
		}
		if r.InstrGap < 1 {
			t.Fatalf("non-positive instruction gap: %+v", r)
		}
		if r.RowHit {
			hits++
		}
	}
	got := float64(hits) / float64(len(tr))
	if math.Abs(got-0.6) > 0.02 {
		t.Fatalf("row hit rate = %v, want ~0.6", got)
	}
}

func TestTraceMeanGapMatchesMPKI(t *testing.T) {
	spec := Spec{Name: "x", MPKI: 10, RowHitRate: 0.5, MLP: 2}
	tr := Trace(spec, 4, 256, 100_000, 2)
	total := 0
	for _, r := range tr {
		total += r.InstrGap
	}
	mean := float64(total) / float64(len(tr))
	want := 1000.0 / 10
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("mean gap = %v instructions, want ~%v", mean, want)
	}
}

func TestTraceRowHitRepeatsAddress(t *testing.T) {
	spec := Spec{Name: "x", MPKI: 10, RowHitRate: 0.5, MLP: 2}
	tr := Trace(spec, 8, 512, 10_000, 3)
	for i := 1; i < len(tr); i++ {
		if tr[i].RowHit && (tr[i].Bank != tr[i-1].Bank || tr[i].Row != tr[i-1].Row) {
			t.Fatalf("row hit at %d changed address: %+v -> %+v", i, tr[i-1], tr[i])
		}
	}
}

func TestTraceDeterminism(t *testing.T) {
	spec := Spec{Name: "x", MPKI: 5, RowHitRate: 0.3, MLP: 1.5}
	a := Trace(spec, 4, 128, 5_000, 7)
	b := Trace(spec, 4, 128, 5_000, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces differ at %d", i)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	bad := []Spec{
		{Name: "neg", MPKI: -1, RowHitRate: 0.5, MLP: 2},
		{Name: "hit", MPKI: 1, RowHitRate: 1.5, MLP: 2},
		{Name: "mlp", MPKI: 1, RowHitRate: 0.5, MLP: 0.5},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %s accepted", s.Name)
		}
	}
}

func TestTracePanics(t *testing.T) {
	spec := Spec{Name: "x", MPKI: 1, RowHitRate: 0.5, MLP: 2}
	for name, f := range map[string]func(){
		"banks":    func() { Trace(spec, 0, 10, 10, 1) },
		"rows":     func() { Trace(spec, 1, 0, 10, 1) },
		"bad spec": func() { Trace(Spec{MLP: 0}, 1, 10, 10, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
