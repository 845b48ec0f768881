package trialrunner

import (
	"testing"

	"pride/internal/engine"
	"pride/internal/guard"
)

// countingSink implements every progress counter plus the fallback counter.
type countingSink struct {
	periods, acts, mits, records, bytes, fallbacks int64
}

func (s *countingSink) AddPeriods(n int64)         { s.periods += n }
func (s *countingSink) AddActivations(n int64)     { s.acts += n }
func (s *countingSink) AddMitigations(n int64)     { s.mits += n }
func (s *countingSink) AddRecords(n int64)         { s.records += n }
func (s *countingSink) AddBytes(n int64)           { s.bytes += n }
func (s *countingSink) AddEngineFallbacks(n int64) { s.fallbacks += n }

// periodsOnly implements a single counter: the others must be skipped.
type periodsOnly struct{ n int64 }

func (s *periodsOnly) AddPeriods(n int64) { s.n += n }

func TestProgressCountersAreDiscoveredStructurally(t *testing.T) {
	full := &countingSink{}
	o := Options{Progress: full}
	o.AddPeriods(1)
	o.AddActivations(2)
	o.AddMitigations(3)
	o.AddRecords(4)
	o.AddBytes(5)
	if *full != (countingSink{periods: 1, acts: 2, mits: 3, records: 4, bytes: 5}) {
		t.Fatalf("counters = %+v", *full)
	}
	partial := &periodsOnly{}
	o = Options{Progress: partial}
	o.AddPeriods(7)
	o.AddActivations(1) // not implemented: a no-op, never a panic
	if partial.n != 7 {
		t.Fatalf("periods = %d, want 7", partial.n)
	}
	var none Options
	none.AddRecords(1) // nil Progress: a no-op
}

// tripSchedule forces an engine trip on the listed trials.
type tripSchedule map[uint64]bool

func (tripSchedule) TrialFault(int, int) error      { return nil }
func (s tripSchedule) EngineTrip(trial uint64) bool { return s[trial] }

func TestGuardedEngineSelectionAndFallback(t *testing.T) {
	event := func() string { return "event" }
	exact := func() string { return "exact" }
	tripping := func() string {
		guard.Failf("test.event", "always", "tripped")
		return "unreachable"
	}

	sink := &countingSink{}
	exactOpts := Options{Engine: engine.Exact, Progress: sink, Faults: tripSchedule{0: true}}
	if got := Guarded(&exactOpts, "test.event", 0, tripping, exact); got != "exact" {
		t.Fatalf("exact engine ran %q", got)
	}
	eventOpts := Options{Engine: engine.Event, Progress: sink, Faults: tripSchedule{2: true}}
	if got := Guarded(&eventOpts, "test.event", 1, event, exact); got != "event" {
		t.Fatalf("untripped event trial ran %q", got)
	}
	if sink.fallbacks != 0 {
		t.Fatalf("%d fallbacks before any trip", sink.fallbacks)
	}
	if got := Guarded(&eventOpts, "test.event", 1, tripping, exact); got != "exact" {
		t.Fatalf("genuine trip ran %q, want the exact fallback", got)
	}
	if got := Guarded(&eventOpts, "test.event", 2, event, exact); got != "exact" {
		t.Fatalf("forced trip ran %q, want the exact fallback", got)
	}
	if sink.fallbacks != 2 {
		t.Fatalf("fallbacks = %d, want 2", sink.fallbacks)
	}
}

func TestGuardedRepanicsNonViolations(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a non-guard panic was swallowed")
		}
	}()
	opts := Options{Engine: engine.Event}
	Guarded(&opts, "test.event", 0, func() int { panic("bug") }, func() int { return 0 })
}

func TestRetriesMapsRetryCountToAttempts(t *testing.T) {
	for n, want := range map[int]int{-1: 0, 0: 0, 1: 2, 3: 4} {
		if got := Retries(n).Attempts; got != want {
			t.Errorf("Retries(%d).Attempts = %d, want %d", n, got, want)
		}
	}
}
