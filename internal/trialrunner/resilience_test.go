package trialrunner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pride/internal/faultinject"
)

func TestCheckpointShortWriteRetriesAndRecovers(t *testing.T) {
	const trials = 10
	cp := tmpCheckpoint(t)
	cp.RetryBackoff = time.Microsecond
	inj := faultinject.New(1)
	// The 2nd checkpoint write tears: half the pending payload lands on disk
	// and the write fails. The bounded retry replays the full payload after a
	// newline terminator isolates the fragment.
	inj.Arm(faultinject.SiteCheckpointWrite, faultinject.Trigger{Nth: 2, Kind: faultinject.KindShortWrite})
	obs := &retryObs{}
	got, err := Map(context.Background(), trials, cpTrial, nil,
		Options{Workers: 1, Observer: obs, Faults: inj, Checkpoint: cp})
	if err != nil {
		t.Fatalf("short-write fault was not retried away: %v", err)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], cpTrial(0, i)) {
			t.Fatalf("trial %d corrupted after short-write recovery", i)
		}
	}
	if _, err := os.Stat(cp.Path); !os.IsNotExist(err) {
		t.Fatalf("checkpoint not removed after recovered completion: %v", err)
	}
	if n := obs.cpRetries.Load(); n < 1 {
		t.Fatalf("checkpoint retries = %d, want >= 1", n)
	}
	if inj.Fired(faultinject.SiteCheckpointWrite) != 1 {
		t.Fatalf("checkpoint.write fired %d times, want 1", inj.Fired(faultinject.SiteCheckpointWrite))
	}
}

func TestCheckpointPersistentWriteFaultSurfaces(t *testing.T) {
	cp := tmpCheckpoint(t)
	cp.Retries = 2
	cp.RetryBackoff = time.Microsecond
	inj := faultinject.New(1)
	inj.Arm(faultinject.SiteCheckpointWrite, faultinject.Trigger{Every: 1})
	_, err := Map(context.Background(), 4, cpTrial, nil,
		Options{Workers: 1, Faults: inj, Checkpoint: cp})
	if err == nil {
		t.Fatal("persistent write fault did not surface")
	}
	if !strings.Contains(err.Error(), "after 3 attempt(s)") {
		t.Fatalf("error does not report the exhausted attempts: %v", err)
	}
}

func TestCheckpointMidFileCorruptionKeepsIntactRecords(t *testing.T) {
	const trials = 10
	cp := tmpCheckpoint(t)
	// Interrupt just before the end so a populated checkpoint survives.
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	_, err := Map(ctx, trials, cpTrial, func(i int, r cpResult) error {
		if done.Add(1) == trials-1 {
			cancel()
		}
		return nil
	}, Options{Workers: 1, Checkpoint: cp})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}

	// Flip one byte inside a MIDDLE record's payload. The CRC no longer
	// matches, so that one record is dropped and re-run; every other record
	// is kept.
	data, err := os.ReadFile(cp.Path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	if len(lines) < 5 {
		t.Fatalf("checkpoint has %d lines, want enough to corrupt a middle record", len(lines))
	}
	target := lines[3] // header is line 0; this is the 3rd record
	var rec checkpointRecord
	if err := json.Unmarshal(target, &rec); err != nil {
		t.Fatal(err)
	}
	idx := bytes.LastIndexByte(target, '1')
	if idx < 0 {
		idx = bytes.LastIndexByte(target, '0')
	}
	target[idx] ^= 0x04 // still a digit, still valid JSON, wrong CRC
	if err := os.WriteFile(cp.Path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	var fresh atomic.Int64
	got, err := Map(context.Background(), trials,
		func(_, i int) cpResult { fresh.Add(1); return cpTrial(0, i) },
		nil, Options{Workers: 1, Checkpoint: cp})
	if err != nil {
		t.Fatalf("resume over corrupted record failed: %v", err)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], cpTrial(0, i)) {
			t.Fatalf("trial %d wrong after corruption recovery", i)
		}
	}
	// Exactly the corrupted record and the one outstanding trial re-ran;
	// the other stored records were all kept.
	if n := fresh.Load(); n != 2 {
		t.Fatalf("resume re-ran %d trials, want 2 (1 corrupted + 1 outstanding)", n)
	}
}

func TestCheckpointLegacyV1Loads(t *testing.T) {
	const trials = 6
	cp := tmpCheckpoint(t)
	// Hand-write a version-1 file: no CRC on the records, as written before
	// the checksum existed.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(checkpointHeader{Magic: checkpointMagic, Version: 1, Key: cp.Key, Trials: trials}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		raw, err := json.Marshal(cpTrial(0, i))
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(checkpointRecord{Trial: i, Result: raw}); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(cp.Path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var fresh atomic.Int64
	got, err := Map(context.Background(), trials,
		func(_, i int) cpResult { fresh.Add(1); return cpTrial(0, i) },
		nil, Options{Workers: 1, Checkpoint: cp})
	if err != nil {
		t.Fatalf("version-1 checkpoint did not load: %v", err)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], cpTrial(0, i)) {
			t.Fatalf("trial %d wrong after v1 resume", i)
		}
	}
	if n := fresh.Load(); n != 2 {
		t.Fatalf("v1 resume re-ran %d trials, want the 2 missing ones", n)
	}
}

func TestCheckpointKeyMismatchErrorIsActionable(t *testing.T) {
	cp := tmpCheckpoint(t)
	// Populate under one key, reopen under another.
	ctx, cancel := context.WithCancel(context.Background())
	_, err := Map(ctx, 4, cpTrial, func(i int, r cpResult) error {
		cancel()
		return nil
	}, Options{Workers: 1, Checkpoint: cp})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}

	other := cp
	other.Key = "test|seed=2"
	_, err = Map(context.Background(), 4, cpTrial, nil, Options{Workers: 1, Checkpoint: other})
	if err == nil {
		t.Fatal("key mismatch accepted")
	}
	if !errors.Is(err, ErrStaleCheckpoint) {
		t.Fatalf("mismatch error does not wrap ErrStaleCheckpoint: %v", err)
	}
	for _, want := range []string{cp.Key, other.Key, "-checkpoint-force", cp.Path} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("mismatch error missing %q:\n%v", want, err)
		}
	}
}

func TestCheckpointForceFreshArchivesStale(t *testing.T) {
	cp := tmpCheckpoint(t)
	ctx, cancel := context.WithCancel(context.Background())
	_, err := Map(ctx, 4, cpTrial, func(i int, r cpResult) error {
		cancel()
		return nil
	}, Options{Workers: 1, Checkpoint: cp})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}

	forced := cp
	forced.Key = "test|seed=2"
	forced.ForceFresh = true
	got, err := Map(context.Background(), 4, cpTrial, nil, Options{Workers: 1, Checkpoint: forced})
	if err != nil {
		t.Fatalf("ForceFresh did not recover from the stale checkpoint: %v", err)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], cpTrial(0, i)) {
			t.Fatalf("trial %d wrong after forced-fresh run", i)
		}
	}
	data, err := os.ReadFile(cp.Path + staleSuffix)
	if err != nil {
		t.Fatalf("stale checkpoint was not archived: %v", err)
	}
	if !bytes.Contains(data, []byte(cp.Key)) {
		t.Fatal("archived file does not hold the original checkpoint")
	}
}

func TestCheckpointForceFreshDoesNotMaskIOErrors(t *testing.T) {
	cp := tmpCheckpoint(t)
	cp.ForceFresh = true
	inj := faultinject.New(1)
	inj.Arm(faultinject.SiteCheckpointOpen, faultinject.Trigger{Nth: 1})
	_, err := Map(context.Background(), 4, cpTrial, nil,
		Options{Workers: 1, Faults: inj, Checkpoint: cp})
	if err == nil {
		t.Fatal("ForceFresh swallowed an injected open failure")
	}
	if errors.Is(err, ErrStaleCheckpoint) {
		t.Fatalf("I/O failure misclassified as stale: %v", err)
	}
}

func TestResumeBitIdenticalUnderInjectedWriteFaults(t *testing.T) {
	const trials = 16
	want, err := Map(context.Background(), trials, cpTrial, nil, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	cp := tmpCheckpoint(t)
	cp.RetryBackoff = time.Microsecond
	inj := faultinject.New(3)
	// Torn writes keep firing while the run progresses, and the cancel site
	// interrupts it partway: the surviving checkpoint must contain only
	// intact records.
	inj.Arm(faultinject.SiteCheckpointWrite, faultinject.Trigger{Every: 3, Kind: faultinject.KindShortWrite})
	inj.Arm(faultinject.SiteTrialCancel, faultinject.Trigger{Nth: 9})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj.BindCancel(cancel)
	_, err = Map(ctx, trials, cpTrial, nil, Options{Workers: 1, Faults: inj, Checkpoint: cp})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("chaos run err = %v, want Canceled", err)
	}
	if _, err := os.Stat(cp.Path); err != nil {
		t.Fatalf("interrupted chaos run kept no checkpoint: %v", err)
	}

	// Undisturbed resume merges the surviving records with fresh trials into
	// the exact undisturbed result.
	got, err := Map(context.Background(), trials, cpTrial, nil, Options{Workers: 2, Checkpoint: cp})
	if err != nil {
		t.Fatalf("resume after chaos run failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed result differs from undisturbed run after injected write faults")
	}
}

func TestCheckpointCreateAndRenameFaultsSurface(t *testing.T) {
	for _, site := range []string{faultinject.SiteCheckpointCreate, faultinject.SiteCheckpointRename} {
		cp := tmpCheckpoint(t)
		inj := faultinject.New(1)
		inj.Arm(site, faultinject.Trigger{Nth: 1})
		_, err := Map(context.Background(), 3, cpTrial, nil,
			Options{Workers: 1, Faults: inj, Checkpoint: cp})
		if err == nil {
			t.Fatalf("site %s: injected fault did not surface", site)
		}
		var fault *faultinject.Fault
		if !errors.As(err, &fault) {
			t.Fatalf("site %s: error does not expose the injected fault: %v", site, err)
		}
		if fault.Site != site {
			t.Fatalf("fault fired at %s, want %s", fault.Site, site)
		}
	}
}

func FuzzLoadCheckpoint(f *testing.F) {
	// Seed corpus: a valid v2 file, a valid v1 file, torn and corrupted
	// variants, wrong headers, junk.
	valid := func(version int) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.Encode(checkpointHeader{Magic: checkpointMagic, Version: version, Key: "fuzz", Trials: 8})
		for i := 0; i < 5; i++ {
			raw, _ := json.Marshal(cpTrial(0, i))
			rec := checkpointRecord{Trial: i, Result: raw}
			if version >= 2 {
				rec.CRC = recordCRC(i, raw)
			}
			enc.Encode(rec)
		}
		return buf.Bytes()
	}
	v2 := valid(2)
	f.Add(v2)
	f.Add(valid(1))
	f.Add(v2[:len(v2)-7])
	f.Add([]byte(`{"magic":"pride-checkpoint","version":2,"key":"fuzz","trials":8}` + "\n" + `{"trial":99,"result":1,"crc":0}`))
	f.Add([]byte(`{"magic":"other","version":9}`))
	f.Add([]byte("\x00\xff garbage\n{{{"))
	f.Add([]byte(""))
	mangled := append([]byte{}, v2...)
	mangled[len(mangled)/2] ^= 0x20
	f.Add(mangled)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := t.TempDir() + "/fuzz.ckpt"
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		const trials = 8
		stored, err := loadCheckpoint(Checkpoint{Path: path, Key: "fuzz"}, trials, nil)
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		for trial, raw := range stored {
			if trial < 0 || trial >= trials {
				t.Fatalf("loadCheckpoint returned out-of-range trial %d", trial)
			}
			if len(raw) == 0 {
				t.Fatalf("loadCheckpoint returned empty payload for trial %d", trial)
			}
			if !json.Valid(raw) {
				t.Fatalf("loadCheckpoint returned invalid JSON for trial %d: %q", trial, raw)
			}
		}
	})
}
