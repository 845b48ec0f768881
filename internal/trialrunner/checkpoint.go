package trialrunner

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// Checkpoint configures periodic on-disk snapshots of completed-trial
// results, so an interrupted campaign resumes instead of restarting.
//
// The file is line-oriented JSON: a header line identifying the experiment
// (magic, version, key, trial count) followed by one record per completed
// trial, keyed by the deterministic trial index and carrying a CRC32 of its
// payload. Because trial i's result is a pure function of (experiment, i) —
// never of the worker count or of completion order — a resumed run that
// merges stored and fresh results in trial order produces a bit-for-bit
// identical final result to an uninterrupted run. The CRC extends the
// recovery guarantee from tail truncation to arbitrary mid-file corruption:
// loading keeps every record that still checksums and drops the rest, and
// the dropped trials simply re-run.
type Checkpoint struct {
	// Path is the checkpoint file. Empty disables checkpointing.
	Path string
	// Key identifies the experiment (configuration + seed). A checkpoint
	// written under a different key, or for a different trial count, is
	// rejected rather than silently merged into the wrong experiment
	// (unless ForceFresh archives it instead).
	Key string
	// Every is the flush/fsync cadence in freshly-completed trials.
	// 0 means after every trial (the trials in this repository are seconds
	// long; durability dominates write cost).
	Every int
	// ForceFresh, instead of erroring on a stale checkpoint (wrong key,
	// wrong trial count, unreadable header), archives the file by renaming
	// it to Path+".stale" and starts fresh. I/O errors still fail.
	ForceFresh bool
	// Retries is the number of retry attempts after a failed checkpoint
	// write/sync, with exponential backoff. 0 selects the default (3);
	// negative disables retrying.
	Retries int
	// RetryBackoff is the first retry's backoff, doubling per attempt.
	// 0 selects the default (1ms).
	RetryBackoff time.Duration
}

// Enabled reports whether checkpointing is configured.
func (c Checkpoint) Enabled() bool { return c.Path != "" }

func (c Checkpoint) every() int {
	if c.Every <= 0 {
		return 1
	}
	return c.Every
}

func (c Checkpoint) retries() int {
	if c.Retries == 0 {
		return 3
	}
	if c.Retries < 0 {
		return 0
	}
	return c.Retries
}

func (c Checkpoint) retryBackoff() time.Duration {
	if c.RetryBackoff <= 0 {
		return time.Millisecond
	}
	return c.RetryBackoff
}

const (
	checkpointMagic = "pride-checkpoint"
	// checkpointVersion 2 adds a per-record CRC32. Version-1 files (no CRC)
	// are still readable, so pre-existing checkpoints resume.
	checkpointVersion = 2

	// staleSuffix is appended to an archived checkpoint's name by ForceFresh.
	staleSuffix = ".stale"
)

// ErrStaleCheckpoint marks (wraps) load errors that mean "this file does not
// belong to this experiment" — wrong key, wrong trial count, unrecognisable
// header — as opposed to I/O failures. These are exactly the errors
// Checkpoint.ForceFresh resolves by archiving the file.
var ErrStaleCheckpoint = errors.New("stale checkpoint")

// skipReporter is satisfied by observers (internal/obs.Campaign among them)
// that want to know how many trials a resumed run restored from the
// checkpoint instead of executing, so progress fractions start where the
// interrupted run left off.
type skipReporter interface{ SkipTrials(n int) }

// checkpointRetryReporter is the optional observer capability for counting
// retried checkpoint writes (internal/obs.Campaign implements it).
type checkpointRetryReporter interface{ AddCheckpointRetries(n int64) }

// CheckpointFaults is the checkpoint layer's fault-injection hook
// (faultinject.Injector implements it): op is the file operation about to
// run ("open", "create", "write", "sync", "rename"); a non-nil error fails
// it. A fault exposing Short() true additionally leaves a torn prefix of
// the pending payload on disk before failing, exercising CRC recovery.
// The pool discovers the capability on Options.Faults structurally, so one
// injector serves both trial and checkpoint sites.
type CheckpointFaults interface {
	CheckpointFault(op string) error
}

type checkpointHeader struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	Key     string `json:"key"`
	Trials  int    `json:"trials"`
}

type checkpointRecord struct {
	Trial  int             `json:"trial"`
	Result json.RawMessage `json:"result"`
	// CRC is the IEEE CRC32 of "<trial>:<result bytes>" (version >= 2).
	CRC uint32 `json:"crc,omitempty"`
}

// recordCRC checksums a record's payload. The trial index is mixed in so a
// corruption that swaps two records' indices is caught even when both
// payloads are individually intact.
func recordCRC(trial int, result json.RawMessage) uint32 {
	h := crc32.NewIEEE()
	h.Write([]byte(strconv.Itoa(trial)))
	h.Write([]byte{':'})
	h.Write(result)
	return h.Sum32()
}

// loadCheckpoint reads the stored records of an existing checkpoint file.
// A missing file yields an empty map. Corrupt records — truncated tails,
// mid-file bit flips, malformed lines — are dropped individually: every
// record that parses and checksums is kept, and the dropped trials re-run.
// A header that names a different experiment or trial count is an error
// (wrapping ErrStaleCheckpoint) — resuming it would corrupt the merged
// result — unless cp.ForceFresh archives the file and starts fresh.
func loadCheckpoint(cp Checkpoint, trials int, faults CheckpointFaults) (map[int]json.RawMessage, error) {
	stored, err := readCheckpoint(cp, trials, faults)
	if err != nil && cp.ForceFresh && errors.Is(err, ErrStaleCheckpoint) {
		if aerr := os.Rename(cp.Path, cp.Path+staleSuffix); aerr != nil {
			return nil, fmt.Errorf("trialrunner: archiving stale checkpoint: %w (stale because: %v)", aerr, err)
		}
		return map[int]json.RawMessage{}, nil
	}
	return stored, err
}

func readCheckpoint(cp Checkpoint, trials int, faults CheckpointFaults) (map[int]json.RawMessage, error) {
	if faults != nil {
		if err := faults.CheckpointFault("open"); err != nil {
			return nil, fmt.Errorf("trialrunner: opening checkpoint: %w", err)
		}
	}
	f, err := os.Open(cp.Path)
	if os.IsNotExist(err) {
		return map[int]json.RawMessage{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("trialrunner: opening checkpoint: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 256*1024*1024)
	if !sc.Scan() {
		// Empty file (e.g. created then killed before the header flushed):
		// treat as a fresh start.
		return map[int]json.RawMessage{}, sc.Err()
	}
	var hdr checkpointHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("trialrunner: checkpoint %s: malformed header (%v): %w (delete the file, or pass -checkpoint-force to archive it)", cp.Path, err, ErrStaleCheckpoint)
	}
	if hdr.Magic != checkpointMagic || hdr.Version < 1 || hdr.Version > checkpointVersion {
		return nil, fmt.Errorf("trialrunner: checkpoint %s: not a version 1..%d %s file (magic %q, version %d): %w (delete the file, or pass -checkpoint-force to archive it)", cp.Path, checkpointVersion, checkpointMagic, hdr.Magic, hdr.Version, ErrStaleCheckpoint)
	}
	if hdr.Key != cp.Key {
		return nil, fmt.Errorf("trialrunner: checkpoint %s was written by a different experiment:\n  stored key:   %q\n  expected key: %q\nresuming it would corrupt the merged result: %w (delete the file, point -checkpoint elsewhere, or pass -checkpoint-force to archive it)", cp.Path, hdr.Key, cp.Key, ErrStaleCheckpoint)
	}
	if hdr.Trials != trials {
		return nil, fmt.Errorf("trialrunner: checkpoint %s holds %d trials, experiment has %d: %w (delete the file, point -checkpoint elsewhere, or pass -checkpoint-force to archive it)", cp.Path, hdr.Trials, trials, ErrStaleCheckpoint)
	}

	// Version-2 records carry a CRC and are verified; version-1 records have
	// none and are accepted as-is (legacy files predate the checksum).
	requireCRC := hdr.Version >= 2
	stored := make(map[int]json.RawMessage)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec checkpointRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// Torn write or corrupted line; later records may still be
			// intact, keep scanning.
			continue
		}
		if rec.Trial < 0 || rec.Trial >= trials || rec.Result == nil {
			continue
		}
		if requireCRC && rec.CRC != recordCRC(rec.Trial, rec.Result) {
			continue
		}
		stored[rec.Trial] = rec.Result
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trialrunner: reading checkpoint: %w", err)
	}
	return stored, nil
}

// LoadCheckpoint reads the stored trial records of an existing checkpoint
// file without running anything, keyed by trial index. A missing file yields
// an empty map; corrupt records are dropped individually; a header naming a
// different experiment or trial count errors (wrapping ErrStaleCheckpoint)
// unless cp.ForceFresh archives the file. Campaigns whose trials form a
// dependency chain (the island search's migration epochs) use it to restore
// intermediate state before calling Map, which only hands back stored
// results after the run completes.
func LoadCheckpoint(cp Checkpoint, trials int) (map[int]json.RawMessage, error) {
	return loadCheckpoint(cp, trials, nil)
}

// checkpointWriter appends freshly-completed trial records, flushing and
// syncing every cp.every() records. Records accumulate in a pending buffer
// and are written to the file directly (no bufio: its sticky error state
// would defeat retrying), so a failed or torn write retries with backoff
// from the complete pending payload. It is only ever called under Map's
// onDone mutex, so it needs no locking of its own.
type checkpointWriter struct {
	f         *os.File
	every     int
	sinceSync int
	pending   bytes.Buffer
	// dirty records that a failed write may have left a partial line on
	// disk; the next attempt first writes "\n" so the torn fragment becomes
	// a (CRC-rejected) line of its own instead of corrupting the next
	// record.
	dirty   bool
	retries int
	backoff time.Duration
	faults  CheckpointFaults
	onRetry func(n int64)
}

// newCheckpointWriter atomically rewrites the checkpoint with the header and
// the still-valid stored records (normalizing away any corrupt lines), then
// leaves the file open for appending. The temp-file + rename install means a
// crash mid-rewrite leaves the previous checkpoint intact.
func newCheckpointWriter(cp Checkpoint, trials int, stored map[int]json.RawMessage, faults CheckpointFaults, onRetry func(n int64)) (*checkpointWriter, error) {
	fault := func(op string) error {
		if faults == nil {
			return nil
		}
		return faults.CheckpointFault(op)
	}
	tmp := cp.Path + ".tmp"
	if err := fault("create"); err != nil {
		return nil, fmt.Errorf("trialrunner: creating checkpoint: %w", err)
	}
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("trialrunner: creating checkpoint: %w", err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(checkpointHeader{Magic: checkpointMagic, Version: checkpointVersion, Key: cp.Key, Trials: trials}); err != nil {
		f.Close()
		return nil, err
	}
	// Deterministic record order on rewrite: trial index.
	for i := 0; i < trials; i++ {
		raw, ok := stored[i]
		if !ok {
			continue
		}
		if err := enc.Encode(checkpointRecord{Trial: i, Result: raw, CRC: recordCRC(i, raw)}); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := fault("rename"); err != nil {
		return nil, fmt.Errorf("trialrunner: installing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, cp.Path); err != nil {
		return nil, fmt.Errorf("trialrunner: installing checkpoint: %w", err)
	}
	syncDir(cp.Path)
	if err := fault("open"); err != nil {
		return nil, fmt.Errorf("trialrunner: reopening checkpoint: %w", err)
	}
	af, err := os.OpenFile(cp.Path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("trialrunner: reopening checkpoint: %w", err)
	}
	return &checkpointWriter{
		f:       af,
		every:   cp.every(),
		retries: cp.retries(),
		backoff: cp.retryBackoff(),
		faults:  faults,
		onRetry: onRetry,
	}, nil
}

// syncDir fsyncs the directory containing path, making the rename durable.
// Best-effort: some filesystems reject directory fsync, and the rename
// itself is already atomic.
func syncDir(path string) {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// record appends one completed trial to the pending buffer, flushing and
// syncing every cp.every() records.
func (w *checkpointWriter) record(trial int, result any) error {
	raw, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("trialrunner: marshalling trial %d result: %w", trial, err)
	}
	if err := json.NewEncoder(&w.pending).Encode(checkpointRecord{Trial: trial, Result: raw, CRC: recordCRC(trial, raw)}); err != nil {
		return fmt.Errorf("trialrunner: writing checkpoint record: %w", err)
	}
	w.sinceSync++
	if w.sinceSync >= w.every {
		w.sinceSync = 0
		return w.sync()
	}
	return nil
}

// sync writes the pending records to the file and fsyncs, retrying with
// exponential backoff on failure. A retry replays the complete pending
// payload; if a previous attempt tore mid-line, a newline terminator first
// isolates the fragment (the CRC loader drops it, and the replayed copy of
// the same record supersedes it — duplicate intact records are idempotent,
// the loader keys by trial index).
func (w *checkpointWriter) sync() error {
	var lastErr error
	backoff := w.backoff
	for attempt := 0; attempt <= w.retries; attempt++ {
		if attempt > 0 {
			if w.onRetry != nil {
				w.onRetry(1)
			}
			time.Sleep(backoff)
			backoff *= 2
		}
		if lastErr = w.trySync(); lastErr == nil {
			return nil
		}
	}
	return fmt.Errorf("trialrunner: checkpoint write failed after %d attempt(s): %w", w.retries+1, lastErr)
}

func (w *checkpointWriter) trySync() error {
	if w.dirty {
		if _, err := w.f.Write([]byte("\n")); err != nil {
			return err
		}
		w.dirty = false
	}
	if w.faults != nil {
		if err := w.faults.CheckpointFault("write"); err != nil {
			if s, ok := err.(interface{ Short() bool }); ok && s.Short() && w.pending.Len() > 0 {
				// Land a torn prefix on disk for real, so recovery is
				// exercised against an actual partial line.
				if n, _ := w.f.Write(w.pending.Bytes()[:(w.pending.Len()+1)/2]); n > 0 {
					w.dirty = true
				}
			}
			return err
		}
	}
	if w.pending.Len() > 0 {
		if _, err := w.f.Write(w.pending.Bytes()); err != nil {
			// Unknown how much landed; terminate the fragment next attempt.
			w.dirty = true
			return err
		}
	}
	if w.faults != nil {
		if err := w.faults.CheckpointFault("sync"); err != nil {
			return err
		}
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.pending.Reset()
	return nil
}

// close flushes, syncs and closes the file (kept on disk).
func (w *checkpointWriter) close() error {
	err := w.sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
