package system

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pride/internal/addrmap"
	"pride/internal/trace"
	"pride/internal/trialrunner"
)

// multiBatchRecords spans three full demux batches plus a ragged tail, so
// every pipeline test crosses batch boundaries and ends on a short batch.
const multiBatchRecords = 3*demuxBatch + 4321

func multiBatchAddrs(t *testing.T) []uint64 {
	t.Helper()
	addrs, err := trace.Drain(serverSource(multiBatchRecords), nil)
	if err != nil {
		t.Fatal(err)
	}
	return addrs
}

// referenceReplay is the serial reference the pipeline must reproduce: it
// decodes every record with Mapping.Decode, appends rows to per-shard queues
// in record order, fingerprints the whole stream with one CRC call, and
// replays each shard's queue as a single batch.
func referenceReplay(top *Topology, addrs []uint64) ReplayResult {
	c := top.cfg.Mapping.MustCompile()
	queues := make([][]int32, top.Shards())
	le := make([]byte, 8*len(addrs))
	for i, a := range addrs {
		co := c.Decode(a)
		s := top.shardIndex(co)
		queues[s] = append(queues[s], int32(co.Row))
		binary.LittleEndian.PutUint64(le[8*i:], a)
	}
	whole := &routedBatch{off: []int32{0}}
	for _, q := range queues {
		whole.rows = append(whole.rows, q...)
		whole.off = append(whole.off, int32(len(whole.rows)))
	}
	res := ReplayResult{Records: uint64(len(addrs)), CRC32: crc32.Checksum(le, castagnoli)}
	for s := range queues {
		res.Shards = append(res.Shards, top.replayShard(s, []*routedBatch{whole}, false))
	}
	return res
}

func newServerTopology(t *testing.T) *Topology {
	t.Helper()
	top, err := NewTopology(serverConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// shortSource returns at most limits[i % len(limits)] records on its i-th
// read: a source that never fills the caller's batch in one call.
type shortSource struct {
	trace.Source
	limits []int
	calls  int
}

func (s *shortSource) ReadBatch(dst []uint64) (int, error) {
	if k := s.limits[s.calls%len(s.limits)]; len(dst) > k {
		dst = dst[:k]
	}
	s.calls++
	return s.Source.ReadBatch(dst)
}

// failingSource serves records until `after` have been read, then fails.
type failingSource struct {
	trace.Source
	after, served int
	err           error
}

func (s *failingSource) ReadBatch(dst []uint64) (int, error) {
	if s.served >= s.after {
		return 0, s.err
	}
	if rest := s.after - s.served; len(dst) > rest {
		dst = dst[:rest]
	}
	n, err := s.Source.ReadBatch(dst)
	s.served += n
	return n, err
}

// cancellingSource cancels the campaign's context once it has served
// `after` records, as a SIGINT landing in the middle of the demux would.
type cancellingSource struct {
	trace.Source
	after, served int
	cancel        context.CancelFunc
}

func (s *cancellingSource) ReadBatch(dst []uint64) (int, error) {
	n, err := s.Source.ReadBatch(dst)
	s.served += n
	if s.served >= s.after {
		s.cancel()
	}
	return n, err
}

func TestDemuxMultiBatchMatchesSerialReference(t *testing.T) {
	top := newServerTopology(t)
	addrs := multiBatchAddrs(t)
	want := referenceReplay(top, addrs)
	got, err := top.ReplayCampaign(context.Background(), trace.NewSliceSource(serverMapping(), addrs), ReplayOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got.Records != multiBatchRecords {
		t.Fatalf("replayed %d records, want %d", got.Records, multiBatchRecords)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("multi-batch replay differs from the serial reference")
	}
}

func TestDemuxShortReadsMatchSerialReference(t *testing.T) {
	top := newServerTopology(t)
	addrs := multiBatchAddrs(t)
	want := referenceReplay(top, addrs)
	limits := []int{1, 999, demuxBatch - 1, 4096, 7, demuxBatch + 3}
	src := &shortSource{Source: trace.NewSliceSource(serverMapping(), addrs), limits: limits}
	got, err := top.ReplayCampaign(context.Background(), src, ReplayOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("replay of a short-reading source differs from the serial reference")
	}
	records, crc, err := Fingerprint(&shortSource{Source: trace.NewSliceSource(serverMapping(), addrs), limits: limits})
	if err != nil {
		t.Fatal(err)
	}
	if records != want.Records || crc != want.CRC32 {
		t.Fatalf("Fingerprint = (%d, %08x), want (%d, %08x)", records, crc, want.Records, want.CRC32)
	}
	// Short reads still yield full batches: only the last one is ragged,
	// so the per-batch offsets tables stay few.
	batches, _, _, err := top.demux(context.Background(),
		&shortSource{Source: trace.NewSliceSource(serverMapping(), addrs), limits: limits}, &trialrunner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 4 {
		t.Fatalf("%d routed batches, want 4", len(batches))
	}
	for i, b := range batches[:3] {
		if len(b.rows) != demuxBatch {
			t.Fatalf("batch %d holds %d rows, want %d", i, len(b.rows), demuxBatch)
		}
	}
}

func TestDemuxWorkerInvarianceMultiBatch(t *testing.T) {
	top := newServerTopology(t)
	addrs := multiBatchAddrs(t)
	want := referenceReplay(top, addrs)
	for _, workers := range []int{1, 2, 7} {
		got, err := top.ReplayCampaign(context.Background(), trace.NewSliceSource(serverMapping(), addrs), ReplayOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: result differs from the serial reference", workers)
		}
	}
}

// settleGoroutines waits until the goroutine count falls back to at most
// base, failing the test if it does not within a second.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDemuxReadErrorStopsRouters(t *testing.T) {
	top := newServerTopology(t)
	addrs := multiBatchAddrs(t)
	boom := errors.New("disk on fire")
	base := runtime.NumGoroutine()
	src := &failingSource{Source: trace.NewSliceSource(serverMapping(), addrs), after: demuxBatch + 500, err: boom}
	_, err := top.ReplayCampaign(context.Background(), src, ReplayOptions{Workers: 4})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the source's read error", err)
	}
	settleGoroutines(t, base)
}

func TestDemuxCancellationStopsReading(t *testing.T) {
	top := newServerTopology(t)
	addrs := multiBatchAddrs(t)
	const k = 2
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancellingSource{Source: trace.NewSliceSource(serverMapping(), addrs), after: k * demuxBatch, cancel: cancel}
	_, err := top.ReplayCampaign(ctx, src, ReplayOptions{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want one wrapping context.Canceled", err)
	}
	if src.served != k*demuxBatch {
		t.Fatalf("demux read %d records after cancellation at %d; want it to stop at the next batch", src.served, k*demuxBatch)
	}
	settleGoroutines(t, base)
}

// A caller that names the checkpoint up front (the daemon does) keeps it on
// disk when the interruption lands in the demux, and resuming it completes
// bit-identically.
func TestDemuxCancellationKeepsNamedCheckpoint(t *testing.T) {
	top := newServerTopology(t)
	addrs := multiBatchAddrs(t)
	want := referenceReplay(top, addrs)
	cp := trialrunner.Checkpoint{
		Path: filepath.Join(t.TempDir(), "replay.ckpt"),
		Key:  ReplayCampaignKey(top.cfg, want.Records, want.CRC32),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancellingSource{Source: trace.NewSliceSource(serverMapping(), addrs), after: demuxBatch, cancel: cancel}
	if _, err := top.ReplayCampaign(ctx, src, ReplayOptions{Workers: 2, Checkpoint: cp}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want one wrapping context.Canceled", err)
	}
	if _, err := os.Stat(cp.Path); err != nil {
		t.Fatalf("no checkpoint after an interrupted demux: %v", err)
	}
	got, err := top.ReplayCampaign(context.Background(), trace.NewSliceSource(serverMapping(), addrs), ReplayOptions{Workers: 2, Checkpoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed replay differs from the serial reference")
	}
}

func TestTopologyRejectsTooManyShards(t *testing.T) {
	cfg := serverConfig(t)
	cfg.Mapping = addrmap.Mapping{ColumnBits: 4, BankBits: 10, RowBits: 10, RankBits: 4, ChannelBits: 3}
	if _, err := NewTopology(cfg); err == nil {
		t.Fatalf("accepted a mapping with %d shards (limit %d)", 1<<17, maxShards)
	}
	cfg.Mapping.ChannelBits = 2
	if _, err := NewTopology(cfg); err != nil {
		t.Fatalf("rejected a mapping at the %d-shard limit: %v", maxShards, err)
	}
}
