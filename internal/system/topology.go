package system

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"pride/internal/addrmap"
	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/memctrl"
	"pride/internal/rng"
	"pride/internal/sim"
	"pride/internal/trace"
	"pride/internal/trialrunner"
)

// Topology scales the per-bank model to a server: N channels × ranks × banks
// as laid out by an addrmap.Mapping, every bank owning its own
// memctrl.Controller, tracker and index-derived rng stream, with per-channel
// RFM budgets and an optional per-bank RowScrambler standing in for the
// vendor's internal row remap.
//
// Banks never interact — tFAW throttles bandwidth, not correctness, and the
// paper's security analysis is per-bank — so a trace replays as independent
// per-bank ACT streams, in three stages:
//
//  1. read + fingerprint: the calling goroutine reads fixed-size batches in
//     stream order, extending the CRC-32C and record count that key the
//     checkpoint, and checks for cancellation once per batch;
//  2. route: router goroutines counting-sort each batch by (channel, rank,
//     bank) into a per-batch row slab with a per-shard offsets table;
//  3. shard pool: a trialrunner pool replays the shards, each walking the
//     slabs in batch order, with a deterministic shard-order merge.
//
// A shard's rows arrive in record order however the batches were routed, and
// shard state is built lazily inside each shard's trial from index-derived
// seeds, so results are bit-identical at any worker count and across
// repeated replays of the same source.
type Topology struct {
	cfg      TopologyConfig
	compiled addrmap.Compiled
	params   dram.Params // per-bank params derived from cfg.Params + Mapping
	channels int
	ranks    int
	banks    int
}

// TopologyConfig parameterizes a server topology.
type TopologyConfig struct {
	// Params supplies the per-bank DRAM timing parameters. The structural
	// fields (RowsPerBank, RowBits, BanksPerRank, Banks) are derived from
	// Mapping — the mapping is the single source of geometric truth.
	Params dram.Params
	// Mapping lays out physical addresses over channel/rank/bank/row.
	Mapping addrmap.Mapping
	// Scheme is the Rowhammer mitigation every bank runs.
	Scheme sim.Scheme
	// TRH is the device double-sided Rowhammer threshold under test.
	TRH int
	// Seed derives every bank's tracker stream (index-derived per shard).
	Seed uint64
	// RFMBudgets sets the per-channel RFM threshold: nil or empty uses the
	// scheme's default for every channel, one element applies to every
	// channel, and len == Channels() gives each channel its own budget —
	// the knob for asymmetric-budget experiments.
	RFMBudgets []int
	// ScrambleSeed, when nonzero, gives every bank a RowScrambler keyed by
	// DeriveSeed(ScrambleSeed, shard): trace rows are EXTERNAL addresses,
	// the bank hammers the scrambled INTERNAL geometry, and reported flips
	// are translated back to external rows.
	ScrambleSeed uint64
	// SelfCheck enables runtime invariant guards in every bank's
	// controller, bank and tracker. Not part of the checkpoint key.
	SelfCheck bool
}

// Validate reports whether the configuration is usable.
func (c TopologyConfig) Validate() error {
	if err := c.Mapping.Validate(); err != nil {
		return err
	}
	switch {
	case c.Mapping.RowBits > 30:
		return fmt.Errorf("system: mapping row width %d exceeds the 30-bit shard-queue limit", c.Mapping.RowBits)
	case c.Mapping.RowBits < 2:
		return fmt.Errorf("system: mapping row width %d cannot hold a bank (need >= 2)", c.Mapping.RowBits)
	case c.TRH < 2:
		return fmt.Errorf("system: TRH must be >= 2, got %d", c.TRH)
	case c.Scheme.New == nil:
		return fmt.Errorf("system: scheme %q has no constructor", c.Scheme.Name)
	}
	channels := 1 << c.Mapping.ChannelBits
	if shards := 1 << (c.Mapping.ChannelBits + c.Mapping.RankBits + c.Mapping.BankBits); shards > maxShards {
		return fmt.Errorf("system: mapping addresses %d banks, above the %d-shard limit", shards, maxShards)
	}
	if n := len(c.RFMBudgets); n != 0 && n != 1 && n != channels {
		return fmt.Errorf("system: %d RFM budgets for %d channels (want 0, 1, or %d)", n, channels, channels)
	}
	for _, b := range c.RFMBudgets {
		if b < 0 {
			return fmt.Errorf("system: negative RFM budget %d", b)
		}
	}
	return nil
}

// NewTopology derives the full-server geometry from the mapping and returns
// the topology. The per-bank structural parameters are overwritten from the
// mapping; the timing parameters are taken from cfg.Params as given.
func NewTopology(cfg TopologyConfig) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{
		cfg:      cfg,
		compiled: cfg.Mapping.MustCompile(),
		channels: 1 << cfg.Mapping.ChannelBits,
		ranks:    1 << cfg.Mapping.RankBits,
		banks:    1 << cfg.Mapping.BankBits,
	}
	p := cfg.Params
	p.RowBits = cfg.Mapping.RowBits
	p.RowsPerBank = 1 << cfg.Mapping.RowBits
	p.BanksPerRank = t.banks
	p.Banks = t.channels * t.ranks * t.banks
	if p.TFAWLimit > p.Banks || p.TFAWLimit <= 0 {
		p.TFAWLimit = p.Banks
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	t.params = p
	return t, nil
}

// Params returns the derived per-bank parameters.
func (t *Topology) Params() dram.Params { return t.params }

// Channels returns the channel count.
func (t *Topology) Channels() int { return t.channels }

// Ranks returns the per-channel rank count.
func (t *Topology) Ranks() int { return t.ranks }

// Banks returns the per-rank bank count.
func (t *Topology) Banks() int { return t.banks }

// Shards returns the total number of independent banks (= replay shards).
func (t *Topology) Shards() int { return t.channels * t.ranks * t.banks }

// shardIndex flattens a coordinate to its shard: channel-major, then rank,
// then bank — the merge order of every replay result.
func (t *Topology) shardIndex(c addrmap.Coord) int {
	return (c.Channel*t.ranks+c.Rank)*t.banks + c.Bank
}

// shardCoord is the inverse of shardIndex.
func (t *Topology) shardCoord(shard int) (channel, rank, bank int) {
	bank = shard % t.banks
	rank = (shard / t.banks) % t.ranks
	channel = shard / (t.banks * t.ranks)
	return
}

// rfmThreshold resolves the channel's RFM budget.
func (t *Topology) rfmThreshold(channel int) int {
	switch len(t.cfg.RFMBudgets) {
	case 0:
		return t.cfg.Scheme.RFMThreshold
	case 1:
		return t.cfg.RFMBudgets[0]
	default:
		return t.cfg.RFMBudgets[channel]
	}
}

// ReplayFlip is one Rowhammer failure observed during replay, in EXTERNAL
// row addresses (unscrambled back when a RowScrambler is active) with the
// bank-local activation index at which it occurred.
type ReplayFlip struct {
	Row      int    `json:"row"`
	ACTIndex uint64 `json:"act_index"`
}

// ShardResult reports one bank's replay: the controller's command counters
// plus the bank's damage summary. It is the unit of checkpointing, so every
// field is serializable.
type ShardResult struct {
	Channel int `json:"channel"`
	Rank    int `json:"rank"`
	Bank    int `json:"bank"`

	ACTs            uint64 `json:"acts"`
	REFs            uint64 `json:"refs"`
	RFMs            uint64 `json:"rfms"`
	Mitigations     uint64 `json:"mitigations"`
	VictimRefreshes uint64 `json:"victim_refreshes"`

	MaxDisturbance int          `json:"max_disturbance"`
	MaxHammers     int          `json:"max_hammers"`
	Flips          []ReplayFlip `json:"flips,omitempty"`
}

// ReplayResult is a full-trace replay: one ShardResult per bank in shard
// order, plus the demux totals.
type ReplayResult struct {
	Shards  []ShardResult
	Records uint64
	// CRC32 fingerprints the decoded record stream (CRC-32C over the
	// little-endian record values); it keys the campaign checkpoint.
	CRC32 uint32
}

// TotalFlips counts flips across all shards.
func (r ReplayResult) TotalFlips() int {
	n := 0
	for i := range r.Shards {
		n += len(r.Shards[i].Flips)
	}
	return n
}

// ChannelSummary aggregates a replay over one channel, for fleet-level
// reporting.
type ChannelSummary struct {
	Channel         int
	ACTs            uint64
	REFs            uint64
	RFMs            uint64
	Mitigations     uint64
	VictimRefreshes uint64
	Flips           int
	MaxDisturbance  int
}

// PerChannel aggregates the shard results by channel, in channel order.
func (r ReplayResult) PerChannel() []ChannelSummary {
	var out []ChannelSummary
	byChannel := map[int]int{}
	for i := range r.Shards {
		s := &r.Shards[i]
		idx, ok := byChannel[s.Channel]
		if !ok {
			idx = len(out)
			byChannel[s.Channel] = idx
			out = append(out, ChannelSummary{Channel: s.Channel})
		}
		c := &out[idx]
		c.ACTs += s.ACTs
		c.REFs += s.REFs
		c.RFMs += s.RFMs
		c.Mitigations += s.Mitigations
		c.VictimRefreshes += s.VictimRefreshes
		c.Flips += len(s.Flips)
		if s.MaxDisturbance > c.MaxDisturbance {
			c.MaxDisturbance = s.MaxDisturbance
		}
	}
	return out
}

// ReplayOptions is kept as a name for the benchmark harness (perfbench, a
// separate frozen module) that spells it out; every campaign in this
// repository takes trialrunner.Options.
type ReplayOptions = trialrunner.Options

// ReplayCampaignKey is the canonical checkpoint key of a replay campaign:
// the topology configuration plus the decoded trace's length and
// fingerprint — everything a shard's outcome depends on, and nothing else
// (in particular not the worker count).
func ReplayCampaignKey(cfg TopologyConfig, records uint64, crc uint32) string {
	return fmt.Sprintf("system.replay|scheme=%s|params=%+v|mapping=%s|trh=%d|rfm=%v|scramble=%d|seed=%d|records=%d|crc=%08x",
		cfg.Scheme.Name, cfg.Params, cfg.Mapping.String(), cfg.TRH, cfg.RFMBudgets,
		cfg.ScrambleSeed, cfg.Seed, records, crc)
}

// demuxBatch is the record batch of the demux pipeline: the reader fills
// batches of exactly this many records (only the last may be shorter, however
// the source splits its reads), and each becomes one routed slab. Large
// enough to amortize the hand-off to a router, small enough that the
// in-flight buffers stay a few MB.
const demuxBatch = 1 << 16

// maxShards bounds the bank count of a topology. Every routed batch carries
// a shards+1 offsets table, so the bound keeps that table no larger than the
// batch's rows: demux memory stays proportional to the trace.
const maxShards = demuxBatch

// routedBatch is one demux batch counting-sorted by shard: shard s's rows, in
// record order, are rows[off[s]:off[s+1]].
type routedBatch struct {
	rows []int32
	off  []int32
}

// demux shards the record stream by (channel, rank, bank) in two stages. The
// reader stage (readStream, on the calling goroutine) reads fixed-size
// batches in stream order and fingerprints them; each batch goes to one of
// opts.PoolSize(shards) router goroutines, which counting-sorts it into a
// routedBatch. The batches come back in stream order, so walking them in
// order yields each shard's rows in record order — the same rows at any
// worker count. The source's mapping must equal the topology's — a trace
// recorded under one geometry must not silently replay under another.
func (t *Topology) demux(ctx context.Context, src trace.Source, opts *trialrunner.Options) (batches []*routedBatch, records uint64, crc uint32, err error) {
	if sm := src.Mapping(); sm != t.cfg.Mapping {
		return nil, 0, 0, fmt.Errorf("system: trace mapping %s differs from topology mapping %s",
			sm.String(), t.cfg.Mapping.String())
	}
	type job struct {
		addrs []uint64
		out   *routedBatch
	}
	routers := opts.PoolSize(t.Shards())
	// jobs holds at most one queued batch per router, and free every buffer:
	// one per router plus the one the reader is filling. A router hands its
	// buffer back once the batch is routed, so neither send ever blocks a
	// router.
	jobs := make(chan job, routers)
	free := make(chan []uint64, routers+1)
	for i := 0; i < routers; i++ {
		free <- make([]uint64, demuxBatch)
	}
	var wg sync.WaitGroup
	for i := 0; i < routers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cursor := make([]int32, t.Shards())
			for j := range jobs {
				*j.out = t.route(j.addrs, cursor)
				free <- j.addrs[:demuxBatch]
			}
		}()
	}
	records, crc, err = readStream(ctx, src, opts, func(addrs []uint64) []uint64 {
		out := &routedBatch{}
		batches = append(batches, out)
		jobs <- job{addrs, out}
		return <-free
	})
	close(jobs)
	wg.Wait()
	if err != nil {
		return nil, 0, 0, err
	}
	return batches, records, crc, nil
}

// route counting-sorts one batch by shard. It overwrites addrs with each
// record's (shard, row) pair between its two passes; cursor is per-router
// scratch of Shards() entries.
func (t *Topology) route(addrs []uint64, cursor []int32) routedBatch {
	c, ranks, banks := &t.compiled, t.ranks, t.banks
	off := make([]int32, len(cursor)+1)
	for i, addr := range addrs {
		channel, rank, bank, row := c.Route(addr)
		shard := (channel*ranks+rank)*banks + bank
		off[shard+1]++
		addrs[i] = uint64(shard)<<32 | uint64(row)
	}
	for s := 1; s < len(off); s++ {
		off[s] += off[s-1]
	}
	copy(cursor, off)
	rows := make([]int32, len(addrs))
	for _, sr := range addrs {
		shard := sr >> 32
		rows[cursor[shard]] = int32(uint32(sr))
		cursor[shard]++
	}
	return routedBatch{rows: rows, off: off}
}

// castagnoli matches internal/trace's record CRC polynomial, so the demux
// fingerprint of a binary trace's records is comparable across runs
// regardless of the source implementation.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// readStream is the reader stage of the demux, and all of Fingerprint. On
// the calling goroutine it fills a demuxBatch buffer from src with repeated
// ReadBatch calls until the batch is full or the stream ends, extends the
// record count and the CRC-32C over the little-endian record bytes, reports
// the batch to progress, and passes a non-empty batch to route, which
// returns the buffer for the next one (a nil route reuses the buffer). ctx
// is checked once per batch; a cancelled read returns an error wrapping
// ctx.Err().
func readStream(ctx context.Context, src trace.Source, progress *trialrunner.Options, route func([]uint64) []uint64) (records uint64, crc uint32, err error) {
	buf := make([]uint64, demuxBatch)
	le := make([]byte, demuxBatch*8)
	for {
		if err := ctx.Err(); err != nil {
			return 0, 0, fmt.Errorf("system: demux interrupted after %d records: %w", records, err)
		}
		n := 0
		var rerr error
		for n < len(buf) && rerr == nil {
			var k int
			k, rerr = src.ReadBatch(buf[n:])
			n += k
		}
		for i, addr := range buf[:n] {
			binary.LittleEndian.PutUint64(le[i*8:], addr)
		}
		crc = crc32.Update(crc, castagnoli, le[:n*8])
		records += uint64(n)
		if n > 0 {
			progress.AddRecords(int64(n))
			progress.AddBytes(int64(n) * trace.RecordSize)
			if route != nil {
				buf = route(buf[:n])
			}
		}
		if rerr == io.EOF {
			return records, crc, nil
		}
		if rerr != nil {
			return 0, 0, rerr
		}
	}
}

// Fingerprint drains src and returns its record count and CRC-32C over the
// little-endian record bytes. It is the demux's reader stage with no router
// attached, so ReplayCampaignKey(cfg, Fingerprint(src)) equals the
// checkpoint key a replay of the same records derives. The campaign daemon
// files replay jobs under that key before running them.
func Fingerprint(src trace.Source) (records uint64, crc uint32, err error) {
	return readStream(context.Background(), src, &trialrunner.Options{}, nil)
}

// replayShard replays one bank's rows, walked out of the routed batches in
// stream order, from scratch: tracker, bank,
// scrambler and stream are all built from index-derived seeds inside the
// shard, so the result depends only on (config, shard, queue) — the
// property that makes replay bit-identical at any worker count and across
// resumed campaigns.
func (t *Topology) replayShard(shard int, batches []*routedBatch, selfCheck bool) ShardResult {
	channel, rank, bank := t.shardCoord(shard)
	stream := rng.Derived(t.cfg.Seed, uint64(shard))
	trk := t.cfg.Scheme.New(t.params, stream)
	dbank := dram.MustNewBank(t.params, t.cfg.TRH)
	mcfg := memctrl.DefaultConfig(t.params)
	mcfg.RFMThreshold = t.rfmThreshold(channel)
	if t.cfg.Scheme.MitigationEveryNREF > 0 {
		mcfg.MitigationEveryNREF = t.cfg.Scheme.MitigationEveryNREF
	}
	mcfg.SelfCheck = selfCheck
	ctrl := memctrl.New(mcfg, dbank, trk)

	var scr *addrmap.RowScrambler
	if t.cfg.ScrambleSeed != 0 {
		scr = addrmap.NewRowScrambler(t.params.RowsPerBank, rng.DeriveSeed(t.cfg.ScrambleSeed, uint64(shard)))
	}
	for _, b := range batches {
		rows := b.rows[b.off[shard]:b.off[shard+1]]
		if scr != nil {
			for _, row := range rows {
				ctrl.Activate(scr.Scramble(int(row)))
			}
		} else {
			for _, row := range rows {
				ctrl.Activate(int(row))
			}
		}
	}

	stats := ctrl.Stats()
	res := ShardResult{
		Channel:         channel,
		Rank:            rank,
		Bank:            bank,
		ACTs:            stats.ACTs,
		REFs:            stats.REFs,
		RFMs:            stats.RFMs,
		Mitigations:     stats.Mitigations,
		VictimRefreshes: stats.VictimRefreshes,
		MaxDisturbance:  dbank.MaxDisturbance(),
		MaxHammers:      dbank.MaxHammers(),
	}
	for _, f := range dbank.Flips() {
		row := f.Row
		if scr != nil {
			// The bank flipped an internal row; victim accounting reports
			// the external address the attacker (and the trace) sees.
			row = scr.Unscramble(row)
		}
		res.Flips = append(res.Flips, ReplayFlip{Row: row, ACTIndex: f.ACTIndex})
	}
	return res
}

// Replay replays a trace serially: ReplayCampaign with one worker and no
// checkpoint.
func (t *Topology) Replay(src trace.Source) (ReplayResult, error) {
	return t.ReplayCampaign(context.Background(), src, trialrunner.Options{Workers: 1})
}

// ReplayCampaign replays a trace across the topology: the demux shards the
// stream, then a trialrunner pool drains the shards with a deterministic
// shard-order merge — bit-identical at any worker count — with cancellation
// (once per demux batch, then between shards), graceful drain, durable
// checkpoint/resume and progress metering, the same campaign contract the
// TTF CLIs keep. opts.SelfCheck adds to the topology's own SelfCheck;
// opts.Engine must be engine.Exact.
func (t *Topology) ReplayCampaign(ctx context.Context, src trace.Source, opts trialrunner.Options) (ReplayResult, error) {
	if opts.Engine != engine.Exact {
		return ReplayResult{}, fmt.Errorf("system: replay is inherently exact, got engine %v", opts.Engine)
	}
	batches, records, crc, err := t.demux(ctx, src, &opts)
	if err != nil && ctx.Err() != nil && opts.Checkpoint.Enabled() && opts.Checkpoint.Key != "" {
		// An interrupted demux leaves the checkpoint on disk, as an
		// interruption inside the shard pool does: under the cancelled ctx
		// Map rewrites the checkpoint (header and any stored shards) and
		// claims no shard. Without a caller-supplied key there is nothing
		// to name it by — the key needs the whole stream's fingerprint.
		_, err = trialrunner.Map(ctx, t.Shards(), func(int, int) ShardResult {
			panic("system: shard claimed after an interrupted demux")
		}, nil, opts)
		err = fmt.Errorf("system: demux interrupted: %w", err)
	}
	if err != nil {
		return ReplayResult{}, err
	}
	if opts.Checkpoint.Key == "" {
		opts.Checkpoint.Key = ReplayCampaignKey(t.cfg, records, crc)
	}
	selfCheck := t.cfg.SelfCheck || opts.SelfCheck
	shards, err := trialrunner.Map(ctx, t.Shards(), func(_, i int) ShardResult {
		return t.replayShard(i, batches, selfCheck)
	}, func(i int, r ShardResult) error {
		opts.AddActivations(int64(r.ACTs))
		opts.AddMitigations(int64(r.Mitigations))
		return nil
	}, opts)
	if err != nil {
		return ReplayResult{}, err
	}
	return ReplayResult{Shards: shards, Records: records, CRC32: crc}, nil
}
