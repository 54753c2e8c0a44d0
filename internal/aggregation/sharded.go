package aggregation

import (
	"sync"

	"slb/internal/hashing"
)

// ShardFor maps a key digest to one of `shards` reducer shards with the
// same Lemire multiply-shift reduction the routing layer uses
// (hashing.Bounded over the avalanched digest). It is a pure function
// of the carried digest — no key bytes are touched — so every worker
// and every engine sends a key's partials to the same shard, and the
// per-key merge stays strictly within one shard.
//
// The reduction consumes the HIGH bits of Mix64(dg) while the partial
// tables index by its low bits, so shard choice and table placement are
// effectively independent.
func ShardFor(dg KeyDigest, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(hashing.Bounded(hashing.Mix64(dg), uint64(shards)))
}

// shardCounts tracks, per (window, shard), how many messages the
// sources have EMITTED: the per-shard completeness thresholds the
// sharded reducers close windows against. Keys partition across shards
// by digest, so — unlike the unsharded case — a shard's share of a
// window is data-dependent and must be counted, not computed. Counting
// happens at routing time (the digest is already in hand), strictly
// before the message can be processed, flushed, or merged; a threshold
// is declared FINAL only once the whole window's emission is accounted
// for, so a reducer shard can never close a window early against a
// still-growing count.
//
// Thread-safe: engines' sources observe emissions concurrently with the
// reducer shards reading thresholds.
type shardCounts struct {
	mu       sync.Mutex
	shards   int
	winSize  int64
	messages int64
	rows     map[int64][]int64 // window → [shards] emitted counts + total in [shards]
	lastW    int64
	lastRow  []int64
}

func newShardCounts(shards int, windowSize, messages int64) *shardCounts {
	return &shardCounts{
		shards:   shards,
		winSize:  windowSize,
		messages: messages,
		rows:     make(map[int64][]int64),
		lastW:    -1 << 62,
	}
}

// row returns window w's count row, allocating on first touch. Caller
// holds mu. Windows are emitted (nearly) in order, so the last row is
// cached.
func (c *shardCounts) row(w int64) []int64 {
	if w == c.lastW {
		return c.lastRow
	}
	r := c.rows[w]
	if r == nil {
		r = make([]int64, c.shards+1)
		c.rows[w] = r
	}
	c.lastW, c.lastRow = w, r
	return r
}

func (c *shardCounts) observe(seq int64, dg KeyDigest) {
	c.mu.Lock()
	r := c.row(seq / c.winSize)
	r[ShardFor(dg, c.shards)]++
	r[c.shards]++
	c.mu.Unlock()
}

func (c *shardCounts) observeBatch(base int64, digs []KeyDigest) {
	c.mu.Lock()
	for i, dg := range digs {
		r := c.row((base + int64(i)) / c.winSize)
		r[ShardFor(dg, c.shards)]++
		r[c.shards]++
	}
	c.mu.Unlock()
}

// expected returns shard r's completeness threshold for window w and
// whether it is final (the whole window has been emitted and counted).
func (c *shardCounts) expected(w int64, shard int) (int64, bool) {
	full := c.winSize
	if c.messages > 0 {
		if last := (c.messages - 1) / c.winSize; w == last {
			full = c.messages - last*c.winSize
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	row := c.rows[w]
	if row == nil {
		return 0, false
	}
	return row[shard], row[c.shards] >= full
}

// ShardedDriver is the R-way reduce stage: R independent Drivers, each
// owning the keys whose digests ShardFor maps to it, behind one façade
// that preserves the completeness-based window close PER SHARD. Shard
// thresholds are counted at emission (ObserveEmit/ObserveEmits — the
// engines call these where they route), so each shard closes its slice
// of a window the instant it has merged every partial that slice will
// ever produce, independent of the other shards.
//
// With shards == 1 it degenerates to exactly the single-Driver
// behaviour (closed-form thresholds, no counting, no locking on the
// emission path).
//
// Concurrency contract: MergeShard/FinishShard on DISTINCT shards may
// run concurrently (the goroutine engine gives each shard its own
// reducer goroutine); ObserveEmit/ObserveEmits may run concurrently
// with everything. Merge/Finish and the accessors (Stats, Replication,
// Total) are for single-threaded engines or post-join reporting.
type ShardedDriver struct {
	drivers []*Driver
	counts  *shardCounts // nil when unsharded
	bufs    [][]Partial  // per-shard scratch for Merge
	m       Merger
	winSize int64
	msgs    int64
}

// NewShardedDriver returns an R-way reduce stage for an engine run of
// `messages` total messages in tumbling windows of windowSize, merging
// values with m (nil means CountMerger). shards ≤ 1 means a single
// unsharded reducer.
func NewShardedDriver(workers, shards int, windowSize, messages int64, m Merger) *ShardedDriver {
	if windowSize <= 0 {
		panic("aggregation: ShardedDriver windowSize must be positive")
	}
	if shards <= 1 {
		return &ShardedDriver{
			drivers: []*Driver{NewDriverMerger(workers, windowSize, messages, m)},
			bufs:    make([][]Partial, 1),
			m:       m, winSize: windowSize, msgs: messages,
		}
	}
	sd := &ShardedDriver{
		drivers: make([]*Driver, shards),
		counts:  newShardCounts(shards, windowSize, messages),
		bufs:    make([][]Partial, shards),
		m:       m, winSize: windowSize, msgs: messages,
	}
	for r := range sd.drivers {
		shard := r
		sd.drivers[r] = newDriverExpected(workers, m, func(w int64) (int64, bool) {
			return sd.counts.expected(w, shard)
		})
	}
	return sd
}

// Shards returns the number of reducer shards.
func (sd *ShardedDriver) Shards() int { return len(sd.drivers) }

// ObserveEmit records one routed message (its global emission sequence
// number and carried digest) toward the per-shard completeness
// thresholds. Engines MUST call it — before the message becomes
// processable — for every message when sharding is on; with one shard
// it is a no-op.
func (sd *ShardedDriver) ObserveEmit(seq int64, dg KeyDigest) {
	if sd.counts != nil {
		sd.counts.observe(seq, dg)
	}
}

// ObserveEmits is the batched form of ObserveEmit for a routed slab
// whose digests digs correspond to emission sequences base, base+1, …
// (one lock for the whole slab).
func (sd *ShardedDriver) ObserveEmits(base int64, digs []KeyDigest) {
	if sd.counts != nil && len(digs) > 0 {
		sd.counts.observeBatch(base, digs)
	}
}

// merger returns the merge operator the stage was built with (never
// nil: construction defaults to CountMerger) — combiner-tree nodes fold
// with the same operator the reducers combine with.
func (sd *ShardedDriver) merger() Merger {
	if sd.m == nil {
		return CountMerger
	}
	return sd.m
}

// expectedFor returns shard r's completeness threshold for window w and
// whether it is final. Sharded stages read the emission-counted
// thresholds; the unsharded stage uses the closed form (every window
// holds exactly winSize messages, the last the remainder), which is
// always final.
func (sd *ShardedDriver) expectedFor(w int64, shard int) (int64, bool) {
	if sd.counts != nil {
		return sd.counts.expected(w, shard)
	}
	if sd.msgs > 0 {
		if last := (sd.msgs - 1) / sd.winSize; w == last {
			return sd.msgs - last*sd.winSize, true
		}
	}
	return sd.winSize, true
}

// ObserveReplicas records the (window, key, worker) state triple of
// every raw partial in a slab bound for shard `shard`, toward that
// shard's exact replication accounting: one lock for the whole slab.
// Partials with Worker < 0 (already combined) are skipped. dspe's shard
// roots call it on each received slab, reading each triple's worker
// from the partial the wire carried, BEFORE the combiner merges the
// worker identity away; the combined partials that later reach the
// driver carry Worker = CombinedWorker and are skipped by Merge's own
// observation, so each triple is counted through exactly one path.
// Thread-safe: it runs concurrently with the shard closing windows.
func (sd *ShardedDriver) ObserveReplicas(shard int, ps []Partial) {
	sd.drivers[shard].observeReplicas(ps)
}

// Merge splits a flushed slab by digest shard and folds each piece into
// its shard's driver (ascending shard order, slab order within a
// shard), closing any window slices the slab completed. For
// single-threaded engines; concurrent engines pre-split and call
// MergeShard from each shard's goroutine.
func (sd *ShardedDriver) Merge(ps []Partial, onFinal func(Final)) {
	if len(ps) == 0 {
		return
	}
	if len(sd.drivers) == 1 {
		sd.drivers[0].Merge(ps, onFinal)
		return
	}
	for r := range sd.bufs {
		sd.bufs[r] = sd.bufs[r][:0]
	}
	for i := range ps {
		r := ShardFor(ps[i].Digest, len(sd.drivers))
		sd.bufs[r] = append(sd.bufs[r], ps[i])
	}
	for r, buf := range sd.bufs {
		if len(buf) > 0 {
			sd.drivers[r].Merge(buf, onFinal)
		}
	}
}

// MergeShard folds a slab already filtered to shard r into that shard's
// driver. Safe to call concurrently across DISTINCT shards.
func (sd *ShardedDriver) MergeShard(r int, ps []Partial, onFinal func(Final)) {
	sd.drivers[r].Merge(ps, onFinal)
}

// Finish closes every remaining window on every shard (end of stream).
func (sd *ShardedDriver) Finish(onFinal func(Final)) {
	for _, d := range sd.drivers {
		d.Finish(onFinal)
	}
}

// FinishShard closes shard r's remaining windows (end of stream); the
// per-goroutine form of Finish.
func (sd *ShardedDriver) FinishShard(r int, onFinal func(Final)) {
	sd.drivers[r].Finish(onFinal)
}

// StatsShard returns shard r's cost counters.
func (sd *ShardedDriver) StatsShard(r int) ReducerStats { return sd.drivers[r].Stats() }

// LiveEntriesShard returns shard r's current live (window, key)
// entries. Safe to call concurrently with that shard's MergeShard —
// telemetry gauges poll it mid-run.
func (sd *ShardedDriver) LiveEntriesShard(r int) int64 { return sd.drivers[r].LiveEntries() }

// LiveWindowsShard returns shard r's currently open window count; same
// concurrency contract as LiveEntriesShard.
func (sd *ShardedDriver) LiveWindowsShard(r int) int64 { return sd.drivers[r].LiveWindows() }

// LiveReplicasShard returns the number of (window, key) identities on
// shard r currently holding a replica bitset. Thread-safe.
func (sd *ShardedDriver) LiveReplicasShard(r int) int { return sd.drivers[r].LiveReplicas() }

// LiveReplicas sums the live replica-bitset count across shards: the
// reduce stage's replica-accounting memory footprint. Thread-safe.
func (sd *ShardedDriver) LiveReplicas() int {
	n := 0
	for _, d := range sd.drivers {
		n += d.LiveReplicas()
	}
	return n
}

// Stats returns the reduce stage's cost counters summed across shards.
// PeakEntries is the sum of per-shard peaks (an upper bound on the
// stage's simultaneous memory: shards peak independently); PeakWindows
// is the max across shards (every shard sees the same windows).
func (sd *ShardedDriver) Stats() ReducerStats {
	var out ReducerStats
	for _, d := range sd.drivers {
		st := d.Stats()
		out.Partials += st.Partials
		out.Merges += st.Merges
		out.Finals += st.Finals
		out.WindowsClosed += st.WindowsClosed
		out.Late += st.Late
		out.PeakEntries += st.PeakEntries
		if st.PeakWindows > out.PeakWindows {
			out.PeakWindows = st.PeakWindows
		}
	}
	return out
}

// Replication returns the exact measured state replication factor over
// all shards: distinct (window, key, worker) triples per distinct
// (window, key). Keys partition across shards, so the shard totals add.
func (sd *ShardedDriver) Replication() float64 {
	var pairs int64
	var keys int
	for _, d := range sd.drivers {
		pairs += d.reps.Total()
		keys += d.reps.Keys()
	}
	if keys == 0 {
		return 0
	}
	return float64(pairs) / float64(keys)
}

// Total returns the sum of all final counts emitted so far.
func (sd *ShardedDriver) Total() int64 {
	var t int64
	for _, d := range sd.drivers {
		t += d.Total()
	}
	return t
}
