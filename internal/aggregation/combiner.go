package aggregation

// combiner.go implements the combiner that pre-merges the partials
// bound for one reducer shard BEFORE the shard's driver merges them.
// Several bolts each hold a partial for the same (window, key); folding
// them through the same pluggable Merger the reducer would use
// collapses that replication to one partial per (window, key) — the
// reduce stage's merge traffic drops from the replication factor to 1,
// which the AggShards sweeps identified as the scaling wall.
//
// Pre-merging is exact because the Merger contract is a commutative,
// associative fold: combining partials in the combiner and then at the
// reducer yields bit-identical finals to combining them all at the
// reducer (Count/Sum are integer sums, Min/Max comparisons, Distinct a
// register-wise max — all exactly associative).
//
// Two bookkeeping invariants survive the pre-merge:
//
//   - Completeness: partials carry message counts and the fold adds
//     them, so a combined partial stands for exactly the messages of
//     its constituents; window close thresholds are unaffected.
//   - Replication accounting: merging erases worker identity, so a
//     combined partial carries Worker = CombinedWorker and is skipped
//     by the Driver's replica observation. The engine instead observes
//     each ORIGINAL (window, key, worker) triple before the partial is
//     merged — on receipt at the shard root
//     (ShardedDriver.ObserveReplicas) — so measured replication factors
//     equal those of merging every raw partial.
//
// CombineTable is the plain fold (opportunistic merge, no completeness
// knowledge); Combiner is the per-shard root built on it, which also
// buffers to window completeness so the shard's driver receives each
// (window, key) exactly once and closes the window on receipt.

// CombinedWorker marks a partial produced by pre-merging partials of
// several workers: its worker identity is gone, and the Driver must not
// (and does not) count it toward state replication — the engines
// observed the constituent triples via ObserveReplicas before merging.
const CombinedWorker int32 = -1

// CombineTable merges partials by (window, key digest) through a merge
// operator: the fold under Combiner. It knows nothing of
// completeness — callers fold whatever partials they have drained and
// flush the merged survivors downstream whenever they choose. Not safe
// for concurrent use; each tree node owns one.
type CombineTable struct {
	m    Merger
	pool tablePool
	in   int64
	out  int64
}

// NewCombineTable returns an empty combine table folding partial values
// with m (nil means CountMerger).
func NewCombineTable(m Merger) *CombineTable {
	if m == nil {
		m = CountMerger
	}
	return &CombineTable{m: m, pool: newTablePool()}
}

// Fold merges one partial into the table.
func (ct *CombineTable) Fold(p *Partial) {
	t, _ := ct.pool.get(p.Window)
	ct.m.Combine(&t.add(p.Digest, p.Key, p.Count).val, p.Val)
	ct.in++
}

// Len returns the live (window, key) entries currently held.
func (ct *CombineTable) Len() int { return ct.pool.entries() }

// FlushBefore appends every held (window, key) entry of windows below
// `before` to dst as ONE combined partial each (Worker =
// CombinedWorker), recycles those windows' tables, and returns the
// extended slice. Ascending window order, unspecified key order within
// a window. Flushing a window the node will see more partials for is
// harmless — the stragglers just form a second combined partial, which
// downstream merges like any other.
func (ct *CombineTable) FlushBefore(before int64, dst []Partial) []Partial {
	if len(ct.pool.open) == 0 {
		return dst
	}
	for _, w := range ct.pool.sortedBelow(before) {
		dst = ct.flushWindow(w, dst)
	}
	return dst
}

// FlushAll flushes every held window (end of stream).
func (ct *CombineTable) FlushAll(dst []Partial) []Partial {
	return ct.FlushBefore(1<<62, dst)
}

func (ct *CombineTable) flushWindow(w int64, dst []Partial) []Partial {
	t := ct.pool.open[w]
	for i := range t.slots {
		if t.slots[i].count == 0 {
			continue
		}
		dst = append(dst, Partial{
			Window: w,
			Digest: t.slots[i].dig,
			Key:    t.slots[i].key,
			Count:  t.slots[i].count,
			Val:    t.slots[i].val,
			Worker: CombinedWorker,
		})
	}
	ct.out += int64(t.used)
	ct.pool.recycle(w)
	return dst
}

// In returns the number of partials folded in so far; Out the number of
// combined partials emitted. In − Out (once drained) is the merge
// traffic the node absorbed.
func (ct *CombineTable) In() int64  { return ct.in }
func (ct *CombineTable) Out() int64 { return ct.out }

// Combiner is the ROOT node of one shard's combiner tree: it merges the
// shard's partial stream like a CombineTable but additionally knows the
// shard's per-window completeness thresholds, so it can hold a window's
// merged partials until the window is provably complete and hand the
// shard's Driver the whole window in one slab — the driver closes it on
// receipt, and the shard hop carries exactly one partial per
// (window, key). The caller must run Fold/FlushComplete/Finish from the
// single goroutine that owns the shard (the same one that would call
// MergeShard), because the flush path drives the driver directly.
type Combiner struct {
	ct      CombineTable
	sd      *ShardedDriver
	shard   int
	scratch []Partial
}

// NewCombiner returns the combiner-tree root for shard `shard` of sd.
func NewCombiner(sd *ShardedDriver, shard int) *Combiner {
	return &Combiner{ct: *NewCombineTable(sd.merger()), sd: sd, shard: shard}
}

// Fold merges one partial (raw from a bolt, or pre-combined by an
// interior node) into the root's tables.
func (c *Combiner) Fold(p *Partial) { c.ct.Fold(p) }

// FlushComplete hands every COMPLETE held window to the shard's driver
// (one combined partial per key, one slab per window) and recycles its
// table; the driver closes each window on receipt, emitting finals
// through onFinal. Incomplete windows stay buffered. Call after each
// drain sweep.
func (c *Combiner) FlushComplete(onFinal func(Final)) {
	if len(c.ct.pool.open) == 0 {
		return
	}
	for _, w := range c.ct.pool.sortedBelow(1 << 62) {
		exp, final := c.sd.expectedFor(w, c.shard)
		if !final || c.ct.pool.open[w].sum < exp {
			continue
		}
		c.scratch = c.ct.flushWindow(w, c.scratch[:0])
		c.sd.MergeShard(c.shard, c.scratch, onFinal)
	}
}

// Finish flushes every held window — complete or not (end of stream:
// the final window holds the remainder) — into the driver and closes
// the shard (FinishShard).
func (c *Combiner) Finish(onFinal func(Final)) {
	c.scratch = c.ct.FlushAll(c.scratch[:0])
	if len(c.scratch) > 0 {
		c.sd.MergeShard(c.shard, c.scratch, onFinal)
	}
	c.sd.FinishShard(c.shard, onFinal)
}

// In returns the partials folded into the root so far; Out the combined
// partials handed to the driver.
func (c *Combiner) In() int64  { return c.ct.In() }
func (c *Combiner) Out() int64 { return c.ct.Out() }
