package core

import "godcr/internal/stats"

// Per-stage observability (see DESIGN.md §Observability). Each shard
// owns a stats.Tree and accumulates into pre-resolved timer handles —
// two clock reads and two atomic adds per span, no locks, nothing
// allocated in steady state — so the counters stay live in production
// and benchjson's stage columns read the same numbers /stats reports.
//
// The tree deliberately avoids nesting directly-timed spans: every
// timed leaf hangs under an untimed grouping node, so a Snapshot's
// rollup (self + descendants) never double-counts and the child-sum ≤
// parent invariant the property tests assert holds by construction.
//
//	run
//	├── attempt              one span per Execute/Resume attempt
//	├── checkpoint/cut       periodic + conviction checkpoint cuts
//	├── supervisor/recovery  classify + pick checkpoint + backoff
//	├── coarse/analysis      per-op group-level dependence analysis
//	├── fine/fence_wait      cross-shard fence + quiesce barriers
//	├── fine/analysis        per-op point planning on this shard
//	├── execute/point        task bodies (inside the CPU semaphore)
//	├── execute/pull_wire    blocking on remote pieces (pulled or pushed)
//	└── collective           FutureMap.Reduce gathers

// shardTimers is one shard's resolved timer handles.
type shardTimers struct {
	tree   *stats.Tree
	coarse *stats.Timer
	fence  *stats.Timer
	fineAn *stats.Timer
	point  *stats.Timer
	pull   *stats.Timer
	coll   *stats.Timer
}

func newShardTimers(enabled bool) *shardTimers {
	tree := stats.New("run")
	if !enabled {
		tree = stats.NewDisabled("run")
	}
	return &shardTimers{
		tree:   tree,
		coarse: tree.Timer("coarse/analysis"),
		fence:  tree.Timer("fine/fence_wait"),
		fineAn: tree.Timer("fine/analysis"),
		point:  tree.Timer("execute/point"),
		pull:   tree.Timer("execute/pull_wire"),
		coll:   tree.Timer("collective"),
	}
}

// runtimeTimers hold the runtime-level (not per-shard) spans: attempt
// boundaries, checkpoint cuts, supervisor recovery. Kept in a separate
// tree with the same root name so TimerSnapshot's merge unions them
// with the shard trees.
type runtimeTimers struct {
	tree     *stats.Tree
	attempt  *stats.Timer
	ckpt     *stats.Timer
	recovery *stats.Timer
}

func newRuntimeTimers(enabled bool) *runtimeTimers {
	tree := stats.New("run")
	if !enabled {
		tree = stats.NewDisabled("run")
	}
	return &runtimeTimers{
		tree:     tree,
		attempt:  tree.Timer("attempt"),
		ckpt:     tree.Timer("checkpoint/cut"),
		recovery: tree.Timer("supervisor/recovery"),
	}
}

// TimerSnapshot returns the job's merged per-stage timer tree: the sum
// of every shard's tree plus the runtime-level spans. Totals
// accumulate across attempts and are safe to read mid-run; on a
// multi-process backend each process reports its local shards only
// (merge the per-process snapshots with stats.Merge for the
// cluster-wide view).
func (rt *Runtime) TimerSnapshot() *stats.Snapshot {
	snaps := make([]*stats.Snapshot, 0, len(rt.timers)+1)
	snaps = append(snaps, rt.rtTimers.tree.Snapshot())
	for _, s := range rt.localShards {
		snaps = append(snaps, rt.timers[s].tree.Snapshot())
	}
	return stats.Merge(snaps...)
}

// ShardTimerSnapshot returns one shard's timer tree (nil for shards
// this process does not drive).
func (rt *Runtime) ShardTimerSnapshot(shard int) *stats.Snapshot {
	if shard < 0 || shard >= len(rt.timers) || rt.timers[shard] == nil {
		return nil
	}
	return rt.timers[shard].tree.Snapshot()
}
