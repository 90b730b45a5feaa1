// Package godcr is a task-based runtime for implicitly parallel
// programs whose dependence analysis scales via dynamic control
// replication (DCR), reproducing "Scaling Implicit Parallelism via
// Dynamic Control Replication" (Bauer et al., PPoPP 2021).
//
// A program is an apparently sequential function that creates logical
// regions, partitions them, and launches tasks over index domains. The
// runtime executes N replicated copies of that function — one shard
// per node of a (simulated) cluster — which cooperatively discover the
// task graph: each shard analyzes every *task group* at coarse
// granularity but only its own point tasks at fine granularity,
// inserting O(log N) cross-shard fences only where a symbolic proof
// cannot show dependences are shard-local.
//
// Quick start:
//
//	rt := godcr.NewRuntime(godcr.Config{Shards: 4})
//	defer rt.Shutdown()
//	rt.RegisterTask("scale", func(tc *godcr.TaskContext) (float64, error) {
//		x := tc.Region(0).Field("x")
//		x.Rect().Each(func(p godcr.Point) bool { x.Set(p, x.At(p)*2); return true })
//		return 0, nil
//	})
//	err := rt.Execute(func(ctx *godcr.Context) error {
//		cells := ctx.CreateRegion(godcr.R1(0, 1023), "x")
//		tiles := ctx.PartitionEqual(cells, 4)
//		ctx.Fill(cells, "x", 1)
//		ctx.IndexLaunch(godcr.Launch{
//			Task: "scale", Domain: godcr.R1(0, 3),
//			Reqs: []godcr.RegionReq{{Part: tiles, Priv: godcr.ReadWrite, Fields: []string{"x"}}},
//		})
//		return nil
//	})
//
// This package is a thin facade over the implementation packages; see
// internal/core for the runtime, internal/region for the data model,
// and DESIGN.md for the system inventory.
package godcr

import (
	"godcr/internal/cluster"
	"godcr/internal/core"
	"godcr/internal/geom"
	"godcr/internal/instance"
	"godcr/internal/mapper"
	"godcr/internal/region"
	"godcr/internal/rng"
	"godcr/internal/stats"
)

// Core runtime types.
type (
	// Runtime is a DCR runtime bound to a simulated cluster.
	Runtime = core.Runtime
	// Config configures a Runtime.
	Config = core.Config
	// Context is a shard's replicated view of the program.
	Context = core.Context
	// Program is a control-replicated top-level task body.
	Program = core.Program
	// Launch describes a task launch.
	Launch = core.Launch
	// RegionReq is one region requirement of a launch.
	RegionReq = core.RegionReq
	// Privilege declares how a requirement's data is used.
	Privilege = core.Privilege
	// TaskFn is a task body.
	TaskFn = core.TaskFn
	// TaskContext is the world a task body sees.
	TaskContext = core.TaskContext
	// PhysRegion is a mapped region requirement.
	PhysRegion = core.PhysRegion
	// Accessor reads/writes one field with privilege checks.
	Accessor = core.Accessor
	// Future is a task's scalar result, resolved on all shards.
	Future = core.Future
	// FutureMap holds an index launch's per-point results.
	FutureMap = core.FutureMap
	// Stats aggregates runtime counters.
	Stats = core.Stats
	// FenceRecord is one coarse-analysis decision (introspection).
	FenceRecord = core.FenceRecord
	// FenceInfo describes one inserted cross-shard fence.
	FenceInfo = core.FenceInfo
	// Mapper supplies per-launch policy defaults (the paper's
	// mapping-interface extensions, §4).
	Mapper = core.Mapper
	// DefaultMapper replicates control and shards cyclically.
	DefaultMapper = core.DefaultMapper
	// TiledMapper shards every launch in contiguous blocks.
	TiledMapper = core.TiledMapper
	// MapperFunc adapts a sharding-selection function into a Mapper.
	MapperFunc = core.MapperFunc
)

// Privileges.
const (
	ReadOnly     = core.ReadOnly
	ReadWrite    = core.ReadWrite
	WriteDiscard = core.WriteDiscard
	Reduce       = core.Reduce
)

// Geometry.
type (
	// Point is an integer point in up to 3 dimensions.
	Point = geom.Point
	// Rect is a dense box with inclusive bounds.
	Rect = geom.Rect
)

// Geometry constructors.
var (
	Pt1 = geom.Pt1
	Pt2 = geom.Pt2
	Pt3 = geom.Pt3
	R1  = geom.R1
	R2  = geom.R2
	R3  = geom.R3
)

// Data model.
type (
	// Region is a logical region (a node of a region tree).
	Region = region.Region
	// Partition divides a region into colored subregions.
	Partition = region.Partition
	// Projection maps launch points to subregion colors.
	Projection = region.Projection
	// OffsetProjection shifts colors by a delta (neighbor exchange).
	OffsetProjection = region.OffsetProjection
	// FuncProjection wraps a pure function as a projection.
	FuncProjection = region.FuncProjection
)

// Identity is the identity projection.
var Identity = region.Identity

// Sharding functors.
type (
	// ShardingFunctor assigns launch points to shards.
	ShardingFunctor = mapper.ShardingFunctor
	// FuncSharding wraps a pure function as a sharding functor.
	FuncSharding = mapper.FuncSharding
)

// Built-in sharding functors.
var (
	// Cyclic round-robins points over shards (paper's functor 0).
	Cyclic = mapper.Cyclic
	// Tiled assigns contiguous blocks of points to shards.
	Tiled = mapper.Tiled
)

// ReduceOp identifies a commutative reduction operator.
type ReduceOp = instance.ReduceOp

// Reduction operators.
const (
	ReduceAdd = instance.ReduceAdd
	ReduceMul = instance.ReduceMul
	ReduceMin = instance.ReduceMin
	ReduceMax = instance.ReduceMax
)

// Fault injection and resilience (see DESIGN.md §4).
type (
	// FaultPlan seeds deterministic transport-fault injection
	// (drop, duplication, reordering, latency jitter, stall/crash
	// windows) for chaos testing. Set it on Config.Faults.
	FaultPlan = cluster.FaultPlan
	// StallWindow freezes or crashes one node's transport after a
	// trigger count of sends.
	StallWindow = cluster.StallWindow
	// PartitionWindow severs one (possibly one-way) link for a window:
	// traffic on it silently vanishes until the window heals. Set on
	// FaultPlan.Partitions; windows deliberately survive revivals — a
	// partition is a property of the network, not of an endpoint.
	PartitionWindow = cluster.PartitionWindow
	// NodeID names a cluster node (== shard id).
	NodeID = cluster.NodeID
	// TransportStats counts messages, bytes, and injected faults.
	TransportStats = cluster.Stats
	// StallError is the deadlock watchdog's verdict: no cross-shard
	// progress for Config.OpDeadline, with a per-shard snapshot.
	StallError = core.StallError
	// ShardProgress is one shard's entry in a StallError snapshot.
	ShardProgress = core.ShardProgress
	// Checkpoint is the replayable control state the watchdog snapshots
	// when Config.Journal is on: pass StallError.Checkpoint (or its
	// decoded wire image) to Runtime.Resume to restart a stalled run.
	Checkpoint = core.Checkpoint
	// RegionVersion is one entry of a checkpoint's version vector.
	RegionVersion = core.RegionVersion
	// Journal is the replayable control journal carried by a Checkpoint.
	Journal = core.Journal
	// ShardDownError is the heartbeat failure detector's verdict: a
	// majority of a shard's peers accrued suspicion past the phi
	// threshold (enable with Config.HeartbeatEvery).
	ShardDownError = cluster.ShardDownError
	// DivergenceError localizes a control-determinism violation: the
	// all-gather vote's culprit shard, the first divergent op index,
	// and the majority/minority digests at that op.
	DivergenceError = core.DivergenceError
	// SupervisorPolicy tunes Runtime.RunSupervised's restart loop.
	SupervisorPolicy = core.SupervisorPolicy
	// SupervisorEvent observes one supervised restart (OnEvent).
	SupervisorEvent = core.SupervisorEvent
	// SupervisorError is RunSupervised's permanent-failure verdict,
	// carrying every failed attempt.
	SupervisorError = core.SupervisorError
	// AttemptFailure is one failed attempt in a SupervisorError.
	AttemptFailure = core.AttemptFailure
)

// Checkpoint codec: DecodeCheckpoint parses Checkpoint.Encode output
// (the persistable recovery image), DecodeJournal parses Journal.Encode
// output. Both reject arbitrary input without panicking.
var (
	DecodeCheckpoint = core.DecodeCheckpoint
	DecodeJournal    = core.DecodeJournal
)

// Checkpoint spill (Config.CheckpointDir): WriteCheckpointFile
// atomically appends a CRC-sealed checkpoint generation, LoadCheckpoint
// reads back the freshest generation that verifies ((nil, nil) when none
// exists), falling back through older generations when the newest is
// corrupt. RunSupervised resumes from the spilled cut automatically in a
// fresh process. CorruptCheckpointFile flips one seeded bit in the
// newest generation — the chaos hook for exercising the fallback.
var (
	WriteCheckpointFile   = core.WriteCheckpointFile
	LoadCheckpoint        = core.LoadCheckpoint
	CorruptCheckpointFile = core.CorruptCheckpointFile
)

// DefaultCheckpointKeep is the generation-chain depth when
// Config.CheckpointKeep is unset.
const DefaultCheckpointKeep = core.DefaultCheckpointKeep

// Transport layer (see DESIGN.md §Transport). A Transport moves opaque
// frames between cluster nodes; everything above the seam — tag
// matching, reliable delivery, fault injection, heartbeats, collectives
// — is backend-agnostic. Set Config.Transport to place shards in
// separate OS processes; leave it nil for the in-process backend.
type (
	// Transport is the pluggable delivery backend.
	Transport = cluster.Transport
	// Frame is the unit a Transport moves (tagged, epoch-stamped).
	Frame = cluster.Frame
	// WireStats counts frames, bytes, and reconnects on a backend.
	WireStats = cluster.WireStats
	// MemTransport is the in-process loopback backend.
	MemTransport = cluster.MemTransport
	// TCPTransport connects peer processes over length-prefixed TCP.
	TCPTransport = cluster.TCPTransport
	// TCPOptions configures a TCPTransport endpoint.
	TCPOptions = cluster.TCPOptions
)

// The wire codec is a hand-rolled zero-alloc binary encoding of the
// runtime's hot payload types (pull requests and responses, future
// values, collective scalars, centralized task envelopes), used on the
// TCP wire and under Config.WireEncode; unregistered types
// transparently fall back to gob.
var (
	// RegisterBinaryPayload gives a custom payload type a binary fast
	// path (call from init; see cluster.RegisterBinaryPayload).
	RegisterBinaryPayload = cluster.RegisterBinaryPayload
)

// Transport constructors.
var (
	// NewMemTransport builds the in-process backend (what Config
	// defaults to when Transport is nil).
	NewMemTransport = cluster.NewMemTransport
	// NewTCPTransport builds one endpoint of a multi-process cluster;
	// Addrs[i] is node i's listen address, Self this process's id.
	NewTCPTransport = cluster.NewTCPTransport
	// ErrReviveTimeout reports that a recovery's revive barrier expired
	// before every peer process acknowledged the new epoch
	// (TCPOptions.ReviveTimeout). RunSupervised retries it — by the next
	// attempt the process supervisor has usually respawned the dead
	// worker and the barrier completes.
	ErrReviveTimeout = cluster.ErrReviveTimeout
)

// RNG is the replicable counter-based random stream (Philox4x32-10).
type RNG = rng.Source

// Observability (see DESIGN.md §Observability). Every runtime keeps a
// per-stage hierarchical timer tree — coarse analysis, fence waits,
// fine analysis, point execution, wire waits, collectives, attempt and
// checkpoint boundaries — accumulated with per-shard atomics (disable
// with Config.DisableTimers). Runtime.TimerSnapshot returns the merged
// tree; godcr-node's -stats HTTP endpoint serves the same data live.
type (
	// TimerSnapshot is an immutable view of a timer (sub)tree:
	// totals, counts, and averages per stage, renderable as an
	// indented tree, CSV, or JSON.
	TimerSnapshot = stats.Snapshot
	// LinkStats counts frames/bytes sent toward one shard.
	LinkStats = cluster.LinkStats
)

// MergeTimerSnapshots sums timer trees — use it to combine the
// per-process snapshots of a multi-process run into the cluster-wide
// view.
func MergeTimerSnapshots(snaps ...*TimerSnapshot) *TimerSnapshot {
	return stats.Merge(snaps...)
}

// Job plane (see DESIGN.md §Job plane). A Host is the resident half of
// a split runtime — the cluster handle, task registry, and failure
// detector that survive across programs — and each Host.NewJob returns
// an isolated Runtime multiplexed over the host's shard pool: its wire
// traffic, collectives, checkpoints, and supervision can never touch
// another job's. NewRuntime remains the single-job shim over a one-job
// host.
type Host = core.Host

// NewHost creates a resident multi-job host; submit programs with
// Host.NewJob.
func NewHost(cfg Config) *Host { return core.NewHost(cfg) }

// ErrProgramBusy is returned by Execute/Resume when the job already has
// an attempt in flight — run more programs concurrently by submitting
// more jobs to the host.
var ErrProgramBusy = core.ErrProgramBusy

// NewRuntime creates a runtime on a fresh simulated cluster.
func NewRuntime(cfg Config) *Runtime { return core.NewRuntime(cfg) }

// NewRNG returns a counter-based random source with the given seed;
// identical seeds give identical streams on every shard.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }
