// Package core implements dynamic control replication (DCR), the
// contribution of "Scaling Implicit Parallelism via Dynamic Control
// Replication" (PPoPP'21): a task-based runtime whose top-level task
// executes as N replicated shards, one per node, that cooperatively
// perform the dynamic dependence analysis of the implicitly parallel
// program they all run.
//
// Each shard runs a three-stage pipeline:
//
//	application thread  →  coarse stage  →  fine stage  →  executor
//
// The application thread is the user's program: an apparently
// sequential function that creates regions and launches tasks. Every
// API call is hashed for the control-determinism check (§3) and
// enqueued. The coarse stage (§4.1) analyzes *task groups* without
// enumerating their points, discovers group-level dependences from an
// upper-bound directory, and promotes cross-shard dependences to
// fences unless a symbolic proof shows every point dependence is
// shard-local. The fine stage analyzes only the points the sharding
// functor assigns to this shard, resolves their data sources from a
// per-field write-index directory, and hands them to an executor that
// runs them as dataflow on completion events, pulling versioned field
// data from producer nodes.
//
// The collective fabric (§4.2), tracing (§5.5), file attach (§4.3),
// and the determinism checker are implemented in sibling files.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"godcr/internal/cluster"
	"godcr/internal/collective"
	"godcr/internal/event"
	"godcr/internal/mapper"
)

// TaskFn is the body of a task. It may only touch the data exposed by
// its TaskContext; the scalar return value feeds the launch's Future
// or FutureMap.
type TaskFn func(tc *TaskContext) (float64, error)

// Config configures a Runtime.
type Config struct {
	// Shards is the number of control-replicated shards (== nodes).
	Shards int
	// CPUsPerShard bounds concurrently *executing* point tasks per
	// node (task-assembly I/O is not bounded). Default 4.
	CPUsPerShard int
	// Latency is the injected one-way network latency.
	Latency time.Duration
	// WireEncode forces payloads through the binary wire codec even on
	// the in-process backend (strict distribution): the same encodings
	// the TCP backend puts on the wire.
	WireEncode bool
	// SafetyChecks enables the control-determinism verification
	// (paper §3). Fig. 21's "Safe" configurations.
	SafetyChecks bool
	// CheckInterval is the number of API calls between asynchronous
	// determinism checks. Default 64.
	CheckInterval int
	// DisableFences skips cross-shard fence execution (the fences
	// are still computed for introspection). Used by the ablation
	// benchmarks; unsafe only for programs that need analysis
	// ordering for side effects.
	DisableFences bool
	// Seed seeds the replicated random stream handed to programs.
	Seed uint64
	// Centralized disables control replication entirely: shard 0
	// becomes a classic control node that performs the whole
	// dependence analysis and ships tasks to workers — the paper's
	// "No Control Replication" baseline and the cost model of
	// lazy-evaluation systems (Dask, TensorFlow).
	Centralized bool
	// Mapper supplies per-launch policy defaults (paper §4's mapping
	// interface); nil selects DefaultMapper. Explicit Launch fields
	// always win over mapper choices, and Config.Centralized wins
	// over Mapper.ReplicateControl.
	Mapper Mapper
	// Faults injects transport faults (drop, duplication, reordering,
	// jitter, node stall/crash) for chaos testing; nil keeps the
	// perfect-network fast path. Requires replicated control.
	Faults *cluster.FaultPlan
	// OpDeadline arms the deadlock watchdog: if no shard makes any
	// progress for this long while at least one is blocked in a
	// receive, Execute fails with a *StallError carrying a per-shard
	// diagnostic snapshot instead of hanging. 0 disables the watchdog.
	OpDeadline time.Duration
	// Journal enables the replayable control journal: the runtime
	// records the deterministic op sequence (with per-op control
	// digests, fence decisions, and written regions) as it executes,
	// and a watchdog StallError carries a Checkpoint that Resume can
	// restart the run from. Cheap (one append per op on one shard);
	// off by default.
	Journal bool
	// CheckpointEvery cuts a Checkpoint every that many journaled ops
	// during healthy execution (not only on stall), so a recovery
	// replays a bounded journal suffix. Implies Journal. 0 disables
	// op-count checkpointing.
	CheckpointEvery int
	// CheckpointInterval additionally cuts checkpoints on a wall-clock
	// timer. Implies Journal. 0 disables timed checkpointing.
	CheckpointInterval time.Duration
	// HeartbeatEvery arms the per-shard heartbeat failure detector:
	// every node beats every peer at this interval and a phi-accrual
	// suspicion vote declares a silent shard down in O(interval),
	// surfacing a *cluster.ShardDownError long before the watchdog's
	// global stall deadline. 0 disables the detector.
	HeartbeatEvery time.Duration
	// HeartbeatPhi is the detector's suspicion threshold (default 8).
	HeartbeatPhi float64
	// Transport selects the cluster backend the runtime runs on; nil
	// selects the in-process backend (every shard local, the historical
	// behavior). With a remote backend (cluster.TCPTransport) this
	// process runs only the transport's local shards; the remaining
	// shards must be driven by peer processes over the same address
	// list (see cmd/godcr-node). The runtime owns the transport:
	// Shutdown closes it.
	Transport cluster.Transport
	// PartialRestart lets the supervisor recover a single-shard failure
	// without rolling back the survivors: the failed shard alone
	// re-executes its gap from the checkpoint while survivors replay-skip
	// from retained state and re-serve pulls, futures, and journaled
	// reduction results (see partial.go). Requires the journal and
	// replicated control; must be set uniformly across the processes of a
	// multi-process run. Any failure class that does not name a
	// recoverable shard-local cause — and any second failure during
	// catch-up — falls back to the full restart path.
	PartialRestart bool
	// PartialRetainLimit bounds the per-shard replay buffer: a survivor
	// whose store holds more versions than this at the attempt boundary
	// retains nothing and rejoins as if it had failed (replay-buffer
	// overflow degrades toward full restart, never blocks recovery).
	// Default 1<<20 versions.
	PartialRetainLimit int
	// CheckpointDir, when set, spills every periodic checkpoint cut to
	// <dir>/checkpoint-<seq>.dcrc (atomically: temp file + rename, using
	// the process-portable Checkpoint codec plus a CRC32C trailer).
	// LoadCheckpoint reads back the newest generation that verifies, and
	// RunSupervised starts by resuming from it when one exists — so
	// whole-process crashes recover, not just transport ones, and a
	// corrupted spill falls back to the previous generation instead of
	// ending the run.
	CheckpointDir string
	// CheckpointKeep bounds the generation chain in CheckpointDir: each
	// spill writes a new numbered file and garbage-collects all but the
	// newest CheckpointKeep generations. Default 3.
	CheckpointKeep int
	// DisableTimers turns off the per-stage timer tree (timers.go). The
	// timers cost two clock reads and two atomic adds per span and are
	// on by default — benchjson gates their overhead below 2% — so this
	// exists for the overhead benchmark itself and for callers who want
	// the hot path clock-free.
	DisableTimers bool
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 && c.Transport != nil {
		c.Shards = c.Transport.Size()
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.CPUsPerShard <= 0 {
		c.CPUsPerShard = 4
	}
	if c.CheckInterval <= 0 {
		c.CheckInterval = 64
	}
	if c.Mapper == nil {
		c.Mapper = DefaultMapper{}
	}
	if c.CheckpointEvery > 0 || c.CheckpointInterval > 0 {
		c.Journal = true
	}
	if c.CheckpointKeep <= 0 {
		c.CheckpointKeep = DefaultCheckpointKeep
	}
	if !c.Centralized && !c.Mapper.ReplicateControl() {
		c.Centralized = true
	}
	return c
}

// Stats aggregates runtime counters across all shards.
type Stats struct {
	// Ops is the number of operations analyzed per shard.
	Ops uint64
	// FencesInserted and FencesElided count coarse-stage decisions
	// (summed over shards; every shard makes the same decisions).
	FencesInserted uint64
	FencesElided   uint64
	// PointTasks counts executed point tasks (cluster-wide).
	PointTasks uint64
	// RemotePulls counts cross-node data fetches through the demand
	// pull protocol (request + reply).
	RemotePulls uint64
	// RemotePushes counts cross-node data transfers shipped
	// proactively by the producer (no request leg; see planmemo.go).
	RemotePushes uint64
	// LocalResolves counts data sources satisfied locally.
	LocalResolves uint64
	// TraceReplays counts operations whose analysis was skipped by
	// trace replay.
	TraceReplays uint64
	// DeterminismChecks counts completed hash comparisons.
	DeterminismChecks uint64
	// JournalReplays counts operations whose coarse analysis was
	// fast-forwarded from the journal during Resume (summed over
	// shards).
	JournalReplays uint64
	// VersionsDropped counts store versions reclaimed by fence-point
	// garbage collection (summed over shards).
	VersionsDropped uint64
	// PartialRestarts / FullRestarts count resumed attempts by the
	// restart scope the cluster agreed on (see Config.PartialRestart).
	PartialRestarts uint64
	FullRestarts    uint64
	// ReplaySkips counts point tasks survivors resolved from retained
	// state instead of re-executing during partial-restart replay.
	ReplaySkips uint64
	// ScalarServes counts journaled reduction results this process
	// re-served to rejoining peers.
	ScalarServes uint64
	// Messages/Bytes are transport counters.
	Messages uint64
	Bytes    uint64
}

// Runtime is one job's program state over a resident Host (see
// host.go): everything per-attempt or per-run lives here, while the
// cluster, transport, and task registry are the host's and shared by
// every job. NewRuntime builds a one-job host and returns its legacy
// job 0, preserving the historical single-program API.
type Runtime struct {
	// host is the resident half; cfg/clust/tasks/memo/localShards
	// mirror the host's so the pipeline reads them without a hop (cfg
	// is a per-job copy — jobs specialize CheckpointDir).
	host  *Host
	cfg   Config
	clust *cluster.Cluster
	tasks map[string]TaskFn
	memo  *mapper.Memo

	// jobID names this job's wire namespace; 0 is the legacy single-job
	// namespace (identity tag mix, cluster-scoped interrupts). jc is
	// the job's control block (nil for job 0), and nodes caches the
	// per-shard node views in the job's namespace.
	jobID uint64
	jc    *cluster.JobCtl
	nodes []*cluster.Node

	stats struct {
		ops            atomic.Uint64
		fencesIn       atomic.Uint64
		fencesOut      atomic.Uint64
		points         atomic.Uint64
		remotePulls    atomic.Uint64
		remotePushes   atomic.Uint64
		localRes       atomic.Uint64
		replays        atomic.Uint64
		detChecks      atomic.Uint64
		gcDropped      atomic.Uint64
		journalReplays atomic.Uint64
		partialRuns    atomic.Uint64
		fullRuns       atomic.Uint64
		replaySkips    atomic.Uint64
		scalarServes   atomic.Uint64
	}

	// run is the current attempt's abort state. It is replaced wholesale
	// by Resume: stragglers from a failed attempt keep their (closed)
	// abort channel while the new attempt starts from a clean one.
	run atomic.Pointer[runState]

	// planMemo is the current attempt's shared full-domain plan cache
	// and push-tag allocator (planmemo.go); replaced at every attempt
	// boundary.
	planMemo atomic.Pointer[planMemo]

	// attempt counts Execute/Resume attempts; it salts per-attempt wire
	// tags (future pushes, pull replies, collective spaces) so traffic
	// from an aborted attempt can never be mistaken for the current
	// one's after the transport is revived.
	attempt atomic.Uint64

	// salt is the tag/collective salt in force for the current attempt.
	// On an all-local backend it is the attempt counter. On a remote
	// backend it is derived from the transport epoch agreed at the
	// attempt boundary (SyncEpoch): local attempt counts diverge across
	// processes — a respawned worker starts its counter at zero, and a
	// survivor may burn extra attempts on revive-barrier timeouts — but
	// the epoch is rendezvoused cluster-wide, so every process salts
	// identically.
	salt atomic.Uint64

	// journal is the current attempt's control journal (nil unless
	// cfg.Journal); set before shards start, read-only afterwards.
	journal *Journal

	// lastCP is the freshest periodic checkpoint of the current attempt
	// (nil before the first cut). Reset at every attempt boundary so a
	// checkpoint cut from a failed attempt's journal cannot leak into
	// the next one.
	lastCP atomic.Pointer[Checkpoint]

	// divVerdicts holds, per shard, the divergence-localization verdict
	// of the current attempt's determinism checker (nil when no
	// divergence was localized). Every surviving shard records the same
	// verdict; tests assert it.
	divVerdicts []atomic.Pointer[DivergenceError]

	// testPerturb, when non-nil, corrupts the control digest of a shard
	// at a chosen op (test hook for divergence injection): a nonzero
	// return value is folded into the shard's digest before op seq's
	// snapshot.
	testPerturb func(shard int, seq uint64) uint64

	// finalCtl is shard 0's control digest at the end of the last
	// completed run (see ControlHash).
	finalCtl atomic.Value // [2]uint64

	progress []*shardProgress // per-shard counters sampled by the watchdog

	// partial is the cross-attempt partial-restart state (replay
	// buffers, conviction, eligibility latches); lastPlan is the restart
	// scope the cluster agreed on for the current resumed attempt (nil
	// for fresh runs).
	partial  partialState
	lastPlan atomic.Pointer[partialPlan]

	// lastEpoch is the transport epoch the most recent attempt ran in.
	// A resume compares it with the cluster's current epoch to decide
	// between minting a recovery epoch (Revive — the epoch has not
	// moved, this process leads the wave) and adopting one a peer
	// already minted (Rejoin — resuming into it instead of superseding
	// it keeps a cluster-wide failure wave convergent).
	lastEpoch atomic.Uint64

	// localShards lists the shard ids this process drives, ascending;
	// every id on the in-process backend, a subset on a remote one.
	localShards []int

	// timers[s] is shard s's per-stage timer tree (nil for shards
	// driven by peer processes); rtTimers holds the runtime-level spans
	// (attempt, checkpoint cut, supervisor recovery). See timers.go.
	timers   []*shardTimers
	rtTimers *runtimeTimers

	// spillErr records the most recent checkpoint-spill failure
	// (Config.CheckpointDir); spilling is best-effort and must never
	// fail the run.
	spillErr atomic.Pointer[spillErrBox]
	// ckptLoadErr records the most recent spilled-checkpoint load
	// failure (generation files existed but none verified); recovery
	// degrades to the in-memory cut or a cold start and the supervisor
	// surfaces the degradation in its attempt history.
	ckptLoadErr atomic.Pointer[spillErrBox]

	flog fenceLog

	executing atomic.Bool
}

// runState is one attempt's abort machinery.
type runState struct {
	errOnce sync.Once
	err     atomic.Value // error
	aborted atomic.Bool
	abortCh chan struct{} // closed by abort: the cross-shard abort broadcast
	// votes tracks the determinism checker's watcher goroutines (which
	// may end in a divergence-localization vote); execute joins them so
	// a verdict landing after the shards unwind is not lost.
	votes sync.WaitGroup
}

func newRunState() *runState { return &runState{abortCh: make(chan struct{})} }

// NewRuntime creates a runtime on a fresh simulated cluster: a thin
// shim that builds a one-job Host and returns its legacy job 0. The
// runtime owns the host — Shutdown closes the cluster.
func NewRuntime(cfg Config) *Runtime {
	h := NewHost(cfg)
	rt := h.newRuntime(0, h.cfg, nil)
	h.mu.Lock()
	h.jobs[0] = rt
	h.mu.Unlock()
	return rt
}

// Host returns the resident host this runtime runs on. For a
// NewRuntime shim that is its private one-job host; submit more jobs
// to it with Host().NewJob.
func (rt *Runtime) Host() *Host { return rt.host }

// JobID returns the job's wire-namespace id (0 for the legacy shim).
func (rt *Runtime) JobID() uint64 { return rt.jobID }

// node returns the shard's endpoint in this job's namespace.
func (rt *Runtime) node(shard int) *cluster.Node { return rt.nodes[shard] }

// RegisterTask registers a task body under a name. All registrations
// must happen before Execute. The registry is the host's: tasks are
// shared by every job on it.
func (rt *Runtime) RegisterTask(name string, fn TaskFn) {
	if rt.executing.Load() {
		panic("core: RegisterTask during Execute")
	}
	rt.host.RegisterTask(name, fn)
}

// Shutdown releases the runtime. The legacy job 0 owns its host and
// closes the cluster; a scoped job (Host.NewJob) only deregisters and
// poisons its own namespace — the host stays up for other jobs.
func (rt *Runtime) Shutdown() {
	if rt.jobID == 0 {
		rt.clust.Close()
		return
	}
	rt.host.closeJob(rt)
}

// remote reports whether this process drives only a subset of the
// shards — i.e. the runtime sits on a multi-process transport and peer
// processes drive the rest.
func (rt *Runtime) remote() bool { return len(rt.localShards) != rt.cfg.Shards }

// AnnounceRebirth interrupts the whole cluster so every process
// abandons its in-flight attempt and rendezvouses in a fresh epoch. A
// process supervisor calls it in a respawned worker before
// RunSupervised: a live attempt cannot absorb a newcomer mid-flight —
// collective call counters align only when every shard enters the
// attempt together — so rebirth forces a cluster-wide restart, after
// which every process resumes from its freshest checkpoint and the
// replay converges bit-identically. Harmless when no attempt is live.
func (rt *Runtime) AnnounceRebirth() {
	// Wrapping ErrInterrupted matters: the announcing process's own
	// first attempt fails with this very error (its cluster is poisoned
	// too), and the supervisor must classify that as recoverable so the
	// reborn joins the restart round it just demanded.
	rt.clust.Interrupt(fmt.Errorf("%w: core: process reborn, restarting cluster from checkpoints", cluster.ErrInterrupted))
}

// Stats returns a snapshot of the runtime counters. On a scoped job,
// Messages counts only this job's sends; Bytes remains the shared
// transport's total (frames are not attributable per job).
func (rt *Runtime) Stats() Stats {
	cs := rt.clust.Stats()
	if rt.jc != nil {
		cs.Messages = rt.jc.Messages()
	}
	return Stats{
		Ops:               rt.stats.ops.Load(),
		FencesInserted:    rt.stats.fencesIn.Load(),
		FencesElided:      rt.stats.fencesOut.Load(),
		PointTasks:        rt.stats.points.Load(),
		RemotePulls:       rt.stats.remotePulls.Load(),
		RemotePushes:      rt.stats.remotePushes.Load(),
		LocalResolves:     rt.stats.localRes.Load(),
		TraceReplays:      rt.stats.replays.Load(),
		DeterminismChecks: rt.stats.detChecks.Load(),
		JournalReplays:    rt.stats.journalReplays.Load(),
		VersionsDropped:   rt.stats.gcDropped.Load(),
		PartialRestarts:   rt.stats.partialRuns.Load(),
		FullRestarts:      rt.stats.fullRuns.Load(),
		ReplaySkips:       rt.stats.replaySkips.Load(),
		ScalarServes:      rt.stats.scalarServes.Load(),
		Messages:          cs.Messages,
		Bytes:             cs.Bytes,
	}
}

// abort records the first fatal error and broadcasts it: abortCh wakes
// every abort-aware wait in this runtime, and the transport interrupt
// fails every blocked receive on every node, so all shards unwind and
// Execute returns one coherent error instead of deadlocking.
func (rt *Runtime) abort(err error) { rt.abortOn(rt.run.Load(), err) }

// abortOn is abort pinned to one attempt's runState. Goroutines spawned
// by an attempt abort through the state they were born under: a
// straggler from a failed attempt that errors out after Resume has
// installed a fresh runState must not poison the new attempt (its own
// state is already aborted, so the call is a no-op), and it must not
// re-interrupt the revived transport.
func (rt *Runtime) abortOn(rs *runState, err error) {
	rs.errOnce.Do(func() {
		rs.err.Store(err)
		rs.aborted.Store(true)
		close(rs.abortCh)
		if rt.run.Load() == rs {
			if rt.jc != nil {
				// Job-scoped abort: tell the peer processes' halves of
				// this job first (Send refuses once the job is poisoned),
				// then poison only this job's namespace — every other
				// job's traffic keeps flowing.
				rt.broadcastJobAbort(err)
				rt.jc.Interrupt(fmt.Errorf("core: aborted: %w", err))
			} else {
				rt.clust.Interrupt(fmt.Errorf("core: aborted: %w", err))
			}
		}
	})
}

// jobAbortTag is the cross-process job-abort broadcast: when one
// process's half of a scoped job aborts, it tells the peers so their
// halves unwind too (a job-scoped interrupt does not travel on its
// own — only cluster-wide interrupts do). Salted with the attempt like
// every per-attempt protocol tag.
const jobAbortTag = uint64(0xF4) << 56

// broadcastJobAbort sends the job-abort frame to every remote shard.
// Fire-and-forget: on a fault-injected transport the reliable sublayer
// repairs losses, and a peer that misses it entirely still unwedges via
// its own watchdog.
func (rt *Runtime) broadcastJobAbort(err error) {
	if !rt.remote() {
		return
	}
	tag := jobAbortTag | (rt.salt.Load()&0xFF)<<48
	src := rt.node(rt.localShards[0])
	for s := 0; s < rt.cfg.Shards; s++ {
		if rt.clust.IsLocal(cluster.NodeID(s)) {
			continue
		}
		_ = src.Send(cluster.NodeID(s), tag, err.Error())
	}
}

// abortFromPeer is abortOn for a job-abort frame from a peer process:
// same unwind, but no re-broadcast (the aborting peer already told
// everyone), so relayed aborts cannot loop.
func (rt *Runtime) abortFromPeer(rs *runState, err error) {
	rs.errOnce.Do(func() {
		rs.err.Store(err)
		rs.aborted.Store(true)
		close(rs.abortCh)
		if rt.run.Load() == rs && rt.jc != nil {
			rt.jc.Interrupt(fmt.Errorf("core: aborted: %w", err))
		}
	})
}

// Kill aborts the job's in-flight attempt as if a fault had killed it:
// the error wraps cluster.ErrInterrupted, which the supervisor
// classifies as recoverable, so under RunSupervised the job restarts
// from its freshest checkpoint. On a scoped job the kill — like any of
// its failures — touches only that job's namespace; concurrent jobs
// keep running. The chaos harness uses this to murder one job mid-run
// and assert the others never notice. Harmless when no attempt is live
// (the next attempt clears the poisoned state at its boundary).
func (rt *Runtime) Kill(reason string) {
	rt.abort(fmt.Errorf("%w: core: job killed: %s", cluster.ErrInterrupted, reason))
}

// abortLocalOn is abortOn for an attempt that discovered it is stale —
// the cluster has already moved past its epoch. The local endpoints
// are poisoned so the attempt's goroutines unwind, but nothing is
// broadcast: the peers are healthy in the newer epoch, and a
// propagated interrupt would kill their attempts and restart the
// failure wave this process is trying to rejoin.
func (rt *Runtime) abortLocalOn(rs *runState, err error) {
	rs.errOnce.Do(func() {
		rs.err.Store(err)
		rs.aborted.Store(true)
		close(rs.abortCh)
		if rt.run.Load() == rs {
			if rt.jc != nil {
				// A scoped job's interrupt is already local to the job;
				// skipping the broadcast is the "local" part.
				rt.jc.Interrupt(fmt.Errorf("core: aborted: %w", err))
			} else {
				rt.clust.InterruptLocal(fmt.Errorf("core: aborted: %w", err))
			}
		}
	})
}

// waitOrAbort blocks until ev triggers or the attempt aborts, reporting
// which happened (true = the event fired). A triggered event always
// wins, even if the runtime has also aborted.
func (rs *runState) waitOrAbort(ev event.Event) bool {
	if ev.HasTriggered() {
		return true
	}
	select {
	case <-ev.Done():
		return true
	case <-rs.abortCh:
		return false
	}
}

// waitOrAbort waits against the current attempt (non-context callers).
func (rt *Runtime) waitOrAbort(ev event.Event) bool {
	return rt.run.Load().waitOrAbort(ev)
}

// abortErr returns the attempt's recorded abort error (for waits
// released by the abort broadcast).
func (rs *runState) abortErr() error {
	if v := rs.err.Load(); v != nil {
		return v.(error)
	}
	return fmt.Errorf("core: aborted")
}

func (rt *Runtime) abortErr() error { return rt.run.Load().abortErr() }

// Err returns the first fatal error of the current attempt, if any.
func (rt *Runtime) Err() error {
	if v := rt.run.Load().err.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Program is a control-replicated top-level task: the same function
// body executes on every shard, and must be control deterministic —
// all its runtime API calls must be identical across shards (paper
// §3). Programs must interact with the outside world only through the
// Context (per-shard local state is fine; shared mutable state across
// shard closures is not).
type Program func(ctx *Context) error

// Execute runs the program under dynamic control replication: one
// shard per node executes a replica, and the shards cooperatively
// perform the dependence analysis. Execute returns after all shards
// finish and all launched tasks complete.
func (rt *Runtime) Execute(program Program) error {
	return rt.execute(program, nil)
}

// Resume restarts a stalled run from a watchdog checkpoint: the
// transport is revived into a new epoch (re-admitting crashed
// endpoints), every shard re-registers and runs the epoch re-admission
// barrier, and the same program is re-executed with the journal prefix
// up to the checkpoint's frontier fast-forwarded — each replayed op's
// control digest is verified against the journal and its fence
// decisions installed without re-deriving them (recovery by
// deterministic replay; Theorem 1 guarantees the resumed control state
// is bit-identical). The program must be the same control-deterministic
// program the checkpoint was taken from; divergence aborts the resumed
// run with a diagnostic.
func (rt *Runtime) Resume(cp *Checkpoint, program Program) error {
	if cp == nil {
		return fmt.Errorf("core: Resume requires a checkpoint (enable Config.Journal)")
	}
	if !rt.cfg.Journal {
		return fmt.Errorf("core: Resume requires Config.Journal")
	}
	if rt.cfg.Centralized {
		return fmt.Errorf("core: Resume requires replicated control")
	}
	if cp.Shards != rt.cfg.Shards {
		return fmt.Errorf("core: checkpoint taken at %d shards, runtime has %d", cp.Shards, rt.cfg.Shards)
	}
	if cp.Journal == nil || uint64(cp.Journal.Len()) < cp.Frontier {
		return fmt.Errorf("core: checkpoint journal shorter than frontier %d", cp.Frontier)
	}
	return rt.execute(program, cp)
}

// ErrProgramBusy is returned by Execute/Resume when the job is already
// executing an attempt: one program, one attempt at a time. (Run more
// programs concurrently by submitting more jobs to the host.)
var ErrProgramBusy = fmt.Errorf("core: program busy: Execute/Resume already in flight on this job")

// execute runs one attempt; cp non-nil makes it a resumed attempt.
func (rt *Runtime) execute(program Program, cp *Checkpoint) error {
	if rt.executing.Swap(true) {
		return ErrProgramBusy
	}
	defer rt.executing.Store(false)
	rt.host.active.Add(1)
	defer rt.host.active.Add(-1)
	defer rt.rtTimers.attempt.Stop(rt.rtTimers.attempt.Start())

	scoped := rt.jc != nil
	rt.attempt.Add(1)
	for i := range rt.divVerdicts {
		rt.divVerdicts[i].Store(nil)
	}
	var epoch uint64
	var frontier uint64
	switch {
	case cp != nil:
		// Capture the failed attempt's fine state as replay buffers
		// before anything resets it: even when this attempt's plan comes
		// out full, the buffers cost nothing and the next attempt may
		// need them.
		rt.capturePartialRetention()
		// Heal the transport first: re-admit crashed endpoints into a
		// new epoch and discard dead-epoch traffic. A healthy transport
		// needs no healing — a checkpoint loaded from disk into a fresh
		// process (Config.CheckpointDir) resumes in the current epoch.
		// When a peer already minted a newer epoch than the failed
		// attempt's, adopt it (Rejoin) instead of minting yet another:
		// one mint per failure wave is what lets the cluster's resumes
		// converge instead of perpetually superseding each other. A
		// process's first attempt always mints — a reborn process must
		// force the fresh-epoch rendezvous its rebirth announced.
		//
		// A scoped job's failures never poison the shared transport, so
		// normally there is nothing to heal; if a cluster-wide fault
		// (a legacy job's abort, AnnounceRebirth) did poison it, the
		// host heals it once on behalf of all resuming jobs.
		if rt.clust.Err() != nil {
			if scoped {
				if err := rt.host.heal(); err != nil {
					return fmt.Errorf("core: resume: %w", err)
				}
			} else {
				joined := false
				if rt.attempt.Load() > 1 {
					epoch, joined = rt.clust.Rejoin(rt.lastEpoch.Load())
				}
				if !joined {
					var err error
					if epoch, err = rt.clust.Revive(); err != nil {
						return fmt.Errorf("core: resume: %w", err)
					}
				}
			}
		}
		// Fresh abort state and progress counters for the new attempt;
		// stragglers of the failed attempt stay pinned to the old ones.
		rt.run.Store(newRunState())
		for _, p := range rt.progress {
			p.reset()
		}
		// Replay from a private copy of the checkpoint's journal prefix:
		// ops past the frontier are re-analyzed and re-appended.
		frontier = cp.Frontier
		rt.journal = &Journal{recs: cp.Journal.snapshotUpTo(frontier)}
	case rt.cfg.Journal:
		rt.journal = newJournal()
	default:
		rt.journal = nil
	}
	if scoped {
		// A fresh Execute over the wreck of a failed attempt needs the
		// same state swap a resume performs: clearing the job interrupt
		// while the old aborted runState stayed installed would run the
		// program against a closed abort channel.
		if cp == nil && rt.run.Load().aborted.Load() {
			rt.run.Store(newRunState())
			for _, p := range rt.progress {
				p.reset()
			}
		}
		// Re-arm the job's namespace for the new attempt. The poisoned
		// state belongs to the previous attempt, whose runState was
		// just replaced (resume) or is already terminally aborted
		// (stragglers pin to it, not to the job).
		rt.jc.Clear()
	}
	remote := rt.remote()
	if remote && !scoped {
		// Multi-process attempt boundary: rendezvous with the peer
		// processes on the newest transport epoch before anything runs.
		// A reborn process adopts the survivors' epoch here (so its
		// JoinEpoch barrier and tag salts agree with theirs); a survivor
		// whose own Revive lost the race picks up the winner's epoch.
		epoch = rt.clust.SyncEpoch(0)
	}
	salt := rt.attempt.Load()
	if remote && !scoped {
		salt = epoch + 1
	}
	// Scoped jobs always salt by the local attempt counter: the
	// transport epoch never moves for a job-scoped failure, and the
	// counters stay lockstep across processes because every job abort
	// is broadcast to all of them — each process's half of the job
	// fails (and resumes) exactly as often as its peers'.
	rt.salt.Store(salt)
	rt.lastEpoch.Store(epoch)
	// The attempt's checkpoint baseline is what it resumed from (its
	// journal already holds that prefix); a fresh attempt starts with
	// none. A failed attempt's cuts must never survive this boundary.
	rt.lastCP.Store(cp)

	rs := rt.run.Load()
	if scoped && remote {
		// Wire the cross-process job-abort listener for this attempt:
		// the handler is pinned to rs (and the tag to this attempt's
		// salt), so a late abort frame from a previous attempt lands in
		// its own attempt's handler and no-ops against its already-
		// aborted state. Registration replaces the previous attempt's
		// handler when the 8-bit salt wraps.
		abortTag := jobAbortTag | (salt&0xFF)<<48
		for _, s := range rt.localShards {
			rt.node(s).Handle(abortTag, func(m cluster.Message) {
				reason, _ := m.Payload.(string)
				rt.abortFromPeer(rs, fmt.Errorf("%w: core: job %d aborted by peer shard %d: %s",
					cluster.ErrInterrupted, rt.jobID, m.From, reason))
			})
		}
	}
	var watchStop chan struct{}
	if rt.cfg.OpDeadline > 0 {
		watchStop = rt.startWatchdog(rs)
	}

	// Heartbeat failure detection: a majority-suspected shard aborts the
	// attempt with the detector's ShardDownError in O(HeartbeatEvery).
	// A checkpoint is cut first so the supervisor resumes from the
	// freshest frontier rather than the last periodic cut. The detector
	// is the host's — refcounted across jobs, each conviction fanned out
	// to every subscribed attempt.
	var hbStop func()
	if rt.cfg.HeartbeatEvery > 0 && !rt.cfg.Centralized {
		hbStop = rt.host.armHeartbeats(rt, func(e *cluster.ShardDownError) {
			rt.cutCheckpoint()
			rt.abortOn(rs, e)
		})
	}

	// Restart-scope agreement: every resuming process exchanges park
	// descriptors and derives the same plan (partial or full) for this
	// attempt. Fresh runs and opted-out configs have no scope. Runs
	// after heartbeats are armed so peers keep beating (and convicting)
	// while a straggler is awaited; a conviction mid-exchange aborts
	// this attempt at the next round boundary.
	var plan *partialPlan
	if cp != nil && !rt.cfg.Centralized && rt.cfg.PartialRestart {
		plan = rt.decideRestartScope(rs, epoch)
		if plan.partial {
			rt.stats.partialRuns.Add(1)
		} else {
			rt.stats.fullRuns.Add(1)
		}
	}
	rt.lastPlan.Store(plan)
	// Fresh plan memo and push-tag counters for the attempt; the salt
	// folds into every push tag so a straggler's push from a failed
	// attempt can never satisfy this attempt's receive.
	rt.planMemo.Store(newPlanMemo(salt, rt.cfg.Shards))

	// Wall-clock periodic checkpoints (op-count cuts live on shard 0's
	// coarse stage, see coarse.run).
	var cpStop chan struct{}
	if rt.journal != nil && rt.cfg.CheckpointInterval > 0 {
		cpStop = make(chan struct{})
		go func() {
			ticker := time.NewTicker(rt.cfg.CheckpointInterval)
			defer ticker.Stop()
			for {
				select {
				case <-cpStop:
					return
				case <-rs.abortCh:
					return
				case <-ticker.C:
					rt.cutCheckpoint()
				}
			}
		}()
	}

	// One replica goroutine per *local* shard: on the in-process backend
	// that is all of them; with a remote transport the peer processes
	// drive theirs, and the collective fabric spans the wire.
	var wg sync.WaitGroup
	for _, s := range rt.localShards {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			ctx := newContext(rt, shard)
			ctx.replayTo = frontier
			ctx.epoch = epoch
			ctx.run(program)
		}(s)
	}
	wg.Wait()
	// Join the determinism watchers before disarming the watchdog: a
	// divergence vote may still be concluding, and its verdict must win
	// the attempt's error slot before Execute returns. The watchdog
	// stays armed as the backstop in case a vote peer never shows.
	rs.votes.Wait()
	if hbStop != nil {
		hbStop()
	}
	if cpStop != nil {
		close(cpStop)
	}
	if watchStop != nil {
		close(watchStop)
	}
	err := rt.Err()
	if err == nil {
		// Success: the replay buffers and escalation latches are spent.
		rt.clearPartialRetention()
	} else if plan != nil {
		// A failed partial attempt must not be retried partially: the
		// next vote is ineligible, escalating to a full restart.
		rt.partial.mu.Lock()
		rt.partial.prevPartialFailed = plan.partial
		rt.partial.mu.Unlock()
	}
	return err
}

// cutCheckpoint snapshots the current replayable control state and
// publishes it as the attempt's latest checkpoint, keeping the frontier
// monotone (a concurrent cut that got further wins). Returns the
// published checkpoint (nil when the journal is disabled).
func (rt *Runtime) cutCheckpoint() *Checkpoint {
	if rs := rt.run.Load(); rs != nil && rs.aborted.Load() {
		// Never cut for an aborted attempt: the post-abort drain keeps
		// advancing the fine frontier over ops whose digests embed
		// substituted zero futures, and a higher-frontier poisoned cut
		// would win the monotone race and derail the next replay. (The
		// heartbeat conviction path cuts before it aborts, so the
		// freshest healthy frontier is already captured.)
		return rt.lastCP.Load()
	}
	defer rt.rtTimers.ckpt.Stop(rt.rtTimers.ckpt.Start())
	cp := rt.buildCheckpoint()
	if cp == nil {
		return nil
	}
	for {
		old := rt.lastCP.Load()
		if old != nil && old.Frontier >= cp.Frontier {
			return old
		}
		if rt.lastCP.CompareAndSwap(old, cp) {
			rt.spillCheckpoint(cp)
			return cp
		}
	}
}

// LatestCheckpoint returns the freshest periodic checkpoint of the
// current (or last) attempt, or nil if none has been cut. With
// Config.CheckpointEvery / CheckpointInterval set the runtime cuts
// these during healthy execution, bounding the journal suffix a
// recovery must replay.
func (rt *Runtime) LatestCheckpoint() *Checkpoint { return rt.lastCP.Load() }

// ControlHash returns the control-determinism digest at the end of the
// last completed Execute/Resume: a 128-bit fingerprint of the entire
// API-call sequence the program issued (shard 0's digest; with
// SafetyChecks on, verified identical on every shard). Two runs of a
// well-formed program produce the same hash regardless of shard count,
// which the determinism test matrix asserts.
func (rt *Runtime) ControlHash() [2]uint64 {
	if v := rt.finalCtl.Load(); v != nil {
		return v.([2]uint64)
	}
	return [2]uint64{}
}

// TransportStats returns the transport counters, including the
// fault-injection classes (see cluster.Stats).
func (rt *Runtime) TransportStats() cluster.Stats { return rt.clust.Stats() }

// comm builds a collective endpoint for the given shard in the given
// tag space, salted with the current attempt's generation so that a
// resumed run's collectives can never alias an aborted attempt's. A
// scoped job's collectives additionally run over the job's node views,
// whose tag mixing keeps two jobs' collectives in the same space from
// ever matching.
func (rt *Runtime) comm(shard int, space uint64) *collective.Comm {
	if rt.jc != nil {
		return collective.NewJob(rt.node(shard), space, rt.jobID, rt.salt.Load())
	}
	return collective.NewGen(rt.node(shard), space, rt.salt.Load())
}
