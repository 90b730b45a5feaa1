// Command godcr-node runs one shard of a DCR cluster as its own OS
// process, with the shards wired together by the TCP transport — the
// multi-process deployment the pluggable Transport seam exists for.
//
// Worker mode (one process per shard):
//
//	godcr-node -shard 0 -addrs 127.0.0.1:7000,127.0.0.1:7001 -workload stencil
//
// runs shard 0 of a 2-shard cluster (the cluster size is len(addrs))
// and prints a JSON record of the run's outputs and control hash. With
// -supervise the worker runs under the self-healing supervisor
// (heartbeats, watchdog, periodic checkpoints spilled to -ckpt) and
// survives peer-process deaths; -reborn marks a respawned worker so it
// announces its rebirth and the cluster restarts from checkpoints.
//
// Launcher mode (acceptance harness):
//
//	godcr-node -launch -n 4 -workload stencil
//
// reserves n loopback ports, spawns itself n times in worker mode, runs
// the same workload on the in-process backend, and demands every
// worker's outputs and ControlHash be bit-identical to it. Exit status
// 0 means the multi-process run is provably equivalent.
//
// Chaos launcher (remote supervised recovery):
//
//	godcr-node -launch -supervise -n 3 -kill 1 -seed 7 -workload stencil -steps 30
//
// additionally acts as a process supervisor: it SIGKILLs -kill randomly
// chosen workers mid-run (seeded, reproducible), respawns each victim
// with -reborn on the same address and checkpoint directory, and still
// demands bit-identical convergence against the in-process baseline.
//
// Multi-shard hosting and partial restart:
//
//	godcr-node -launch -n 4 -procs 2 -workload circuit
//	godcr-node -launch -supervise -partial -n 4 -kill 1 -workload stencil -steps 30
//
// -procs splits the n shards contiguously across fewer processes (each
// hosting several shards behind one listener — one failure domain); a
// worker can be given its group directly with -shards 2,3. -partial
// enables partial restart: a SIGKILL'd process re-executes only its
// hosted shard(s) from checkpoint while the survivors park at their
// frontier and re-serve, instead of the whole cluster rolling back.
//
// Integrity chaos:
//
//	godcr-node -launch -n 4 -corrupt 0.02 -workload stencil
//	godcr-node -launch -supervise -n 3 -kill 1 -corrupt-ckpt -workload stencil -steps 30
//	godcr-node -launch -supervise -n 4 -partition 400ms -partition-shard 2 -workload stencil -steps 30
//
// -corrupt flips one seeded bit per outbound TCP frame with the given
// probability; receivers' CRC32C checks turn every flip into a loss the
// reliable sublayer retransmits, and the launcher demands both
// bit-identical convergence and a nonzero cluster-wide CRC-rejection
// count. -corrupt-ckpt damages a SIGKILL victim's newest checkpoint
// generation before its respawn, forcing recovery through the
// generation-chain fallback. -partition isolates one shard from every
// peer for a window; the phi detectors convict it, and the supervisor
// retries until the window heals.
//
// Server mode (long-lived job server; see server.go):
//
//	godcr-node -serve -n 4 -max-jobs 2 -listen 127.0.0.1:7100
//	godcr-node -submit -server 127.0.0.1:7100 -workload logreg
//
// runs a resident multi-job host accepting a stream of submitted
// workloads (stencil, circuit, logreg) over a JSON-lines control
// socket, each as an isolated job on the shared shard pool.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"godcr"
)

// report is a worker's machine-readable verdict on stdout.
type report struct {
	Shard int `json:"shard"`
	// Hosted lists every shard id this process drove (multi-shard
	// hosting); just [Shard] for a single-shard worker.
	Hosted   []int  `json:"hosted"`
	Shards   int    `json:"shards"`
	Workload string `json:"workload"`
	// Hash is the run's ControlHash as two hex words (strings: JSON
	// numbers cannot carry uint64 exactly).
	Hash    [2]string `json:"hash"`
	Outputs []float64 `json:"outputs"`
	// Bytes is the transport's outbound byte count — nonzero on any
	// real multi-shard run.
	Bytes uint64 `json:"bytes"`
	// CorruptFrames counts inbound TCP frames this worker's receiver
	// rejected on CRC — nonzero somewhere in the cluster whenever wire
	// corruption is being injected.
	CorruptFrames uint64 `json:"corrupt_frames"`
}

func hashWords(h [2]uint64) [2]string {
	return [2]string{fmt.Sprintf("%016x", h[0]), fmt.Sprintf("%016x", h[1])}
}

// agreeCell collects one output vector per shard replica. With verify
// set it checks the replicas agree bit-for-bit (control replication
// demands it) — the in-process baseline, where every replica records
// into one cell within a single fault-free run. Worker processes leave
// verify off and take last-write-wins instead: a supervised worker re-
// runs the program body per recovery attempt, and a failed attempt's
// body can complete with garbage (futures resolve zero on abort), so
// only the final successful attempt's record may stand.
type agreeCell struct {
	mu     sync.Mutex
	vals   []float64
	set    bool
	verify bool
}

func (c *agreeCell) record(v []float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.set || !c.verify {
		c.vals = append([]float64(nil), v...)
		c.set = true
		return nil
	}
	if len(c.vals) != len(v) {
		return fmt.Errorf("replica output length %d, want %d", len(v), len(c.vals))
	}
	for i := range v {
		if v[i] != c.vals[i] {
			return fmt.Errorf("replica output[%d] = %v, want %v", i, v[i], c.vals[i])
		}
	}
	return nil
}

func (c *agreeCell) get() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vals
}

// taskRegistrar is the seam both deployment shapes satisfy: a workload
// registers its tasks on a single-job *godcr.Runtime (worker mode) or
// once on a resident *godcr.Host shared by every job (server mode).
type taskRegistrar interface {
	RegisterTask(name string, fn godcr.TaskFn)
}

// workload builds a program producing a per-step output vector; every
// backend and shard count must reproduce it bit-identically. steps <= 0
// selects the workload's default step count; the chaos harness raises
// it so a SIGKILL has a wide mid-run window to land in.
type workload struct {
	register     func(reg taskRegistrar)
	program      func(out *agreeCell, steps int) godcr.Program
	defaultSteps int
}

func workloads() map[string]workload {
	return map[string]workload{
		"stencil": {register: registerStencilTasks, program: stencilProgram, defaultSteps: 5},
		"circuit": {register: registerCircuitTasks, program: circuitProgram, defaultSteps: 4},
		"logreg":  {register: registerLogregTasks, program: logregProgram, defaultSteps: 6},
	}
}

func registerStencilTasks(rt taskRegistrar) {
	rt.RegisterTask("bump", func(tc *godcr.TaskContext) (float64, error) {
		x := tc.Region(0).Field("x")
		sum := 0.0
		x.Rect().Each(func(p godcr.Point) bool {
			x.Set(p, x.At(p)+1)
			sum += x.At(p)
			return true
		})
		return sum, nil
	})
	rt.RegisterTask("smooth", func(tc *godcr.TaskContext) (float64, error) {
		x := tc.Region(0).Field("x")
		g := tc.Region(1).Field("x")
		x.Rect().Each(func(p godcr.Point) bool {
			x.Set(p, 0.5*x.At(p)+0.25*(g.At(godcr.Pt1(p[0]-1))+g.At(godcr.Pt1(p[0]+1))))
			return true
		})
		return 0, nil
	})
}

// stencilProgram: 8 tiles × 16 cells, `steps` halo-exchange steps; the
// output vector is each step's reduced tile sum plus the final field.
func stencilProgram(out *agreeCell, steps int) godcr.Program {
	const tiles = 8
	return func(ctx *godcr.Context) error {
		var outs []float64 // per-shard-replica: declared inside the body
		r := ctx.CreateRegion(godcr.R1(0, tiles*16-1), "x")
		owned := ctx.PartitionEqual(r, tiles)
		ghost := ctx.PartitionHalo(owned, 1)
		interior := ctx.PartitionInterior(owned, 1)
		ctx.Fill(r, "x", 1)
		dom := godcr.R1(0, tiles-1)
		for s := 0; s < steps; s++ {
			fm := ctx.IndexLaunch(godcr.Launch{Task: "bump", Domain: dom,
				Reqs: []godcr.RegionReq{{Part: owned, Priv: godcr.ReadWrite, Fields: []string{"x"}}}})
			ctx.IndexLaunch(godcr.Launch{Task: "smooth", Domain: dom,
				Reqs: []godcr.RegionReq{
					{Part: interior, Priv: godcr.ReadWrite, Fields: []string{"x"}},
					{Part: ghost, Priv: godcr.ReadOnly, Fields: []string{"x"}}}})
			outs = append(outs, fm.Reduce(godcr.ReduceAdd).Get())
		}
		outs = append(outs, ctx.InlineRead(r, "x")...)
		return out.record(outs)
	}
}

func registerCircuitTasks(rt taskRegistrar) {
	rt.RegisterTask("charge_up", func(tc *godcr.TaskContext) (float64, error) {
		acc := tc.Region(0).Field("charge")
		total := 0.0
		acc.Rect().Each(func(p godcr.Point) bool {
			acc.Fold(p, float64(tc.Point[0]+1)*0.25)
			total += float64(p[0])
			return true
		})
		return total, nil
	})
	rt.RegisterTask("update_v", func(tc *godcr.TaskContext) (float64, error) {
		v := tc.Region(0).Field("voltage")
		q := tc.Region(1).Field("charge")
		v.Rect().Each(func(p godcr.Point) bool {
			v.Set(p, v.At(p)+q.At(p))
			return true
		})
		return 0, nil
	})
}

// circuitProgram: aliased reduction partitions (every tile folds into
// the whole grid) + a future-map reduction per step; the output vector
// is each step's reduced total plus the final voltages.
func circuitProgram(out *agreeCell, steps int) godcr.Program {
	const nnodes, ntiles = 32, 8
	return func(ctx *godcr.Context) error {
		var outs []float64
		grid := godcr.R1(0, nnodes-1)
		tiles := godcr.R1(0, ntiles-1)
		nodes := ctx.CreateRegion(grid, "voltage", "charge")
		owned := ctx.PartitionEqual(nodes, ntiles)
		rects := make([]godcr.Rect, ntiles)
		for i := range rects {
			rects[i] = grid
		}
		all := ctx.PartitionCustom(nodes, tiles, rects)
		ctx.Fill(nodes, "voltage", 1.0)
		for step := 0; step < steps; step++ {
			ctx.Fill(nodes, "charge", 0)
			fm := ctx.IndexLaunch(godcr.Launch{
				Task: "charge_up", Domain: tiles,
				Reqs: []godcr.RegionReq{{Part: all, Priv: godcr.Reduce, RedOp: godcr.ReduceAdd, Fields: []string{"charge"}}},
			})
			ctx.IndexLaunch(godcr.Launch{
				Task: "update_v", Domain: tiles,
				Reqs: []godcr.RegionReq{
					{Part: owned, Priv: godcr.ReadWrite, Fields: []string{"voltage"}},
					{Part: owned, Priv: godcr.ReadOnly, Fields: []string{"charge"}},
				},
			})
			outs = append(outs, fm.Reduce(godcr.ReduceAdd).Get())
		}
		outs = append(outs, ctx.InlineRead(nodes, "voltage")...)
		return out.record(outs)
	}
}

func registerLogregTasks(rt taskRegistrar) {
	rt.RegisterTask("lr_init", func(tc *godcr.TaskContext) (float64, error) {
		x := tc.Region(0).Field("x")
		y := tc.Region(0).Field("y")
		x.Rect().Each(func(p godcr.Point) bool {
			x.Set(p, float64((p[0]*37)%17)/8.0-1.0)
			if p[0]%3 == 0 {
				y.Set(p, 1)
			} else {
				y.Set(p, -1)
			}
			return true
		})
		return 0, nil
	})
	rt.RegisterTask("lr_grad", func(tc *godcr.TaskContext) (float64, error) {
		x := tc.Region(0).Field("x")
		y := tc.Region(0).Field("y")
		w := tc.Args[0]
		g := 0.0
		x.Rect().Each(func(p godcr.Point) bool {
			xv, yv := x.At(p), y.At(p)
			g += -yv * xv / (1 + math.Exp(yv*w*xv))
			return true
		})
		return g, nil
	})
}

// logregProgram: logistic regression by gradient descent, where each
// step's weight is a future-map reduction of per-tile gradients — the
// workload whose control flow depends on values computed by earlier
// tasks. The output vector is the weight trajectory.
func logregProgram(out *agreeCell, steps int) godcr.Program {
	const nsamples, ntiles = 48, 8
	return func(ctx *godcr.Context) error {
		grid := godcr.R1(0, nsamples-1)
		tiles := godcr.R1(0, ntiles-1)
		data := ctx.CreateRegion(grid, "x", "y")
		owned := ctx.PartitionEqual(data, ntiles)
		ctx.IndexLaunch(godcr.Launch{
			Task: "lr_init", Domain: tiles,
			Reqs: []godcr.RegionReq{{Part: owned, Priv: godcr.WriteDiscard, Fields: []string{"x", "y"}}},
		})
		w := 0.0
		traj := make([]float64, 0, steps)
		for step := 0; step < steps; step++ {
			fm := ctx.IndexLaunch(godcr.Launch{
				Task: "lr_grad", Domain: tiles,
				Reqs: []godcr.RegionReq{{Part: owned, Priv: godcr.ReadOnly, Fields: []string{"x", "y"}}},
				Args: []float64{w},
			})
			w -= 0.5 * fm.Reduce(godcr.ReduceAdd).Get() / float64(nsamples)
			traj = append(traj, w)
		}
		return out.record(traj)
	}
}

// workerOpts configures one worker process's run.
type workerOpts struct {
	shard int
	// hosted lists every shard id this process drives (multi-shard
	// hosting: one process, one failure domain); empty means just
	// shard. Every hosted id must map to this process's address in
	// addrs.
	hosted   []int
	addrs    []string
	workload string
	steps    int
	// supervise runs the shard under RunSupervised with heartbeats, the
	// watchdog, and checkpoints spilled to ckptDir.
	supervise bool
	// partial enables partial restart: a single-shard failure re-executes
	// only on the failed shard while survivors park and re-serve.
	partial bool
	ckptDir string
	// reborn marks a respawned worker: it announces its rebirth so the
	// survivors abandon their in-flight attempt and the whole cluster
	// resumes from checkpoints in a fresh epoch.
	reborn bool
	// corrupt, when > 0, flips one seeded bit in outbound TCP frames
	// with this probability; the receivers' CRCs turn every flip into a
	// recoverable loss.
	corrupt   float64
	faultSeed uint64
	// partitionShard (with partitionDur > 0) isolates that shard from
	// every peer for partitionDur from process start: all workers
	// install the same two-way partition windows, so whichever side
	// would send over a severed link drops the traffic locally.
	partitionShard int
	partitionDur   time.Duration
}

// faultPlan builds the worker's fault plan from the corruption and
// partition knobs, or nil when both are off.
func (o workerOpts) faultPlan() *godcr.FaultPlan {
	if o.corrupt <= 0 && (o.partitionShard < 0 || o.partitionDur <= 0) {
		return nil
	}
	plan := &godcr.FaultPlan{Seed: o.faultSeed, Corrupt: o.corrupt}
	if o.partitionShard >= 0 && o.partitionDur > 0 {
		for s := range o.addrs {
			if s == o.partitionShard {
				continue
			}
			plan.Partitions = append(plan.Partitions, godcr.PartitionWindow{
				From:     godcr.NodeID(o.partitionShard),
				To:       godcr.NodeID(s),
				Duration: o.partitionDur,
			})
		}
	}
	return plan
}

// runWorker executes one shard over TCP and returns its report.
func runWorker(o workerOpts) (*report, error) {
	wl, ok := workloads()[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	steps := o.steps
	if steps <= 0 {
		steps = wl.defaultSteps
	}
	hosted := o.hosted
	if len(hosted) == 0 {
		hosted = []int{o.shard}
	}
	ids := make([]godcr.NodeID, len(hosted))
	for i, s := range hosted {
		ids[i] = godcr.NodeID(s)
	}
	tr, err := godcr.NewTCPTransport(godcr.TCPOptions{
		Self:   godcr.NodeID(o.shard),
		Shards: ids,
		Addrs:  o.addrs,
	})
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	cfg := godcr.Config{
		Shards:       len(o.addrs),
		SafetyChecks: true,
		Transport:    tr,
		Faults:       o.faultPlan(),
	}
	if cfg.Faults != nil && !o.supervise {
		// Fail loudly with a StallError snapshot well before the
		// launcher's kill deadline if injected faults wedge the run.
		cfg.OpDeadline = 30 * time.Second
	}
	if o.supervise {
		cfg.CheckpointEvery = 4
		cfg.CheckpointDir = o.ckptDir
		cfg.HeartbeatEvery = 5 * time.Millisecond
		cfg.OpDeadline = 10 * time.Second
		cfg.PartialRestart = o.partial
	}
	rt := godcr.NewRuntime(cfg)
	defer rt.Shutdown()
	wl.register(rt)
	var out agreeCell
	program := wl.program(&out, steps)
	if o.supervise {
		if o.reborn {
			// The spilled-checkpoint path announces rebirth on its own;
			// the explicit call covers respawned workers whose shard never
			// spilled (only the journal recorder's process writes cuts).
			rt.AnnounceRebirth()
		}
		// Every worker shares the jitter seed so backoff schedules stay
		// aligned across processes: a worker sleeping out a longer backoff
		// than its peers looks dead to their phi detectors.
		err = rt.RunSupervised(program, godcr.SupervisorPolicy{
			MaxRestarts: 10,
			Backoff:     10 * time.Millisecond,
			BackoffCap:  50 * time.Millisecond,
			JitterSeed:  1,
		})
	} else {
		err = rt.Execute(program)
	}
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", o.shard, err)
	}
	return &report{
		Shard:         o.shard,
		Hosted:        hosted,
		Shards:        len(o.addrs),
		Workload:      o.workload,
		Hash:          hashWords(rt.ControlHash()),
		Outputs:       out.get(),
		Bytes:         rt.Stats().Bytes,
		CorruptFrames: tr.Stats().CorruptFrames,
	}, nil
}

// runInProcess executes the same workload on the in-process backend —
// the baseline every worker must match bit-for-bit.
func runInProcess(n int, name string, steps int) (*report, error) {
	wl, ok := workloads()[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if steps <= 0 {
		steps = wl.defaultSteps
	}
	rt := godcr.NewRuntime(godcr.Config{Shards: n, SafetyChecks: true})
	defer rt.Shutdown()
	wl.register(rt)
	out := agreeCell{verify: true}
	if err := rt.Execute(wl.program(&out, steps)); err != nil {
		return nil, err
	}
	return &report{
		Shards:   n,
		Workload: name,
		Hash:     hashWords(rt.ControlHash()),
		Outputs:  out.get(),
		Bytes:    rt.Stats().Bytes,
	}, nil
}

// reservePorts grabs n distinct loopback ports by binding and releasing
// them. The tiny close-to-rebind window is tolerable for a launcher on
// loopback; a stolen port fails the child's bind, which fails the run
// loudly rather than wrongly.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}

// procRegistry tracks the live worker processes (by process index) so
// the chaos killer can pick victims and the respawn loops can
// unregister the dead.
type procRegistry struct {
	mu    sync.Mutex
	procs map[int]*os.Process
}

func newProcRegistry() *procRegistry {
	return &procRegistry{procs: make(map[int]*os.Process)}
}

func (r *procRegistry) set(pi int, p *os.Process) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.procs[pi] = p
}

func (r *procRegistry) clear(pi int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.procs, pi)
}

// pick returns a live victim chosen by idx over the registry's process
// indices in ascending order, or nil if no worker is live.
func (r *procRegistry) pick(idx int) (int, *os.Process) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.procs) == 0 {
		return -1, nil
	}
	pis := make([]int, 0, len(r.procs))
	for s := range r.procs {
		pis = append(pis, s)
	}
	for i := 1; i < len(pis); i++ { // insertion sort: n is tiny
		for j := i; j > 0 && pis[j] < pis[j-1]; j-- {
			pis[j], pis[j-1] = pis[j-1], pis[j]
		}
	}
	s := pis[idx%len(pis)]
	return s, r.procs[s]
}

// launchOpts configures the launcher harness.
type launchOpts struct {
	n        int
	workload string
	steps    int
	timeout  time.Duration
	// procs is the number of worker processes the n shards are split
	// across (contiguously; 0 or >= n means one process per shard).
	// With procs < n each process hosts several shards behind one
	// listener — one failure domain per process.
	procs int
	// supervise launches workers under RunSupervised with per-worker
	// checkpoint directories and respawns workers that die by signal.
	supervise bool
	// partial enables partial restart in the workers: a single-process
	// SIGKILL re-executes only its hosted shard(s) from checkpoint while
	// the surviving processes park at their frontier.
	partial bool
	// kills is the number of seeded SIGKILLs to deliver mid-run
	// (supervise mode only).
	kills int
	seed  int64
	// corrupt forwards wire-corruption probability to every worker; the
	// launcher then demands at least one CRC rejection cluster-wide.
	corrupt float64
	// partition/partitionShard forward a timed full isolation of one
	// shard to every worker (supervise mode only: severed traffic is
	// unrecoverable without the supervisor's retry loop).
	partition      time.Duration
	partitionShard int
	// corruptCkpt flips one bit in a respawned victim's newest
	// checkpoint generation before the respawn, forcing the reborn
	// worker onto the generation-chain fallback (supervise mode only).
	corruptCkpt bool
}

// faultArgs renders the launcher's fault knobs as worker flags; pi
// salts the per-worker wire-corruption seed.
func (o launchOpts) faultArgs(pi int) []string {
	var args []string
	if o.corrupt > 0 {
		args = append(args,
			"-corrupt", fmt.Sprint(o.corrupt),
			"-fault-seed", fmt.Sprint(uint64(o.seed)*1000+uint64(pi)))
	}
	if o.partition > 0 && o.partitionShard >= 0 {
		args = append(args,
			"-partition", o.partition.String(),
			"-partition-shard", fmt.Sprint(o.partitionShard))
	}
	return args
}

// splitShards deals n shard ids into procs contiguous groups, earlier
// groups taking the remainder: splitShards(4, 2) = [[0 1] [2 3]].
func splitShards(n, procs int) [][]int {
	if procs <= 0 || procs > n {
		procs = n
	}
	groups := make([][]int, procs)
	next := 0
	for pi := range groups {
		size := n / procs
		if pi < n%procs {
			size++
		}
		for j := 0; j < size; j++ {
			groups[pi] = append(groups[pi], next)
			next++
		}
	}
	return groups
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}

func parseShardList(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		var x int
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d", &x); err != nil || x < 0 {
			return nil, fmt.Errorf("bad shard id %q", p)
		}
		out = append(out, x)
	}
	return out, nil
}

// maxRespawns bounds how many times the launcher revives one worker.
const maxRespawns = 5

// superviseWorker runs one worker process (hosting the given shard
// group), respawning it (with -reborn) when it dies by signal, and
// returns the surviving process's stdout. pi is the process index used
// for the chaos-kill registry.
func superviseWorker(ctx context.Context, self string, o launchOpts, pi int, group []int, addrs []string, ckptDir string, reg *procRegistry) ([]byte, error) {
	reborn := false
	for spawn := 0; ; spawn++ {
		args := []string{
			"-shards", joinInts(group),
			"-addrs", strings.Join(addrs, ","),
			"-workload", o.workload,
			"-steps", fmt.Sprint(o.steps),
			"-supervise",
			"-ckpt", ckptDir,
		}
		if o.partial {
			args = append(args, "-partial")
		}
		args = append(args, o.faultArgs(pi)...)
		if reborn {
			args = append(args, "-reborn")
			if o.corruptCkpt {
				// Damage the newest spilled generation before the rebirth:
				// the worker must fall back to an older valid generation
				// (or a cold start) and still converge bit-identically.
				if path, err := godcr.CorruptCheckpointFile(ckptDir, uint64(o.seed)+uint64(spawn)); err != nil {
					fmt.Fprintf(os.Stderr, "godcr-node: worker %d: corrupt checkpoint: %v\n", pi, err)
				} else {
					fmt.Fprintf(os.Stderr, "godcr-node: worker %d: flipped a bit in %s before respawn\n", pi, path)
				}
			}
		}
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stderr = os.Stderr
		var out bytes.Buffer
		cmd.Stdout = &out
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("worker %d: start: %w", pi, err)
		}
		reg.set(pi, cmd.Process)
		err := cmd.Wait()
		reg.clear(pi)
		if err == nil {
			return out.Bytes(), nil
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("worker %d: %w", pi, ctx.Err())
		}
		// Respawn only signal deaths (the chaos killer's SIGKILL); a
		// worker that exited on its own reported a real failure.
		if cmd.ProcessState == nil || cmd.ProcessState.ExitCode() != -1 {
			return nil, fmt.Errorf("worker %d: %w", pi, err)
		}
		if spawn >= maxRespawns {
			return nil, fmt.Errorf("worker %d: respawn budget exhausted (%d), last: %w", pi, maxRespawns, err)
		}
		fmt.Fprintf(os.Stderr, "godcr-node: worker %d (shards %s) died by signal, respawning as reborn\n", pi, joinInts(group))
		reborn = true
		time.Sleep(20 * time.Millisecond)
	}
}

// chaosKill delivers o.kills seeded SIGKILLs to randomly chosen live
// workers, spread over the early part of the run.
func chaosKill(o launchOpts, reg *procRegistry, done <-chan struct{}) {
	rng := rand.New(rand.NewSource(o.seed))
	for k := 0; k < o.kills; k++ {
		delay := 30*time.Millisecond + time.Duration(rng.Intn(120))*time.Millisecond
		select {
		case <-done:
			return
		case <-time.After(delay):
		}
		pi, proc := reg.pick(rng.Intn(1 << 30))
		if proc == nil {
			fmt.Fprintf(os.Stderr, "godcr-node: chaos kill %d: no live worker (run already finished)\n", k)
			continue
		}
		if err := proc.Kill(); err != nil {
			fmt.Fprintf(os.Stderr, "godcr-node: chaos kill %d: worker %d: %v\n", k, pi, err)
			continue
		}
		fmt.Fprintf(os.Stderr, "godcr-node: chaos kill %d: SIGKILL worker %d\n", k, pi)
	}
}

// verifyReports checks every worker process's JSON report against the
// in-process baseline, bit-for-bit. groups[i] is the shard group worker
// i was asked to host.
func verifyReports(baseline *report, groups [][]int, outs [][]byte, errs []error) []string {
	var failures []string
	for i := range outs {
		if errs[i] != nil {
			failures = append(failures, fmt.Sprintf("worker %d: %v", i, errs[i]))
			continue
		}
		var rep report
		if err := json.Unmarshal(outs[i], &rep); err != nil {
			failures = append(failures, fmt.Sprintf("worker %d: bad report: %v", i, err))
			continue
		}
		if rep.Shard != groups[i][0] {
			failures = append(failures, fmt.Sprintf("worker %d reported shard %d, want %d", i, rep.Shard, groups[i][0]))
		}
		if joinInts(rep.Hosted) != joinInts(groups[i]) {
			failures = append(failures, fmt.Sprintf("worker %d hosted shards %v, want %v", i, rep.Hosted, groups[i]))
		}
		if rep.Hash != baseline.Hash {
			failures = append(failures, fmt.Sprintf(
				"worker %d control hash %v, in-process %v", i, rep.Hash, baseline.Hash))
		}
		if len(rep.Outputs) != len(baseline.Outputs) {
			failures = append(failures, fmt.Sprintf(
				"worker %d has %d outputs, in-process %d", i, len(rep.Outputs), len(baseline.Outputs)))
			continue
		}
		for j := range rep.Outputs {
			// Bit-identical, not approximately equal.
			if rep.Outputs[j] != baseline.Outputs[j] {
				failures = append(failures, fmt.Sprintf(
					"worker %d output[%d] = %v, in-process %v", i, j, rep.Outputs[j], baseline.Outputs[j]))
				break
			}
		}
		if rep.Bytes == 0 {
			failures = append(failures, fmt.Sprintf("worker %d moved zero transport bytes", i))
		}
	}
	return failures
}

// launch spawns o.n worker copies of this binary over reserved loopback
// ports and verifies them against the in-process baseline. In supervise
// mode it also plays process supervisor: chaos kills, respawns, and
// still demands bit-identical convergence.
func launch(o launchOpts) error {
	if o.partition > 0 && !o.supervise {
		return errors.New("-partition needs -supervise: severed traffic is only recovered by the supervisor's retry loop")
	}
	baseline, err := runInProcess(o.n, o.workload, o.steps)
	if err != nil {
		return fmt.Errorf("in-process baseline: %w", err)
	}
	groups := splitShards(o.n, o.procs)
	paddrs, err := reservePorts(len(groups))
	if err != nil {
		return fmt.Errorf("reserve ports: %w", err)
	}
	// Every shard a process hosts maps to that process's one listener.
	addrs := make([]string, o.n)
	for pi, g := range groups {
		for _, s := range g {
			addrs[s] = paddrs[pi]
		}
	}
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate self: %w", err)
	}
	var ckptRoot string
	if o.supervise {
		if ckptRoot, err = os.MkdirTemp("", "godcr-chaos-*"); err != nil {
			return fmt.Errorf("checkpoint dir: %w", err)
		}
		defer os.RemoveAll(ckptRoot)
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.timeout)
	defer cancel()
	reg := newProcRegistry()
	outs := make([][]byte, len(groups))
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for pi := range groups {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			if o.supervise {
				ckptDir := filepath.Join(ckptRoot, fmt.Sprintf("worker-%d", pi))
				outs[pi], errs[pi] = superviseWorker(ctx, self, o, pi, groups[pi], addrs, ckptDir, reg)
				return
			}
			args := []string{
				"-shards", joinInts(groups[pi]),
				"-addrs", strings.Join(addrs, ","),
				"-workload", o.workload,
				"-steps", fmt.Sprint(o.steps),
			}
			args = append(args, o.faultArgs(pi)...)
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stderr = os.Stderr
			outs[pi], errs[pi] = cmd.Output()
		}(pi)
	}
	done := make(chan struct{})
	if o.supervise && o.kills > 0 {
		go chaosKill(o, reg, done)
	}
	wg.Wait()
	close(done)

	if failures := verifyReports(baseline, groups, outs, errs); len(failures) > 0 {
		return errors.New(strings.Join(failures, "\n"))
	}
	if o.corrupt > 0 {
		// Bit-identical convergence proves recovery; the counter proves
		// there was something to recover from.
		var corrupt uint64
		for _, b := range outs {
			var rep report
			if json.Unmarshal(b, &rep) == nil {
				corrupt += rep.CorruptFrames
			}
		}
		if corrupt == 0 {
			return fmt.Errorf("corrupt=%v injected no CRC rejections across the cluster", o.corrupt)
		}
		fmt.Printf("wire corruption: %d frame(s) rejected on CRC and recovered\n", corrupt)
	}
	mode := "processes over TCP loopback"
	if o.supervise {
		restart := "full restart"
		if o.partial {
			restart = "partial restart"
		}
		mode = fmt.Sprintf("supervised processes over TCP loopback (%s, %d chaos kill(s), seed %d)", restart, o.kills, o.seed)
	}
	fmt.Printf("ok: %d shard(s) on %d %s, %s bit-identical to in-process (hash %s%s, %d outputs)\n",
		o.n, len(groups), mode, o.workload, baseline.Hash[0], baseline.Hash[1], len(baseline.Outputs))
	return nil
}

func main() {
	var (
		doLaunch  = flag.Bool("launch", false, "spawn worker processes and verify against in-process")
		n         = flag.Int("n", 4, "cluster size in shards (launcher mode)")
		procs     = flag.Int("procs", 0, "worker processes to split the shards across (launcher mode; 0 = one per shard)")
		shard     = flag.Int("shard", -1, "this process's shard id (worker mode)")
		shardsArg = flag.String("shards", "", "comma-separated shard ids this process hosts (worker mode; first is the lead shard)")
		addrs     = flag.String("addrs", "", "comma-separated node addresses, index = shard id (worker mode)")
		name      = flag.String("workload", "stencil", "workload: stencil, circuit, or logreg")
		steps     = flag.Int("steps", 0, "workload steps (0 = workload default)")
		timeout   = flag.Duration("timeout", 60*time.Second, "launcher kill deadline")
		supervise = flag.Bool("supervise", false, "run under the self-healing supervisor (worker: RunSupervised; launcher: respawn dead workers)")
		partial   = flag.Bool("partial", false, "with -supervise: recover single-shard failures by partial restart (survivors park at their frontier)")
		ckpt      = flag.String("ckpt", "", "checkpoint spill directory (worker mode, with -supervise)")
		reborn    = flag.Bool("reborn", false, "this worker is a respawn: announce rebirth so the cluster restarts from checkpoints")
		kills     = flag.Int("kill", 0, "SIGKILL this many randomly chosen workers mid-run (launcher mode, with -supervise)")
		seed      = flag.Int64("seed", 1, "chaos kill RNG seed (launcher mode)")
		corrupt   = flag.Float64("corrupt", 0, "probability of flipping one bit in each outbound TCP frame")
		faultSeed = flag.Uint64("fault-seed", 1, "wire-corruption RNG seed (worker mode)")
		partition = flag.Duration("partition", 0, "isolate -partition-shard from every peer for this long from process start")
		partShard = flag.Int("partition-shard", -1, "shard to isolate behind the -partition window")
		corrCkpt  = flag.Bool("corrupt-ckpt", false, "flip one bit in a victim's newest checkpoint generation before each respawn (launcher mode, with -supervise -kill)")
		doServe   = flag.Bool("serve", false, "run as a long-lived job server: a resident host accepting submitted jobs over a JSON-lines control socket")
		listen    = flag.String("listen", "127.0.0.1:0", "control-socket listen address (server mode)")
		maxJobs   = flag.Int("max-jobs", 2, "jobs running concurrently on the resident host; the rest queue FIFO (server mode)")
		doSubmit  = flag.Bool("submit", false, "submit one job to a running server, wait, and print its result (client mode)")
		server    = flag.String("server", "", "job server control address (client mode)")
		statsAddr = flag.String("stats", "", "HTTP listen address for the live /stats observability endpoint (server mode; empty = off)")
		doSmoke   = flag.Bool("stats-smoke", false, "boot a supervised server, submit a job, scrape /stats mid-run, and validate its schema (CI smoke)")
	)
	flag.Parse()

	hosted := []int(nil)
	if *shardsArg != "" {
		var err error
		if hosted, err = parseShardList(*shardsArg); err != nil {
			fmt.Fprintln(os.Stderr, "godcr-node: -shards:", err)
			os.Exit(2)
		}
		if *shard < 0 {
			*shard = hosted[0]
		}
	}

	switch {
	case *doSmoke:
		if err := runStatsSmoke(*n); err != nil {
			fmt.Fprintln(os.Stderr, "godcr-node: stats smoke:", err)
			os.Exit(1)
		}
	case *doServe:
		err := runServe(serveOpts{
			shards: *n, maxJobs: *maxJobs, listen: *listen,
			supervise: *supervise, ckptDir: *ckpt,
			statsAddr: *statsAddr,
		}, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "godcr-node:", err)
			os.Exit(1)
		}
	case *doSubmit:
		if *server == "" {
			fmt.Fprintln(os.Stderr, "godcr-node: -submit needs -server")
			os.Exit(2)
		}
		if err := runSubmit(*server, *name, *steps); err != nil {
			fmt.Fprintln(os.Stderr, "godcr-node:", err)
			os.Exit(1)
		}
	case *doLaunch:
		err := launch(launchOpts{
			n: *n, workload: *name, steps: *steps, timeout: *timeout, procs: *procs,
			supervise: *supervise, partial: *partial, kills: *kills, seed: *seed,
			corrupt:   *corrupt,
			partition: *partition, partitionShard: *partShard, corruptCkpt: *corrCkpt,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "godcr-node:", err)
			os.Exit(1)
		}
	case *shard >= 0:
		list := strings.Split(*addrs, ",")
		if *addrs == "" || *shard >= len(list) {
			fmt.Fprintf(os.Stderr, "godcr-node: -shard %d needs -addrs with at least %d entries\n", *shard, *shard+1)
			os.Exit(2)
		}
		rep, err := runWorker(workerOpts{
			shard: *shard, hosted: hosted, addrs: list, workload: *name, steps: *steps,
			supervise: *supervise, partial: *partial, ckptDir: *ckpt, reborn: *reborn,
			corrupt: *corrupt, faultSeed: *faultSeed,
			partitionShard: *partShard, partitionDur: *partition,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "godcr-node:", err)
			os.Exit(1)
		}
		buf, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "godcr-node:", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(buf, '\n'))
	default:
		flag.Usage()
		os.Exit(2)
	}
}
