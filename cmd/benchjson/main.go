// Command benchjson times the core stencil and circuit workloads and
// writes a machine-readable benchmark record — the committed
// BENCH_core.json — so perf regressions show up in review as a diff
// rather than a vibe. Every row reports the median of repeated runs
// (see bench). Regenerate with `make bench-json`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"godcr"
)

type result struct {
	// Name is workload/shards (plus "/journal" for journal-on runs).
	Name string `json:"name"`
	// NsPerOp is the median wall-clock of one full workload execution
	// (setup + run + teardown).
	NsPerOp int64 `json:"ns_per_op"`
	// Runs is the number of timed repetitions behind the median.
	Runs int `json:"runs"`
}

type record struct {
	GoVersion string `json:"go_version"`
	GoOS      string `json:"goos"`
	GoArch    string `json:"goarch"`
	// JournalOverheadPct is the stencil@4 slowdown of Config.Journal,
	// in percent (negative = noise in the journal's favor). The journal
	// must be cheap: one append per op on one shard.
	JournalOverheadPct float64 `json:"journal_overhead_pct"`
	// CheckpointOverheadPct is the stencil@4 slowdown of periodic
	// checkpoints (CheckpointEvery=16) over journal-only, in percent.
	// A cut snapshots the journal prefix and version vector on shard 0;
	// it must stay in the same noise band as the journal itself.
	CheckpointOverheadPct float64 `json:"checkpoint_overhead_pct"`
	// TCPLoopbackOverheadPct is the stencil@4 slowdown of running each
	// shard behind its own TCP-loopback endpoint (demand pulls, binary
	// codec, frame coalescing) versus the in-process backend (which
	// pushes ghost data), in percent of a full workload execution. The
	// two sides are timed interleaved in one window (benchPair), so a
	// load shift on a shared box biases both medians instead of
	// whichever ran second.
	TCPLoopbackOverheadPct float64 `json:"tcp_loopback_overhead_pct"`
	// TCPCRCOverheadPct is the modelled share of the stencil@4
	// TCP-loopback execution spent on the per-frame CRC32C pair (header
	// CRC + payload CRC, computed on send and verified on receive):
	// CRCNsPerByte × TCPBytesPerOp ÷ the tcp row's ns/op, in percent.
	// Castagnoli CRC32 is a hardware instruction on amd64/arm64, so
	// end-to-end frame integrity must stay in the low single digits;
	// the record refuses to commit a number at or above 3%.
	TCPCRCOverheadPct float64 `json:"tcp_crc_overhead_pct"`
	// CRCNsPerByte is the CRC32C cost of one frame-shaped checksum pair
	// (a 42-byte header sum plus a payload sum, at the run's mean frame
	// size) divided by the frame's bytes: the per-byte unit cost behind
	// TCPCRCOverheadPct.
	CRCNsPerByte float64 `json:"crc_ns_per_byte"`
	// TCPBytesPerOp is the frame bytes one stencil@4 TCP-loopback
	// execution checksums: BytesOut + BytesIn summed over the four
	// endpoints' WireStats (every frame is summed once by its sender and
	// once by its receiver). Self-sends count in WireStats but are never
	// checksummed, so the model errs high.
	TCPBytesPerOp float64 `json:"tcp_bytes_per_op"`
	// RecoveryFullNs / RecoveryPartialNs are the median wall-clock from
	// a mid-run shard death (stencil@4 over TCP loopback, one shard's
	// cluster torn down after its first checkpoint spill, then respawned
	// reborn on the same address) to every shard completing, under the
	// classic full rollback vs Config.PartialRestart. Partial must come
	// in under full: survivors skip their retained prefix instead of
	// re-executing it, and the replay window's fence barriers are served
	// from the park instead of re-crossing the wire.
	RecoveryFullNs    int64 `json:"recovery_full_ns"`
	RecoveryPartialNs int64 `json:"recovery_partial_ns"`
	// RecoveryPartialSavingsPct is how much of the full-restart recovery
	// latency the partial path saves, in percent.
	RecoveryPartialSavingsPct float64 `json:"recovery_partial_savings_pct"`
	// StatsOverheadPct is the stencil@4 slowdown of the per-stage timer
	// tree (on by default; see Config.DisableTimers) versus the same
	// run with timers off, in percent, timed as an interleaved pair.
	// The hot path is two clock reads and two atomic adds per span, so
	// the record refuses to commit an observability tax at or above 2%.
	StatsOverheadPct float64 `json:"stats_overhead_pct"`
	// StageNs breaks one stencil@4 execution down by pipeline stage —
	// coarse analysis, fence waits, fine analysis, point bodies, wire
	// waits, collectives — read from the same per-stage timer tree the
	// godcr-node /stats endpoint serves (total ns summed over shards,
	// one representative run; absolute values vary with the host, the
	// column exists so the shape of the profile is reviewable).
	StageNs map[string]int64 `json:"stage_ns"`
	// JobsPerSec is the resident multi-job host's mixed-workload
	// throughput: batches of stencil+circuit+logreg jobs streamed through
	// one godcr.Host (max-jobs=2, in-process backend, shards=4), jobs
	// divided by the median batch wall-clock. The host — cluster, task
	// registry, detector — is built once and reused across the whole
	// stream, which is the point of the job plane.
	JobsPerSec float64  `json:"jobs_per_sec"`
	Results    []result `json:"results"`
}

// registrar is the registration seam shared by a single-job Runtime and
// a resident multi-job Host.
type registrar interface {
	RegisterTask(name string, fn godcr.TaskFn)
}

func registerStencilTasks(rt registrar) {
	rt.RegisterTask("bump", func(tc *godcr.TaskContext) (float64, error) {
		x := tc.Region(0).Field("x")
		x.Rect().Each(func(p godcr.Point) bool { x.Set(p, x.At(p)+1); return true })
		return 0, nil
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

func stencilProgram(tiles, steps int) godcr.Program {
	return func(ctx *godcr.Context) error {
		r := ctx.CreateRegion(godcr.R1(0, int64(tiles*16)-1), "x")
		owned := ctx.PartitionEqual(r, tiles)
		ghost := ctx.PartitionHalo(owned, 1)
		interior := ctx.PartitionInterior(owned, 1)
		ctx.Fill(r, "x", 1)
		dom := godcr.R1(0, int64(tiles)-1)
		for s := 0; s < steps; s++ {
			ctx.IndexLaunch(godcr.Launch{Task: "bump", Domain: dom,
				Reqs: []godcr.RegionReq{{Part: owned, Priv: godcr.ReadWrite, Fields: []string{"x"}}}})
			ctx.IndexLaunch(godcr.Launch{Task: "smooth", Domain: dom,
				Reqs: []godcr.RegionReq{
					{Part: interior, Priv: godcr.ReadWrite, Fields: []string{"x"}},
					{Part: ghost, Priv: godcr.ReadOnly, Fields: []string{"x"}}}})
		}
		ctx.ExecutionFence()
		return nil
	}
}

func runStencil(cfg godcr.Config, tiles, steps int) error {
	rt := godcr.NewRuntime(cfg)
	defer rt.Shutdown()
	registerStencilTasks(rt)
	return rt.Execute(stencilProgram(tiles, steps))
}

// stageBreakdown runs one instrumented stencil and reads the per-stage
// totals off the runtime's timer tree — the same counters godcr-node's
// /stats endpoint serves live.
func stageBreakdown(shards, tiles, steps int) (map[string]int64, error) {
	rt := godcr.NewRuntime(godcr.Config{Shards: shards})
	defer rt.Shutdown()
	registerStencilTasks(rt)
	if err := rt.Execute(stencilProgram(tiles, steps)); err != nil {
		return nil, err
	}
	snap := rt.TimerSnapshot()
	stages := make(map[string]int64)
	for _, path := range []string{
		"attempt", "coarse/analysis", "fine/fence_wait", "fine/analysis",
		"execute/point", "execute/pull_wire", "collective",
	} {
		if s := snap.Find(path); s != nil {
			stages[path] = s.TotalNs
		}
	}
	if stages["attempt"] == 0 || stages["coarse/analysis"] == 0 || stages["execute/point"] == 0 {
		return nil, fmt.Errorf("timer tree empty after an instrumented run: %v", stages)
	}
	return stages, nil
}

// runStencilTCP runs the stencil with every shard behind its own
// TCP-loopback endpoint — one runtime per shard, frames crossing real
// sockets. Still one OS process: the row measures the wire cost
// (payload encode + framing + socket hop per message), not exec. The
// returned WireStats sum every endpoint's frame counters.
func runStencilTCP(shards, tiles, steps int) (godcr.WireStats, error) {
	var ws godcr.WireStats
	lns := make([]net.Listener, shards)
	addrs := make([]string, shards)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return ws, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	rts := make([]*godcr.Runtime, shards)
	trs := make([]*godcr.TCPTransport, shards)
	for i := range rts {
		tr, err := godcr.NewTCPTransport(godcr.TCPOptions{
			Self: godcr.NodeID(i), Addrs: addrs, Listener: lns[i],
		})
		if err != nil {
			return ws, err
		}
		trs[i] = tr
		rts[i] = godcr.NewRuntime(godcr.Config{Shards: shards, Transport: tr})
		registerStencilTasks(rts[i])
	}
	var wg sync.WaitGroup
	errs := make([]error, shards)
	for i := range rts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = rts[i].Execute(stencilProgram(tiles, steps))
		}(i)
	}
	wg.Wait()
	for i, rt := range rts {
		rt.Shutdown()
		st := trs[i].Stats()
		ws.FramesOut += st.FramesOut
		ws.BytesOut += st.BytesOut
		ws.FramesIn += st.FramesIn
		ws.BytesIn += st.BytesIn
	}
	for _, err := range errs {
		if err != nil {
			return ws, err
		}
	}
	return ws, nil
}

var crcSink uint32

// crcNsPerByte times the CRC32C work of one frame-shaped checksum pair
// — a header sum over the 42-byte prefix+header and a payload sum over
// the rest, as the frame codec computes them — at the given frame size,
// and returns the median over a few windows in ns per frame byte.
func crcNsPerByte(frameBytes int) float64 {
	const hdr, trailer = 42, 4
	if frameBytes < hdr+2*trailer {
		frameBytes = hdr + 2*trailer
	}
	buf := make([]byte, frameBytes)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	tab := crc32.MakeTable(crc32.Castagnoli)
	var sink uint32
	samples := make([]float64, 0, 7)
	for len(samples) < cap(samples) {
		n, s := 0, time.Now()
		for time.Since(s) < 20*time.Millisecond {
			for i := 0; i < 1024; i++ {
				sink ^= crc32.Checksum(buf[:hdr], tab)
				sink ^= crc32.Checksum(buf[hdr+trailer:frameBytes-trailer], tab)
			}
			n += 1024
		}
		samples = append(samples, float64(time.Since(s).Nanoseconds())/float64(n*frameBytes))
	}
	crcSink = sink // keep the sums observable
	sort.Float64s(samples)
	return samples[len(samples)/2]
}

func registerCircuitTasks(rt registrar) {
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

func circuitProgram(nnodes, ntiles, nsteps int) godcr.Program {
	return func(ctx *godcr.Context) error {
		grid := godcr.R1(0, int64(nnodes)-1)
		tiles := godcr.R1(0, int64(ntiles)-1)
		nodes := ctx.CreateRegion(grid, "voltage", "charge")
		owned := ctx.PartitionEqual(nodes, ntiles)
		rects := make([]godcr.Rect, ntiles)
		for i := range rects {
			rects[i] = grid
		}
		all := ctx.PartitionCustom(nodes, tiles, rects)
		ctx.Fill(nodes, "voltage", 1.0)
		for step := 0; step < nsteps; step++ {
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
			fm.Reduce(godcr.ReduceAdd).Get()
		}
		ctx.ExecutionFence()
		return nil
	}
}

func runCircuit(cfg godcr.Config, nnodes, ntiles, nsteps int) error {
	rt := godcr.NewRuntime(cfg)
	defer rt.Shutdown()
	registerCircuitTasks(rt)
	return rt.Execute(circuitProgram(nnodes, ntiles, nsteps))
}

func registerLogregTasks(rt registrar) {
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

// logregProgram: future-fed gradient descent — each step's launch
// arguments depend on the previous step's future-map reduction.
func logregProgram(nsamples, ntiles, nsteps int) godcr.Program {
	return func(ctx *godcr.Context) error {
		grid := godcr.R1(0, int64(nsamples)-1)
		tiles := godcr.R1(0, int64(ntiles)-1)
		data := ctx.CreateRegion(grid, "x", "y")
		owned := ctx.PartitionEqual(data, ntiles)
		ctx.IndexLaunch(godcr.Launch{
			Task: "lr_init", Domain: tiles,
			Reqs: []godcr.RegionReq{{Part: owned, Priv: godcr.WriteDiscard, Fields: []string{"x", "y"}}},
		})
		w := 0.0
		for step := 0; step < nsteps; step++ {
			fm := ctx.IndexLaunch(godcr.Launch{
				Task: "lr_grad", Domain: tiles,
				Reqs: []godcr.RegionReq{{Part: owned, Priv: godcr.ReadOnly, Fields: []string{"x", "y"}}},
				Args: []float64{w},
			})
			w -= 0.5 * fm.Reduce(godcr.ReduceAdd).Get() / float64(nsamples)
		}
		ctx.ExecutionFence()
		return nil
	}
}

// benchJobs measures mixed-job throughput on one resident host: every
// batch streams stencil+circuit+logreg jobs (two of each) through the
// same godcr.Host with maxJobs running concurrently, FIFO-admitted like
// the godcr-node job server. The host and its task registry persist
// across the entire bench — per-job cost is job creation plus the
// program run, not cluster construction. Returns the row and the
// jobs/sec implied by the median batch.
func benchJobs(shards, maxJobs int) (result, float64) {
	h := godcr.NewHost(godcr.Config{Shards: shards})
	defer h.Shutdown()
	registerStencilTasks(h)
	registerCircuitTasks(h)
	registerLogregTasks(h)
	programs := []godcr.Program{
		stencilProgram(8, 10),
		circuitProgram(64, 8, 10),
		logregProgram(48, 8, 6),
	}
	const perWorkload = 2
	var nextID uint64 // job ids name wire namespaces; monotone across the stream
	batch := func() error {
		slots := make(chan struct{}, maxJobs)
		errs := make([]error, len(programs)*perWorkload)
		var wg sync.WaitGroup
		k := 0
		for _, prog := range programs {
			for j := 0; j < perWorkload; j++ {
				idx := k
				k++
				nextID++
				id := nextID
				slots <- struct{}{}
				wg.Add(1)
				go func(idx int, id uint64, prog godcr.Program) {
					defer wg.Done()
					defer func() { <-slots }()
					rt := h.NewJob(id)
					defer rt.Shutdown()
					errs[idx] = rt.Execute(prog)
				}(idx, id, prog)
			}
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	res := bench(fmt.Sprintf("jobs/mixed/shards=%d/max-jobs=%d", shards, maxJobs), batch)
	jobsPerSec := float64(len(programs)*perWorkload) * float64(time.Second.Nanoseconds()) / float64(res.NsPerOp)
	return res, jobsPerSec
}

// recoveryLatency measures one mid-run shard-death recovery: four
// supervised single-shard runtimes over TCP loopback, shard `victim`'s
// cluster torn down abruptly once its first periodic checkpoint has
// spilled (no goodbye, like a SIGKILL), then respawned reborn on the
// same address and checkpoint directory. Returns the wall-clock from
// the kill to the last shard completing. With partial=true the
// survivors must actually recover through the partial path (the row
// would be mislabeled otherwise).
func recoveryLatency(partial bool, steps int) (time.Duration, error) {
	const shards = 4
	const victim = 1
	lns := make([]net.Listener, shards)
	addrs := make([]string, shards)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	dirs := make([]string, shards)
	for i := range dirs {
		d, err := os.MkdirTemp("", "godcr-bench-ckpt-*")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(d)
		dirs[i] = d
	}
	mkRuntime := func(i int, ln net.Listener) (*godcr.Runtime, error) {
		tr, err := godcr.NewTCPTransport(godcr.TCPOptions{
			Self: godcr.NodeID(i), Addrs: addrs, Listener: ln,
		})
		if err != nil {
			return nil, err
		}
		rt := godcr.NewRuntime(godcr.Config{
			Shards:          shards,
			Transport:       tr,
			CheckpointEvery: 4,
			CheckpointDir:   dirs[i],
			HeartbeatEvery:  5 * time.Millisecond,
			OpDeadline:      10 * time.Second,
			PartialRestart:  partial,
		})
		registerStencilTasks(rt)
		return rt, nil
	}
	pol := godcr.SupervisorPolicy{MaxRestarts: 8, Backoff: 10 * time.Millisecond, JitterSeed: 42}
	rts := make([]*godcr.Runtime, shards)
	for i := range rts {
		rt, err := mkRuntime(i, lns[i])
		if err != nil {
			return 0, err
		}
		rts[i] = rt
	}
	prog := stencilProgram(8, steps)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		if i == victim {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = rts[i].RunSupervised(prog, pol)
		}(i)
	}
	victimDone := make(chan struct{})
	go func() {
		defer close(victimDone)
		rts[victim].RunSupervised(prog, pol) // dies mid-run; error expected
	}()
	// Kill once the victim's own recorder has spilled a cut with
	// progress — a mid-run death with a usable on-disk resume point.
	spillBy := time.Now().Add(20 * time.Second)
	for {
		if cp, err := godcr.LoadCheckpoint(dirs[victim]); err == nil && cp != nil && cp.Frontier > 0 {
			break
		}
		if time.Now().After(spillBy) {
			return 0, fmt.Errorf("victim never spilled a checkpoint")
		}
		time.Sleep(500 * time.Microsecond)
	}
	killed := time.Now()
	rts[victim].Shutdown()
	<-victimDone
	// Respawn reborn: same address, same checkpoint directory.
	var ln net.Listener
	rebindBy := time.Now().Add(10 * time.Second)
	for {
		var err error
		if ln, err = net.Listen("tcp", addrs[victim]); err == nil {
			break
		}
		if time.Now().After(rebindBy) {
			return 0, fmt.Errorf("rebind %s: %v", addrs[victim], err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	reborn, err := mkRuntime(victim, ln)
	if err != nil {
		return 0, err
	}
	rts[victim] = reborn
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[victim] = rts[victim].RunSupervised(prog, pol)
	}()
	wg.Wait()
	lat := time.Since(killed)
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	hash := rts[0].ControlHash()
	for i := 1; i < shards; i++ {
		if rts[i].ControlHash() != hash {
			return 0, fmt.Errorf("control hash split after recovery")
		}
	}
	if partial {
		var partials uint64
		for i, rt := range rts {
			if i == victim {
				continue
			}
			partials += rt.Stats().PartialRestarts
		}
		if partials == 0 {
			return 0, fmt.Errorf("partial restart did not engage")
		}
	}
	for _, rt := range rts {
		rt.Shutdown()
	}
	return lat, nil
}

// recoveryMedian repeats recoveryLatency and returns the median, which
// shrugs off one unlucky detector/backoff alignment.
func recoveryMedian(partial bool, steps, reps int) (time.Duration, error) {
	lats := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		lat, err := recoveryLatency(partial, steps)
		if err != nil {
			return 0, err
		}
		lats = append(lats, lat)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[len(lats)/2], nil
}

// bench paces: every row gets at least benchMinReps timed runs and
// roughly benchTargetTime of wall clock, after two warmups.
const (
	benchMinReps    = 20
	benchTargetTime = time.Second
)

// bench times fn and reports the median nanoseconds per run. The
// median, not the mean, is the location statistic every row uses: on
// a shared box an occasional scheduler or GC hiccup drags a mean far
// from what a typical run costs, and the overhead ratios this record
// exists for would then compare noise floors instead of code paths
// (the recovery rows already report medians for the same reason).
func bench(name string, fn func() error) result {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", name, err)
		os.Exit(1)
	}
	for i := 0; i < 2; i++ {
		if err := fn(); err != nil {
			fail(err)
		}
	}
	var lats []time.Duration
	t0 := time.Now()
	for len(lats) < benchMinReps || time.Since(t0) < benchTargetTime {
		s := time.Now()
		if err := fn(); err != nil {
			fail(err)
		}
		lats = append(lats, time.Since(s))
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return result{Name: name, NsPerOp: lats[len(lats)/2].Nanoseconds(), Runs: len(lats)}
}

// benchPair times two functions run strictly interleaved — A, B, A,
// B, … inside one window — and returns both medians. Overhead ratios
// must come from a pair: on a shared box the load level drifts between
// windows, and two rows timed back to back would compare different
// machines wearing the same hostname.
func benchPair(nameA string, fnA func() error, nameB string, fnB func() error) (result, result) {
	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", name, err)
		os.Exit(1)
	}
	for i := 0; i < 2; i++ {
		if err := fnA(); err != nil {
			fail(nameA, err)
		}
		if err := fnB(); err != nil {
			fail(nameB, err)
		}
	}
	var la, lb []time.Duration
	t0 := time.Now()
	for len(la) < benchMinReps || time.Since(t0) < 2*benchTargetTime {
		s := time.Now()
		if err := fnA(); err != nil {
			fail(nameA, err)
		}
		la = append(la, time.Since(s))
		s = time.Now()
		if err := fnB(); err != nil {
			fail(nameB, err)
		}
		lb = append(lb, time.Since(s))
	}
	sort.Slice(la, func(i, j int) bool { return la[i] < la[j] })
	sort.Slice(lb, func(i, j int) bool { return lb[i] < lb[j] })
	return result{Name: nameA, NsPerOp: la[len(la)/2].Nanoseconds(), Runs: len(la)},
		result{Name: nameB, NsPerOp: lb[len(lb)/2].Nanoseconds(), Runs: len(lb)}
}

func main() {
	out := flag.String("out", "BENCH_core.json", "output file ('-' for stdout)")
	flag.Parse()

	const steps = 20
	rec := record{GoVersion: runtime.Version(), GoOS: runtime.GOOS, GoArch: runtime.GOARCH}
	for _, shards := range []int{1, 4, 8} {
		shards := shards
		rec.Results = append(rec.Results, bench(
			fmt.Sprintf("stencil/shards=%d", shards),
			func() error { return runStencil(godcr.Config{Shards: shards}, 8, steps) }))
	}
	for _, shards := range []int{1, 4, 8} {
		shards := shards
		rec.Results = append(rec.Results, bench(
			fmt.Sprintf("circuit/shards=%d", shards),
			func() error { return runCircuit(godcr.Config{Shards: shards}, 64, 8, steps) }))
	}
	off := bench("stencil/shards=4/journal=off",
		func() error { return runStencil(godcr.Config{Shards: 4}, 8, steps) })
	on := bench("stencil/shards=4/journal=on",
		func() error { return runStencil(godcr.Config{Shards: 4, Journal: true}, 8, steps) })
	ckpt := bench("stencil/shards=4/checkpoint=16",
		func() error { return runStencil(godcr.Config{Shards: 4, CheckpointEvery: 16}, 8, steps) })
	rec.Results = append(rec.Results, off, on, ckpt)
	rec.JournalOverheadPct = 100 * (float64(on.NsPerOp) - float64(off.NsPerOp)) / float64(off.NsPerOp)
	rec.CheckpointOverheadPct = 100 * (float64(ckpt.NsPerOp) - float64(on.NsPerOp)) / float64(on.NsPerOp)

	// The wire path: every shard behind its own TCP-loopback endpoint
	// (the runtime pulls there), timed as an interleaved pair against
	// the in-process backend (which pushes) so the ratio compares code
	// paths, not load windows.
	mem, tcp := benchPair(
		"stencil/shards=4/transport=mem/paired-vs-tcp-loopback",
		func() error { return runStencil(godcr.Config{Shards: 4}, 8, steps) },
		"stencil/shards=4/transport=tcp-loopback",
		func() error { _, err := runStencilTCP(4, 8, steps); return err })
	rec.Results = append(rec.Results, tcp)
	rec.TCPLoopbackOverheadPct = 100 * (float64(tcp.NsPerOp) - float64(mem.NsPerOp)) / float64(mem.NsPerOp)

	// The integrity cost, modelled from unit costs: CRC32C ns per frame
	// byte at the run's mean frame size, times the bytes one execution
	// checksums, over the tcp row's ns/op. Hardware CRC32C must keep
	// end-to-end frame integrity effectively free.
	ws, err := runStencilTCP(4, 8, steps)
	if err != nil || ws.FramesOut == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: tcp wire stats: %v (%d frames)\n", err, ws.FramesOut)
		os.Exit(1)
	}
	rec.CRCNsPerByte = crcNsPerByte(int(ws.BytesOut / ws.FramesOut))
	rec.TCPBytesPerOp = float64(ws.BytesOut + ws.BytesIn)
	rec.TCPCRCOverheadPct = 100 * rec.CRCNsPerByte * rec.TCPBytesPerOp / float64(tcp.NsPerOp)
	if rec.TCPCRCOverheadPct >= 3 {
		fmt.Fprintf(os.Stderr, "benchjson: frame CRCs cost %.1f%% (>= 3%% budget) of a tcp-loopback execution\n",
			rec.TCPCRCOverheadPct)
		os.Exit(1)
	}

	// The observability tax: every row above ran with the per-stage
	// timer tree on (the default); pair it against Config.DisableTimers
	// to price it. The plane is only allowed to exist if it is near
	// free — refuse the record at or above 2%.
	timersOff, timersOn := benchPair(
		"stencil/shards=4/timers=off",
		func() error { return runStencil(godcr.Config{Shards: 4, DisableTimers: true}, 8, steps) },
		"stencil/shards=4/timers=on",
		func() error { return runStencil(godcr.Config{Shards: 4}, 8, steps) })
	rec.Results = append(rec.Results, timersOff, timersOn)
	rec.StatsOverheadPct = 100 * (float64(timersOn.NsPerOp) - float64(timersOff.NsPerOp)) / float64(timersOff.NsPerOp)
	if rec.StatsOverheadPct >= 2 {
		fmt.Fprintf(os.Stderr, "benchjson: per-stage timers cost %.1f%% (>= 2%% budget) over a timer-free run\n",
			rec.StatsOverheadPct)
		os.Exit(1)
	}
	stages, err := stageBreakdown(4, 8, steps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: stage breakdown:", err)
		os.Exit(1)
	}
	rec.StageNs = stages

	const recoveryReps = 5
	full, err := recoveryMedian(false, 40, recoveryReps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: recovery/full:", err)
		os.Exit(1)
	}
	part, err := recoveryMedian(true, 40, recoveryReps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: recovery/partial:", err)
		os.Exit(1)
	}
	rec.RecoveryFullNs = full.Nanoseconds()
	rec.RecoveryPartialNs = part.Nanoseconds()
	rec.RecoveryPartialSavingsPct = 100 * (float64(full.Nanoseconds()) - float64(part.Nanoseconds())) / float64(full.Nanoseconds())
	rec.Results = append(rec.Results,
		result{Name: "recovery/stencil/shards=4/scope=full", NsPerOp: full.Nanoseconds(), Runs: recoveryReps},
		result{Name: "recovery/stencil/shards=4/scope=partial", NsPerOp: part.Nanoseconds(), Runs: recoveryReps})
	if part >= full {
		fmt.Fprintf(os.Stderr, "benchjson: partial recovery (%v) not below full (%v)\n", part, full)
		os.Exit(1)
	}

	// Multi-job throughput on one resident host: the job plane's whole
	// pitch is that a stream of jobs shares cluster construction, so the
	// row runs against a Host built once outside the timed window.
	jobsRow, jobsPerSec := benchJobs(4, 2)
	rec.Results = append(rec.Results, jobsRow)
	rec.JobsPerSec = jobsPerSec

	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d results, journal overhead %+.1f%%)\n",
		*out, len(rec.Results), rec.JournalOverheadPct)
}
