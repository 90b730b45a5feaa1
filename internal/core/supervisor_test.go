package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"godcr/internal/cluster"
	"godcr/internal/geom"
	"godcr/internal/testutil"
)

// referenceRun executes a program fault-free on a journaled 4-shard
// runtime and returns its control hash: the bit-identical target every
// supervised recovery below must reproduce.
func referenceRun(t *testing.T, register func(*Runtime), program Program) [2]uint64 {
	t.Helper()
	rt := NewRuntime(Config{Shards: 4, SafetyChecks: true, Journal: true})
	if register != nil {
		register(rt)
	}
	if err := rt.Execute(program); err != nil {
		t.Fatalf("fault-free Execute: %v", err)
	}
	hash := rt.ControlHash()
	rt.Shutdown()
	if hash == ([2]uint64{}) {
		t.Fatal("fault-free run produced a zero control hash")
	}
	return hash
}

// sendCounter wraps a transport and counts data frames by sender. On
// a fault-free run without heartbeats every frame is one Node.Send, so
// the counts are exactly what StallWindow.AfterSends triggers on.
type sendCounter struct {
	cluster.Transport
	sends []atomic.Uint64
}

func (s *sendCounter) Send(f *cluster.Frame) error {
	s.sends[f.From].Add(1)
	return s.Transport.Send(f)
}

// sendsPerShard runs program fault-free on the in-process backend
// under cfg and returns each shard's send count. Crash windows keyed
// on sends are derived from it (midRunSend) rather than hard-coded:
// how many messages a shard sends depends on the data path the runtime
// picks, so a fixed count that lands mid-run under one path can land
// after the end under another.
func sendsPerShard(t *testing.T, cfg Config, register func(*Runtime), program Program) []uint64 {
	t.Helper()
	sc := &sendCounter{Transport: cluster.NewMemTransport(cfg.Shards), sends: make([]atomic.Uint64, cfg.Shards)}
	cfg.Transport = sc
	cfg.Faults, cfg.HeartbeatEvery = nil, 0
	rt := NewRuntime(cfg)
	defer rt.Shutdown()
	if register != nil {
		register(rt)
	}
	if err := rt.Execute(program); err != nil {
		t.Fatalf("fault-free send-count run: %v", err)
	}
	out := make([]uint64, cfg.Shards)
	for i := range out {
		out[i] = sc.sends[i].Load()
	}
	return out
}

// midRunSend picks a seeded send index in the middle half [n/4, 3n/4)
// of a shard's fault-free send count n, so a crash keyed on it always
// fires, and fires with work left to recover.
func midRunSend(rng *rand.Rand, n uint64) uint64 {
	if n < 4 {
		return 1
	}
	return n/4 + uint64(rng.Int63n(int64(n/2)))
}

// TestSupervisorConvergence is the self-healing chaos soak: crash a
// seeded-random shard at a seeded-random point mid-run and demand
// RunSupervised (heartbeat detection → checkpoint → Revive → Resume)
// converges to outputs and a control hash bit-identical to the
// fault-free run — recovery is deterministic replay, not
// approximation.
func TestSupervisorConvergence(t *testing.T) {
	const ncells, ntiles, nsteps = 64, 4, 6
	wantState, wantFlux := referenceStencil1D(ncells, 1.0, nsteps)
	var refOut outputCell
	wantHash := referenceRun(t, registerStencilTasks,
		stencil1DProgram(ncells, ntiles, nsteps, 1.0, refOut.record))
	if err := refOut.compare(wantState, wantFlux); err != nil {
		t.Fatalf("fault-free run diverged from sequential reference: %v", err)
	}
	sends := sendsPerShard(t, Config{Shards: 4, SafetyChecks: true, CheckpointEvery: 8}, registerStencilTasks,
		stencil1DProgram(ncells, ntiles, nsteps, 1.0, func(_, _ []float64) error { return nil }))

	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			rng := rand.New(rand.NewSource(int64(seed)))
			node := cluster.NodeID(rng.Intn(4))
			after := midRunSend(rng, sends[node])
			rt := NewRuntime(Config{
				Shards:          4,
				SafetyChecks:    true,
				CheckpointEvery: 8,
				HeartbeatEvery:  3 * time.Millisecond,
				HeartbeatPhi:    12,
				OpDeadline:      2 * time.Second, // watchdog backstop
				Faults: &cluster.FaultPlan{
					Stalls: []cluster.StallWindow{{Node: node, AfterSends: after, Crash: true}},
				},
			})
			defer rt.Shutdown()
			registerStencilTasks(rt)
			var out outputCell
			var events []SupervisorEvent
			err := rt.RunSupervised(
				stencil1DProgram(ncells, ntiles, nsteps, 1.0, out.record),
				SupervisorPolicy{
					MaxRestarts: 6,
					Backoff:     time.Millisecond,
					JitterSeed:  seed,
					OnEvent:     func(e SupervisorEvent) { events = append(events, e) },
				})
			if err != nil {
				t.Fatalf("RunSupervised (crash shard %d after %d sends): %v", node, after, err)
			}
			if rt.TransportStats().Stalled == 0 {
				t.Fatalf("crash window never triggered (shard %d after %d sends)", node, after)
			}
			if len(events) == 0 {
				t.Fatal("crashed run completed without a supervisor restart")
			}
			if err := out.compare(wantState, wantFlux); err != nil {
				t.Fatalf("supervised run diverged from fault-free outputs: %v", err)
			}
			if got := rt.ControlHash(); got != wantHash {
				t.Fatalf("supervised control hash %x, want %x", got, wantHash)
			}
		})
	}
}

// TestSupervisorConvergenceCircuit repeats the soak on the circuit
// workload (aliased reduction partitions + future-map reductions),
// whose communication pattern stresses different protocols than the
// halo exchange.
func TestSupervisorConvergenceCircuit(t *testing.T) {
	const nnodes, ntiles, nsteps = 32, 4, 4
	var wantCell sumCell
	var wantVoltage vecCell
	program := func(cell *sumCell, out *vecCell) Program {
		return circuitProgram(nnodes, ntiles, nsteps, cell, out.record)
	}
	wantHash := referenceRun(t, registerCircuitTasks, program(&wantCell, &wantVoltage))
	wantSum, err := wantCell.agreed()
	if err != nil {
		t.Fatal(err)
	}
	sends := sendsPerShard(t, Config{Shards: 4, SafetyChecks: true, CheckpointEvery: 8}, registerCircuitTasks,
		program(&sumCell{}, &vecCell{}))

	for _, seed := range []uint64{4, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			rng := rand.New(rand.NewSource(int64(seed)))
			node := cluster.NodeID(rng.Intn(4))
			after := midRunSend(rng, sends[node])
			rt := NewRuntime(Config{
				Shards:          4,
				SafetyChecks:    true,
				CheckpointEvery: 8,
				HeartbeatEvery:  3 * time.Millisecond,
				HeartbeatPhi:    12,
				OpDeadline:      2 * time.Second,
				Faults: &cluster.FaultPlan{
					Stalls: []cluster.StallWindow{{Node: node, AfterSends: after, Crash: true}},
				},
			})
			defer rt.Shutdown()
			registerCircuitTasks(rt)
			var gotCell sumCell
			var gotVoltage vecCell
			err := rt.RunSupervised(program(&gotCell, &gotVoltage), SupervisorPolicy{
				MaxRestarts: 6,
				Backoff:     time.Millisecond,
				JitterSeed:  seed,
			})
			if err != nil {
				t.Fatalf("RunSupervised (crash shard %d after %d sends): %v", node, after, err)
			}
			if rt.TransportStats().Stalled == 0 {
				t.Fatalf("crash window never triggered (shard %d after %d sends)", node, after)
			}
			// A crashed attempt's program threads can reach the sum
			// recorder with a partial value before the abort lands;
			// only the final (successful) attempt's four entries are the
			// run's outputs.
			gotCell.mu.Lock()
			sums := append([]float64(nil), gotCell.sums...)
			gotCell.mu.Unlock()
			if len(sums) < 4 {
				t.Fatalf("successful attempt recorded %d sums, want 4", len(sums))
			}
			for _, s := range sums[len(sums)-4:] {
				if s != wantSum {
					t.Fatalf("future-map sum = %v, want %v (all: %v)", s, wantSum, sums)
				}
			}
			want, got := wantVoltage.get(), gotVoltage.get()
			if len(got) != len(want) {
				t.Fatalf("voltage has %d cells, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("voltage[%d] = %v, want %v", i, got[i], want[i])
				}
			}
			if got := rt.ControlHash(); got != wantHash {
				t.Fatalf("supervised control hash %x, want %x", got, wantHash)
			}
		})
	}
}

// TestDivergenceLocalization injects a control divergence (one shard's
// digest perturbed at one op) and asserts the all-gather vote names the
// culprit shard and op index — on every surviving shard, not just the
// one that happened to win the abort race.
func TestDivergenceLocalization(t *testing.T) {
	testutil.CheckGoroutines(t)
	const culprit, badSeq = 2, 12
	rt := NewRuntime(Config{
		Shards:       4,
		SafetyChecks: true,
		Journal:      true,
		OpDeadline:   5 * time.Second,
	})
	defer rt.Shutdown()
	registerStencilTasks(rt)
	rt.testPerturb = func(shard int, seq uint64) uint64 {
		if shard == culprit && seq == badSeq {
			return 0xBAD
		}
		return 0
	}
	err := rt.Execute(stencil1DProgram(64, 4, 4, 1.0,
		func(_, _ []float64) error { return nil }))
	if err == nil {
		t.Fatal("Execute succeeded despite a divergent shard")
	}
	var div *DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("err = %v, want *DivergenceError", err)
	}
	if div.Shard != culprit {
		t.Fatalf("vote blamed shard %d, want %d: %v", div.Shard, culprit, div)
	}
	if div.OpIndex != badSeq {
		t.Fatalf("vote localized op %d, want %d: %v", div.OpIndex, badSeq, div)
	}
	if div.MajorityHash == div.MinorityHash {
		t.Fatalf("verdict carries identical majority and minority hashes: %v", div)
	}
	// Acceptance: every shard reached the same verdict independently.
	for s := 0; s < 4; s++ {
		v := rt.divVerdicts[s].Load()
		if v == nil {
			t.Fatalf("shard %d recorded no divergence verdict", s)
		}
		if *v != *div {
			t.Fatalf("shard %d verdict %v disagrees with %v", s, v, div)
		}
	}
}

// TestSupervisorRecoversDivergence: a transient divergence (the
// perturbation fires once, on the first attempt only) must be healed by
// the supervisor — restart from a checkpoint truncated below the
// divergence op, then bit-identical convergence.
func TestSupervisorRecoversDivergence(t *testing.T) {
	testutil.CheckGoroutines(t)
	const ncells, ntiles, nsteps = 64, 4, 6
	wantState, wantFlux := referenceStencil1D(ncells, 1.0, nsteps)
	var refOut outputCell
	wantHash := referenceRun(t, registerStencilTasks,
		stencil1DProgram(ncells, ntiles, nsteps, 1.0, refOut.record))

	rt := NewRuntime(Config{
		Shards:          4,
		SafetyChecks:    true,
		CheckpointEvery: 4,
		OpDeadline:      5 * time.Second,
	})
	defer rt.Shutdown()
	registerStencilTasks(rt)
	var fired atomic.Bool
	rt.testPerturb = func(shard int, seq uint64) uint64 {
		if shard == 2 && seq == 18 && fired.CompareAndSwap(false, true) {
			return 0xBAD
		}
		return 0
	}
	var out outputCell
	var events []SupervisorEvent
	err := rt.RunSupervised(
		stencil1DProgram(ncells, ntiles, nsteps, 1.0, out.record),
		SupervisorPolicy{
			MaxRestarts: 3,
			Backoff:     time.Millisecond,
			OnEvent:     func(e SupervisorEvent) { events = append(events, e) },
		})
	if err != nil {
		t.Fatalf("RunSupervised: %v", err)
	}
	if !fired.Load() {
		t.Fatal("perturbation never fired")
	}
	var sawDivergence bool
	for _, e := range events {
		var div *DivergenceError
		if errors.As(e.Err, &div) {
			sawDivergence = true
			if want := uint64(18); div.OpIndex != want || div.Shard != 2 {
				t.Fatalf("divergence localized to shard %d op %d, want shard 2 op %d",
					div.Shard, div.OpIndex, want)
			}
			// The restart must not replay the polluted suffix.
			if e.Frontier >= div.OpIndex {
				t.Fatalf("restart frontier %d not truncated below divergence op %d",
					e.Frontier, div.OpIndex)
			}
		}
	}
	if !sawDivergence {
		t.Fatalf("no divergence among restart events: %+v", events)
	}
	if err := out.compare(wantState, wantFlux); err != nil {
		t.Fatalf("healed run diverged from fault-free outputs: %v", err)
	}
	if got := rt.ControlHash(); got != wantHash {
		t.Fatalf("healed control hash %x, want %x", got, wantHash)
	}
}

// TestSupervisorPermanentFailure: a divergence that recurs on every
// attempt must exhaust the restart budget and surface a
// SupervisorError whose history records each failed attempt.
func TestSupervisorPermanentFailure(t *testing.T) {
	testutil.CheckGoroutines(t)
	rt := NewRuntime(Config{
		Shards:          4,
		SafetyChecks:    true,
		CheckpointEvery: 4,
		OpDeadline:      5 * time.Second,
	})
	defer rt.Shutdown()
	registerStencilTasks(rt)
	rt.testPerturb = func(shard int, seq uint64) uint64 {
		if shard == 1 && seq == 14 {
			return 0xBAD // every attempt: a permanently broken shard
		}
		return 0
	}
	const maxRestarts = 2
	err := rt.RunSupervised(
		stencil1DProgram(64, 4, 6, 1.0, func(_, _ []float64) error { return nil }),
		SupervisorPolicy{MaxRestarts: maxRestarts, Backoff: time.Millisecond})
	var se *SupervisorError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SupervisorError", err)
	}
	if se.Attempts != maxRestarts+1 {
		t.Fatalf("gave up after %d attempts, want %d", se.Attempts, maxRestarts+1)
	}
	if len(se.History) != se.Attempts {
		t.Fatalf("history has %d entries for %d attempts", len(se.History), se.Attempts)
	}
	for i, f := range se.History {
		if f.Attempt != i+1 {
			t.Fatalf("history[%d].Attempt = %d", i, f.Attempt)
		}
		var div *DivergenceError
		if !errors.As(f.Err, &div) {
			t.Fatalf("history[%d].Err = %v, want *DivergenceError", i, f.Err)
		}
	}
	// Unwrap exposes the final failure for errors.As/Is on the verdict.
	var div *DivergenceError
	if !errors.As(err, &div) || div.Shard != 1 || div.OpIndex != 14 {
		t.Fatalf("SupervisorError does not unwrap to the divergence verdict: %v", err)
	}
}

// TestSupervisorUnrecoverableError: program errors are the user's bug,
// not a fault to heal — the raw error must surface without a restart.
func TestSupervisorUnrecoverableError(t *testing.T) {
	testutil.CheckGoroutines(t)
	rt := NewRuntime(Config{Shards: 2, Journal: true})
	defer rt.Shutdown()
	boom := errors.New("boom")
	err := rt.RunSupervised(func(ctx *Context) error {
		r := ctx.CreateRegion(geom.R1(0, 7), "x")
		ctx.Fill(r, "x", 1)
		return boom
	}, SupervisorPolicy{})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	var se *SupervisorError
	if errors.As(err, &se) {
		t.Fatalf("program error wrapped in SupervisorError: %v", err)
	}
}

// TestRunSupervisedValidation exercises the API-misuse paths.
func TestRunSupervisedValidation(t *testing.T) {
	rt := NewRuntime(Config{Shards: 2})
	defer rt.Shutdown()
	if err := rt.RunSupervised(nil, SupervisorPolicy{}); err == nil {
		t.Fatal("RunSupervised without Config.Journal succeeded")
	}
	crt := NewRuntime(Config{Shards: 2, Centralized: true, Journal: true})
	defer crt.Shutdown()
	if err := crt.RunSupervised(nil, SupervisorPolicy{}); err == nil {
		t.Fatal("RunSupervised with centralized control succeeded")
	}
}

// TestPeriodicCheckpoints: op-count and wall-clock checkpoint triggers
// must both publish cuts during healthy execution, and implying the
// journal from either trigger must be enough configuration.
func TestPeriodicCheckpoints(t *testing.T) {
	// Op-count trigger: CheckpointEvery implies Config.Journal.
	rt := runProgram(t, Config{Shards: 2, SafetyChecks: true, CheckpointEvery: 4},
		registerStencilTasks,
		stencil1DProgram(64, 4, 6, 1.0, func(_, _ []float64) error { return nil }))
	cp := rt.LatestCheckpoint()
	if cp == nil {
		t.Fatal("CheckpointEvery=4 cut no checkpoint")
	}
	if cp.Frontier == 0 {
		t.Fatal("periodic checkpoint has frontier 0")
	}
	if _, err := DecodeCheckpoint(cp.Encode()); err != nil {
		t.Fatalf("periodic checkpoint does not round-trip: %v", err)
	}

	// Wall-clock trigger: a deliberately slow program must be cut by the
	// interval timer even though no op-count trigger is configured.
	trt := NewRuntime(Config{Shards: 2, CheckpointInterval: time.Millisecond})
	defer trt.Shutdown()
	trt.RegisterTask("nap", func(tc *TaskContext) (float64, error) {
		time.Sleep(2 * time.Millisecond)
		return 0, nil
	})
	err := trt.Execute(func(ctx *Context) error {
		r := ctx.CreateRegion(geom.R1(0, 7), "x")
		p := ctx.PartitionEqual(r, 2)
		ctx.Fill(r, "x", 0)
		for i := 0; i < 5; i++ {
			ctx.IndexLaunch(Launch{
				Task: "nap", Domain: geom.R1(0, 1),
				Reqs: []RegionReq{{Part: p, Priv: ReadWrite, Fields: []string{"x"}}},
			})
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if trt.LatestCheckpoint() == nil {
		t.Fatal("CheckpointInterval cut no checkpoint")
	}
}
