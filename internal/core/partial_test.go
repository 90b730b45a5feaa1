package core

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"godcr/internal/cluster"
	"godcr/internal/testutil"
)

// Partial restart: when a failure names a single shard, the survivors
// park at their frontier — they re-run the attempt but replay their own
// work from retained stores and scalar logs instead of recomputing it —
// while only the failed shard re-executes its gap from the checkpoint.
// The tests below assert the scope decision engages (Stats counters),
// that survivors actually skipped work (ReplaySkips), and — the
// invariant everything else exists for — that recovery stays
// bit-identical to a fault-free run.

// partialWorkload is one (register, build) pair safe to run under
// supervision: build records only the final successful attempt's output
// vector into out (a crashed attempt never reaches the recorder, or its
// record is overwritten by the attempt that completes).
type partialWorkload struct {
	name     string
	register func(rt *Runtime)
	build    func(out *vecCell) Program
}

func partialWorkloads() []partialWorkload {
	return []partialWorkload{
		{
			name:     "stencil",
			register: registerStencilTasks,
			build: func(out *vecCell) Program {
				return stencil1DProgram(64, 8, 6, 1.0, func(state, flux []float64) error {
					return out.record(append(append([]float64(nil), state...), flux...))
				})
			},
		},
		{
			name:     "circuit",
			register: registerCircuitTasks,
			build: func(out *vecCell) Program {
				// The sum cell accumulates across attempts (a crashed
				// attempt may record a stale sum); the voltage vector plus
				// the control hash carry the bit-identity assertion.
				var sums sumCell
				return circuitProgram(32, 8, 4, &sums, func(voltage []float64) error {
					return out.record(append([]float64(nil), voltage...))
				})
			},
		},
		{
			name:     "logreg",
			register: registerLogregTasks,
			build: func(out *vecCell) Program {
				return logregProgram(48, 8, 10, out)
			},
		},
	}
}

// TestPartialRestartMatrix crashes a seeded-random shard mid-run on the
// in-process backend with Config.PartialRestart on and demands: the
// recovery engages the partial path (the heartbeat conviction names one
// shard, the quiesce exchange agrees on a plan with that shard as sole
// rejoiner), the survivors replay at least part of their gap from
// retained state instead of recomputing it, and the run converges to
// outputs and a ControlHash bit-identical to the fault-free baseline.
func TestPartialRestartMatrix(t *testing.T) {
	for _, wl := range partialWorkloads() {
		t.Run(wl.name, func(t *testing.T) {
			var base vecCell
			brt := runProgram(t, Config{Shards: 4, SafetyChecks: true}, wl.register, wl.build(&base))
			wantOut, wantHash := base.get(), brt.ControlHash()
			if wantHash == ([2]uint64{}) {
				t.Fatal("zero baseline control hash")
			}
			// Every row runs under WireEncode, so partial recovery's
			// replay buffers and re-served results cross the binary
			// wire codec. The crash lands mid-run by the fault-free
			// run's own per-shard send count.
			sends := sendsPerShard(t, Config{Shards: 4, WireEncode: true}, wl.register, wl.build(&vecCell{}))
			for _, seed := range []uint64{1, 2} {
				t.Run(fmt.Sprintf("codec=binary/seed=%d", seed), func(t *testing.T) {
					testutil.CheckGoroutines(t)
					rng := rand.New(rand.NewSource(int64(seed)))
					node := cluster.NodeID(rng.Intn(4))
					after := midRunSend(rng, sends[node])
					rt := NewRuntime(Config{
						Shards:          4,
						SafetyChecks:    true,
						WireEncode:      true,
						PartialRestart:  true,
						CheckpointEvery: 8,
						HeartbeatEvery:  3 * time.Millisecond,
						HeartbeatPhi:    12,
						OpDeadline:      2 * time.Second,
						Faults: &cluster.FaultPlan{
							Stalls: []cluster.StallWindow{{Node: node, AfterSends: after, Crash: true}},
						},
					})
					defer rt.Shutdown()
					wl.register(rt)
					var out vecCell
					err := rt.RunSupervised(wl.build(&out), SupervisorPolicy{
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
					st := rt.Stats()
					if st.PartialRestarts == 0 {
						t.Fatalf("single-shard crash recovered without a partial restart: %+v", st)
					}
					if st.ReplaySkips == 0 {
						t.Fatalf("partial restart replayed nothing from retained state: %+v", st)
					}
					got := out.get()
					if len(got) != len(wantOut) {
						t.Fatalf("recovered run has %d outputs, want %d", len(got), len(wantOut))
					}
					for j := range wantOut {
						// Bit-identical, not approximately equal.
						if got[j] != wantOut[j] {
							t.Fatalf("output[%d] = %v, want %v", j, got[j], wantOut[j])
						}
					}
					if got := rt.ControlHash(); got != wantHash {
						t.Fatalf("control hash %x, want %x", got, wantHash)
					}
				})
			}
		})
	}
}

// TestPartialRestartEscalation forces a partial attempt to fail (a
// divergence verdict fires only while a partial plan is in force) and
// asserts the supervisor escalates: the next attempt votes ineligible,
// the cluster agrees on a full restart, and the run still converges
// bit-identically.
func TestPartialRestartEscalation(t *testing.T) {
	testutil.CheckGoroutines(t)
	const ncells, ntiles, nsteps = 64, 4, 6
	wantState, wantFlux := referenceStencil1D(ncells, 1.0, nsteps)
	var refOut outputCell
	wantHash := referenceRun(t, registerStencilTasks,
		stencil1DProgram(ncells, ntiles, nsteps, 1.0, refOut.record))
	sends := sendsPerShard(t, Config{Shards: 4, SafetyChecks: true, CheckpointEvery: 8}, registerStencilTasks,
		stencil1DProgram(ncells, ntiles, nsteps, 1.0, func(_, _ []float64) error { return nil }))

	rt := NewRuntime(Config{
		Shards:          4,
		SafetyChecks:    true,
		PartialRestart:  true,
		CheckpointEvery: 8,
		HeartbeatEvery:  3 * time.Millisecond,
		HeartbeatPhi:    12,
		OpDeadline:      2 * time.Second,
		Faults: &cluster.FaultPlan{
			// Halfway through shard 2's fault-free traffic.
			Stalls: []cluster.StallWindow{{Node: 2, AfterSends: sends[2] / 2, Crash: true}},
		},
	})
	defer rt.Shutdown()
	registerStencilTasks(rt)
	var fired atomic.Bool
	rt.testPerturb = func(shard int, seq uint64) uint64 {
		p := rt.lastPlan.Load()
		if p != nil && p.partial && shard == 1 && seq == 18 && fired.CompareAndSwap(false, true) {
			return 0xBAD
		}
		return 0
	}
	var out outputCell
	err := rt.RunSupervised(
		stencil1DProgram(ncells, ntiles, nsteps, 1.0, out.record),
		SupervisorPolicy{MaxRestarts: 6, Backoff: time.Millisecond})
	if err != nil {
		t.Fatalf("RunSupervised: %v", err)
	}
	if !fired.Load() {
		t.Fatal("no partial attempt ever ran (the perturbation never fired)")
	}
	st := rt.Stats()
	if st.PartialRestarts == 0 {
		t.Fatalf("escalation test saw no partial attempt: %+v", st)
	}
	if st.FullRestarts == 0 {
		t.Fatalf("failed partial attempt did not escalate to a full restart: %+v", st)
	}
	if err := out.compare(wantState, wantFlux); err != nil {
		t.Fatalf("escalated run diverged from fault-free outputs: %v", err)
	}
	if got := rt.ControlHash(); got != wantHash {
		t.Fatalf("escalated control hash %x, want %x", got, wantHash)
	}
}

// TestPartialRestartHistoryScope: the supervisor's attempt history must
// attribute each restart's scope and the shards it re-executed. A crash
// recovers partially (restarted = the convicted shard alone); a
// divergence during that partial attempt forces the next restart to
// full scope (restarted = every shard); the final failure was never
// restarted and carries no scope.
func TestPartialRestartHistoryScope(t *testing.T) {
	testutil.CheckGoroutines(t)
	sends := sendsPerShard(t, Config{Shards: 4, SafetyChecks: true, CheckpointEvery: 8}, registerStencilTasks,
		stencil1DProgram(64, 4, 6, 1.0, func(_, _ []float64) error { return nil }))
	rt := NewRuntime(Config{
		Shards:          4,
		SafetyChecks:    true,
		PartialRestart:  true,
		CheckpointEvery: 8,
		HeartbeatEvery:  3 * time.Millisecond,
		HeartbeatPhi:    12,
		OpDeadline:      2 * time.Second,
		Faults: &cluster.FaultPlan{
			// Halfway through shard 2's fault-free traffic.
			Stalls: []cluster.StallWindow{{Node: 2, AfterSends: sends[2] / 2, Crash: true}},
		},
	})
	defer rt.Shutdown()
	registerStencilTasks(rt)
	// Every resumed attempt diverges at op 18: the recovery never heals,
	// exhausting the budget with one partial and one full restart in the
	// history.
	rt.testPerturb = func(shard int, seq uint64) uint64 {
		if rt.lastPlan.Load() != nil && shard == 1 && seq == 18 {
			return 0xBAD
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
	if len(se.History) != maxRestarts+1 {
		t.Fatalf("history has %d entries, want %d", len(se.History), maxRestarts+1)
	}
	first := se.History[0]
	var down *cluster.ShardDownError
	if !errors.As(first.Err, &down) {
		t.Fatalf("history[0].Err = %v, want *ShardDownError", first.Err)
	}
	if first.Scope != ScopePartial {
		t.Fatalf("history[0].Scope = %v, want partial", first.Scope)
	}
	if len(first.Restarted) != 1 || first.Restarted[0] != int(down.Shard) {
		t.Fatalf("history[0].Restarted = %v, want [%d]", first.Restarted, down.Shard)
	}
	second := se.History[1]
	var div *DivergenceError
	if !errors.As(second.Err, &div) {
		t.Fatalf("history[1].Err = %v, want *DivergenceError", second.Err)
	}
	if second.Scope != ScopeFull {
		t.Fatalf("history[1].Scope = %v, want full (divergence must not retry partially)", second.Scope)
	}
	if want := []int{0, 1, 2, 3}; len(second.Restarted) != len(want) {
		t.Fatalf("history[1].Restarted = %v, want %v", second.Restarted, want)
	}
	final := se.History[len(se.History)-1]
	if final.Scope != ScopeNone || final.Restarted != nil {
		t.Fatalf("final failure has scope %v restarted %v, want none (never restarted)", final.Scope, final.Restarted)
	}
	msg := se.Error()
	if !strings.Contains(msg, "recovered partial") || !strings.Contains(msg, "recovered full") {
		t.Fatalf("SupervisorError message does not attribute restart scopes: %s", msg)
	}
}

// TestPartialRestartTCP is the multi-process partial recovery column of
// the determinism matrix: one runtime per shard behind real loopback
// TCP sockets, the victim torn down abruptly and respawned on its old
// address. The survivors must recover via the partial path — their
// stats show a partial-scope attempt with replayed (not recomputed)
// work — and every process converges to outputs and a ControlHash
// bit-identical to the in-process baseline. Survivors never roll back:
// their retained frontier work is served from the replay buffer, not
// re-executed.
func TestPartialRestartTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-runtime recovery soak")
	}
	// Longer-running variants of the matrix workloads, so the kill lands
	// with plenty of gap left to recover.
	workloads := []struct {
		name     string
		register func(rt *Runtime)
		build    func(out *vecCell) Program
	}{
		{
			name:     "stencil",
			register: registerStencilTasks,
			build: func(out *vecCell) Program {
				return stencil1DProgram(64, 8, 12, 1.0, func(state, flux []float64) error {
					return out.record(append(append([]float64(nil), state...), flux...))
				})
			},
		},
		{
			name:     "circuit",
			register: registerCircuitTasks,
			build: func(out *vecCell) Program {
				var sums sumCell
				return circuitProgram(32, 8, 10, &sums, func(voltage []float64) error {
					return out.record(append([]float64(nil), voltage...))
				})
			},
		},
		{
			name:     "logreg",
			register: registerLogregTasks,
			build: func(out *vecCell) Program {
				// Enough steps that the seq-triggered kill always lands
				// with gap left to recover.
				return logregProgram(48, 8, 40, out)
			},
		},
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			testPartialRestartTCP(t, wl.register, wl.build)
		})
	}
}

func testPartialRestartTCP(t *testing.T, register func(rt *Runtime), build func(out *vecCell) Program) {
	testutil.CheckGoroutines(t)
	const shards = 3

	var base vecCell
	brt := runProgram(t, Config{Shards: shards, SafetyChecks: true}, register, build(&base))
	wantOut, wantHash := base.get(), brt.ControlHash()
	if wantHash == ([2]uint64{}) {
		t.Fatal("zero baseline control hash")
	}

	lns := make([]net.Listener, shards)
	addrs := make([]string, shards)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	dirs := make([]string, shards)
	for i := range dirs {
		dirs[i] = filepath.Join(t.TempDir(), "ckpt")
	}
	mkTransport := func(i int, ln net.Listener) *cluster.TCPTransport {
		tr, err := cluster.NewTCPTransport(cluster.TCPOptions{
			Self: cluster.NodeID(i), Addrs: addrs, Listener: ln,
		})
		if err != nil {
			t.Fatalf("transport %d: %v", i, err)
		}
		return tr
	}
	mkConfig := func(i int, ln net.Listener) Config {
		cfg := remoteRecoveryConfig(shards, mkTransport(i, ln), dirs[i])
		cfg.PartialRestart = true
		return cfg
	}

	const victim = 1 // a non-recorder shard: both survivors keep live replay buffers
	rts := make([]*Runtime, shards)
	outs := make([]*vecCell, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := range rts {
		rts[i] = NewRuntime(mkConfig(i, lns[i]))
		register(rts[i])
		outs[i] = &vecCell{}
	}
	// Deterministic mid-run kill: once the victim's control stream
	// reaches killSeq (well before the end of every workload here), park
	// it until the victim's own fine stage has spilled a cut with
	// progress, then tear its cluster down abruptly — sockets die, no
	// goodbye. Seq-triggered instead of polling from the test goroutine:
	// a fast workload can otherwise finish before a poll-based kill
	// lands, leaving the respawn to rejoin a cluster that is gone.
	const killSeq = 16
	var killOnce sync.Once
	rts[victim].testPerturb = func(_ int, seq uint64) uint64 {
		if seq >= killSeq {
			killOnce.Do(func() {
				deadline := time.Now().Add(20 * time.Second)
				for {
					if cp, err := LoadCheckpoint(dirs[victim]); err == nil && cp != nil && cp.Frontier > 0 {
						break
					}
					if time.Now().After(deadline) {
						break // kill anyway; the post-mortem check reports it
					}
					time.Sleep(time.Millisecond)
				}
				// Death must be atomic, like the real SIGKILL it stands in
				// for. Mark the attempt aborted first (a dead process
				// spills nothing past its death — without this, the
				// post-poison drain cuts checkpoints whose digests embed
				// zero-substituted futures), then close the cluster
				// synchronously before returning to the app thread (an
				// async close leaves a window where the drain streams
				// zero-substituted collective contributions to the
				// survivors through still-open sockets — values a real
				// kill could never emit).
				if rs := rts[victim].run.Load(); rs != nil {
					rts[victim].abortLocalOn(rs, fmt.Errorf("test: simulated SIGKILL"))
				}
				rts[victim].Shutdown()
			})
		}
		return 0
	}
	for i := 0; i < shards; i++ {
		if i == victim {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = rts[i].RunSupervised(build(outs[i]), remoteRecoveryPolicy())
		}(i)
	}
	victimDone := make(chan struct{})
	go func() {
		defer close(victimDone)
		rts[victim].RunSupervised(build(outs[victim]), remoteRecoveryPolicy())
	}()
	<-victimDone
	// The kill landed after at least one op-count cut; the spill must be
	// on disk for the respawn to resume from.
	if cp, err := LoadCheckpoint(dirs[victim]); err != nil || cp == nil || cp.Frontier == 0 {
		t.Fatalf("victim died without a usable spilled checkpoint (cp=%v, err=%v)", cp, err)
	}

	var ln net.Listener
	rebind := time.Now().Add(10 * time.Second)
	for {
		var err error
		if ln, err = net.Listen("tcp", addrs[victim]); err == nil {
			break
		}
		if time.Now().After(rebind) {
			t.Skipf("port %s not rebindable: %v", addrs[victim], err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	rts[victim] = NewRuntime(mkConfig(victim, ln))
	register(rts[victim])
	outs[victim] = &vecCell{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[victim] = rts[victim].RunSupervised(build(outs[victim]), remoteRecoveryPolicy())
	}()

	wg.Wait()
	for i := range rts {
		if errs[i] != nil {
			t.Fatalf("shard %d: %v", i, errs[i])
		}
	}
	// The survivors must have recovered through the partial path, and at
	// least part of their frontier must have been served from retained
	// state rather than recomputed.
	var partials, skips uint64
	for i := range rts {
		if i == victim {
			continue
		}
		st := rts[i].Stats()
		partials += st.PartialRestarts
		skips += st.ReplaySkips
	}
	if partials == 0 {
		t.Fatal("no survivor recorded a partial-scope attempt")
	}
	if skips == 0 {
		t.Fatal("survivors recomputed their whole gap (no replay skips)")
	}
	for i := range rts {
		if got := rts[i].ControlHash(); got != wantHash {
			t.Fatalf("shard %d control hash %x, want %x", i, got, wantHash)
		}
		vals := outs[i].get()
		if len(vals) != len(wantOut) {
			t.Fatalf("shard %d has %d outputs, want %d", i, len(vals), len(wantOut))
		}
		for j := range wantOut {
			if vals[j] != wantOut[j] {
				t.Fatalf("shard %d output[%d] = %v, want %v", i, j, vals[j], wantOut[j])
			}
		}
	}
	for _, rt := range rts {
		rt.Shutdown()
	}
}
