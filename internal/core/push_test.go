package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"godcr/internal/cluster"
	"godcr/internal/geom"
	"godcr/internal/testutil"
)

// Proactive data push (planmemo.go): when one process drives every
// shard, producers run the replicated analysis for the whole launch
// domain and ship ghost data at publication instead of answering
// demand pulls; across processes the runtime pulls. The tests below
// pin the protocol-substitution invariant — push must move exactly the
// data pull would have, with pull traffic dropping to zero on the
// steady-state path — and the fallback seams where push turns itself
// off (trace replay, partial-restart windows).

// TestDataPushReplacesPulls runs the stencil in-process, where the
// runtime pushes, and over one TCP endpoint per shard, where it pulls,
// and demands the protocol swap on the task path: every task-side
// ghost read in-process is satisfied by a push (the residual pulls are
// the program's final InlineReads, which stay on the demand protocol
// by design — the same steps without the readback pull nothing), with
// outputs and ControlHash bit-identical to the pull run.
func TestDataPushReplacesPulls(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	const shards = 4
	wl := parityWorkloads()[0] // the stencil with its final readback
	var basePulls uint64
	pulls := runOverTCP(t, wl, singletons(shards))
	for i, r := range pulls {
		if r.st.RemotePushes != 0 {
			t.Fatalf("tcp shard %d pushed %d pieces; one shard per process must pull", i, r.st.RemotePushes)
		}
		basePulls += r.st.RemotePulls
	}
	if basePulls == 0 {
		t.Fatal("pull-mode baseline moved no remote data")
	}

	push := runMem(t, wl, Config{Shards: shards})[0]
	st := push.st
	if st.RemotePushes == 0 {
		t.Fatalf("in-process run pushed nothing: %+v", st)
	}
	if st.RemotePulls+st.RemotePushes != basePulls {
		t.Fatalf("push run moved %d+%d transfers, want the pull run's %d: every pull must "+
			"become a push or stay an (inline-read) pull", st.RemotePulls, st.RemotePushes, basePulls)
	}
	if st.RemotePulls >= basePulls {
		t.Fatalf("push run still pulled %d of the pull run's %d transfers", st.RemotePulls, basePulls)
	}
	checkParity(t, "push run", push.out, pulls[0].out, push.hash, pulls[0].hash)

	// Without the readback the same steps pull nothing at all, and push
	// exactly what the full run pushed.
	steps := runProgram(t, Config{Shards: shards, SafetyChecks: true}, registerStencilTasks,
		stencil1DProgram(64, 8, 5, 1.0, nil)).Stats()
	if steps.RemotePulls != 0 || steps.RemotePushes != st.RemotePushes {
		t.Fatalf("readback-free run moved %d pulls + %d pushes, want 0 + %d",
			steps.RemotePulls, steps.RemotePushes, st.RemotePushes)
	}
}

// TestDataPushWithTracing brackets the stencil body in a trace on the
// in-process backend, where the runtime pushes. Replayed occurrences reuse recorded plans that predate
// the attempt's tag counters, so pushOK turns the protocol off for
// them and those reads fall back to demand pulls — both protocols
// serve one run, and the results stay exact.
func TestDataPushWithTracing(t *testing.T) {
	const ncells, ntiles, nsteps = 48, 4, 8
	wantState, wantFlux := referenceStencil1D(ncells, 1.0, nsteps)
	rt := NewRuntime(Config{Shards: 3, SafetyChecks: true})
	defer rt.Shutdown()
	registerStencilTasks(rt)
	prog := func(ctx *Context) error {
		cells := ctx.CreateRegion(geom.R1(0, int64(ncells)-1), "state", "flux")
		owned := ctx.PartitionEqual(cells, ntiles)
		interior := ctx.PartitionInterior(owned, 1)
		ghost := ctx.PartitionHalo(owned, 1)
		tiles := geom.R1(0, int64(ntiles)-1)
		ctx.Fill(cells, "state", 1)
		ctx.Fill(cells, "flux", 1)
		for s := 0; s < nsteps; s++ {
			ctx.BeginTrace(1)
			ctx.IndexLaunch(Launch{Task: "add_one", Domain: tiles,
				Reqs: []RegionReq{{Part: owned, Priv: ReadWrite, Fields: []string{"state"}}}})
			ctx.IndexLaunch(Launch{Task: "mul_two", Domain: tiles,
				Reqs: []RegionReq{{Part: interior, Priv: ReadWrite, Fields: []string{"flux"}}}})
			ctx.IndexLaunch(Launch{Task: "stencil", Domain: tiles,
				Reqs: []RegionReq{
					{Part: interior, Priv: ReadWrite, Fields: []string{"flux"}},
					{Part: ghost, Priv: ReadOnly, Fields: []string{"state"}}}})
			ctx.EndTrace(1)
		}
		state := ctx.InlineRead(cells, "state")
		flux := ctx.InlineRead(cells, "flux")
		for i := range wantState {
			if state[i] != wantState[i] || flux[i] != wantFlux[i] {
				return fmt.Errorf("results diverged at %d: state %v/%v flux %v/%v",
					i, state[i], wantState[i], flux[i], wantFlux[i])
			}
		}
		return nil
	}
	if err := rt.Execute(prog); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.TraceReplays == 0 {
		t.Fatalf("trace never replayed: %+v", st)
	}
	if st.RemotePushes == 0 {
		t.Fatal("recorded occurrences must push ghost data")
	}
	if st.RemotePulls == 0 {
		t.Fatal("replayed occurrences must fall back to demand pulls")
	}
}

// TestDataPushPartialRestart crashes one shard mid-run in-process,
// where the runtime pushes. Inside the partial-restart window survivors replay-skip their
// tasks, breaking the symmetric-enumeration invariant, so pushOK gates
// the protocol off until the catch-up rendezvous (and the rejoiner's
// adopted store drops stale push registrations). Recovery must stay
// bit-identical to the fault-free pull baseline.
func TestDataPushPartialRestart(t *testing.T) {
	var base vecCell
	brt := runProgram(t, Config{Shards: 4, SafetyChecks: true}, registerStencilTasks,
		stencil1DProgram(64, 8, 6, 1.0, func(state, flux []float64) error {
			return base.record(append(append([]float64(nil), state...), flux...))
		}))
	wantOut, wantHash := base.get(), brt.ControlHash()
	sends := sendsPerShard(t, Config{Shards: 4, SafetyChecks: true, CheckpointEvery: 8}, registerStencilTasks,
		stencil1DProgram(64, 8, 6, 1.0, func(_, _ []float64) error { return nil }))

	for _, seed := range []uint64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			rng := rand.New(rand.NewSource(int64(seed)))
			node := cluster.NodeID(rng.Intn(4))
			after := midRunSend(rng, sends[node])
			rt := NewRuntime(Config{
				Shards:          4,
				SafetyChecks:    true,
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
			registerStencilTasks(rt)
			var out vecCell
			err := rt.RunSupervised(stencil1DProgram(64, 8, 6, 1.0, func(state, flux []float64) error {
				return out.record(append(append([]float64(nil), state...), flux...))
			}), SupervisorPolicy{MaxRestarts: 6, Backoff: time.Millisecond, JitterSeed: seed})
			if err != nil {
				t.Fatalf("RunSupervised (crash shard %d after %d sends): %v", node, after, err)
			}
			if rt.TransportStats().Stalled == 0 {
				t.Fatalf("crash window never triggered (shard %d after %d sends)", node, after)
			}
			st := rt.Stats()
			if st.FullRestarts == 0 && st.PartialRestarts == 0 {
				t.Fatalf("crash recovered without any restart: %+v", st)
			}
			if st.RemotePushes == 0 {
				t.Fatalf("supervised push run pushed nothing: %+v", st)
			}
			if got := rt.ControlHash(); got != wantHash {
				t.Fatalf("control hash %x, want %x", got, wantHash)
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
		})
	}
}
