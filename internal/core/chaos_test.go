package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"godcr/internal/cluster"
	"godcr/internal/geom"
	"godcr/internal/instance"
	"godcr/internal/testutil"
)

// chaosPlan is the standard soak plan: every fault class at once.
func chaosPlan(seed uint64) *cluster.FaultPlan {
	return &cluster.FaultPlan{
		Seed:      seed,
		Drop:      0.05,
		Duplicate: 0.05,
		Reorder:   0.1,
		JitterMax: 200 * time.Microsecond,
	}
}

// TestChaosStencilSoak runs the Figure 7 stencil under a lossy,
// duplicating, reordering, jittery transport and demands bit-identical
// results versus the sequential reference. The reliable-delivery
// sublayer plus per-link FIFO release must make the fault plan
// invisible to the application.
func TestChaosStencilSoak(t *testing.T) {
	const ncells, ntiles, nsteps = 64, 4, 5
	wantState, wantFlux := referenceStencil1D(ncells, 1.0, nsteps)
	check := func(state, flux []float64) error {
		for i := range wantState {
			// Bit-identical: faults may delay messages, never alter them.
			if state[i] != wantState[i] {
				return fmt.Errorf("state[%d] = %v, want %v", i, state[i], wantState[i])
			}
			if flux[i] != wantFlux[i] {
				return fmt.Errorf("flux[%d] = %v, want %v", i, flux[i], wantFlux[i])
			}
		}
		return nil
	}
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := Config{
				Shards:       4,
				SafetyChecks: true,
				Faults:       chaosPlan(seed),
				OpDeadline:   10 * time.Second, // quiet watchdog: must never fire
			}
			rt := runProgram(t, cfg, registerStencilTasks,
				stencil1DProgram(ncells, ntiles, nsteps, 1.0, check))
			st := rt.TransportStats()
			if st.Dropped == 0 || st.Duplicated == 0 || st.Reordered == 0 {
				t.Fatalf("fault plan injected nothing: %+v", st)
			}
			if st.Retransmits == 0 {
				t.Fatalf("drops recovered without retransmission: %+v", st)
			}
		})
	}
}

// circuitProgram is a miniature of examples/circuit: a scatter phase
// folds contributions into a shared field under the Reduce privilege
// (aliased partition), and a FutureMap reduction aggregates per-point
// results — the two communication patterns the stencil soak does not
// exercise.
func registerCircuitTasks(rt *Runtime) {
	rt.RegisterTask("charge_up", func(tc *TaskContext) (float64, error) {
		acc := tc.Region(0).Field("charge")
		total := 0.0
		acc.Rect().Each(func(p geom.Point) bool {
			acc.Fold(p, float64(tc.Point[0]+1)*0.25)
			total += float64(p[0])
			return true
		})
		return total, nil
	})
	rt.RegisterTask("update_v", func(tc *TaskContext) (float64, error) {
		v := tc.Region(0).Field("voltage")
		q := tc.Region(1).Field("charge")
		v.Rect().Each(func(p geom.Point) bool {
			v.Set(p, v.At(p)+q.At(p))
			return true
		})
		return 0, nil
	})
}

// sumCell collects the future-map sum from each replicated shard;
// every shard must resolve the future to the same value.
type sumCell struct {
	mu   sync.Mutex
	sums []float64
}

func (s *sumCell) add(v float64) {
	s.mu.Lock()
	s.sums = append(s.sums, v)
	s.mu.Unlock()
}

func (s *sumCell) agreed() (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range s.sums[1:] {
		if v != s.sums[0] {
			return 0, fmt.Errorf("shards disagree on future-map sum: %v", s.sums)
		}
	}
	return s.sums[0], nil
}

func circuitProgram(nnodes, ntiles, nsteps int, gotSum *sumCell, check func(voltage []float64) error) Program {
	return func(ctx *Context) error {
		grid := geom.R1(0, int64(nnodes)-1)
		tiles := geom.R1(0, int64(ntiles)-1)
		nodes := ctx.CreateRegion(grid, "voltage", "charge")
		owned := ctx.PartitionEqual(nodes, ntiles)
		// Aliased partition: every tile scatters into the whole region.
		rects := make([]geom.Rect, ntiles)
		for i := range rects {
			rects[i] = grid
		}
		all := ctx.PartitionCustom(nodes, tiles, rects)
		ctx.Fill(nodes, "voltage", 1.0)
		var sum float64
		for step := 0; step < nsteps; step++ {
			ctx.Fill(nodes, "charge", 0)
			fm := ctx.IndexLaunch(Launch{
				Task: "charge_up", Domain: tiles,
				Reqs: []RegionReq{{Part: all, Priv: Reduce, RedOp: instance.ReduceAdd, Fields: []string{"charge"}}},
			})
			ctx.IndexLaunch(Launch{
				Task: "update_v", Domain: tiles,
				Reqs: []RegionReq{
					{Part: owned, Priv: ReadWrite, Fields: []string{"voltage"}},
					{Part: owned, Priv: ReadOnly, Fields: []string{"charge"}},
				},
			})
			sum += fm.Reduce(instance.ReduceAdd).Get()
		}
		gotSum.add(sum)
		return check(ctx.InlineRead(nodes, "voltage"))
	}
}

// TestChaosCircuitSoak runs the circuit-style workload (reduction
// privileges + future-map reductions) under the full fault plan and
// compares against a fault-free run of the same program.
func TestChaosCircuitSoak(t *testing.T) {
	const nnodes, ntiles, nsteps = 32, 4, 4

	// Reference pass: same program, no faults, single shard.
	var wantCell sumCell
	var wantVoltage []float64
	runProgram(t, Config{Shards: 1, SafetyChecks: true}, registerCircuitTasks,
		circuitProgram(nnodes, ntiles, nsteps, &wantCell, func(v []float64) error {
			wantVoltage = append([]float64(nil), v...)
			return nil
		}))
	wantSum, err := wantCell.agreed()
	if err != nil {
		t.Fatal(err)
	}

	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var gotCell sumCell
			cfg := Config{
				Shards:       4,
				SafetyChecks: true,
				Faults:       chaosPlan(seed),
				OpDeadline:   10 * time.Second,
			}
			rt := runProgram(t, cfg, registerCircuitTasks,
				circuitProgram(nnodes, ntiles, nsteps, &gotCell, func(v []float64) error {
					for i := range wantVoltage {
						if v[i] != wantVoltage[i] {
							return fmt.Errorf("voltage[%d] = %v, want %v", i, v[i], wantVoltage[i])
						}
					}
					return nil
				}))
			gotSum, err := gotCell.agreed()
			if err != nil {
				t.Fatal(err)
			}
			if gotSum != wantSum {
				t.Fatalf("future-map sum = %v, want %v", gotSum, wantSum)
			}
			if st := rt.TransportStats(); st.Dropped == 0 {
				t.Fatalf("fault plan injected nothing: %+v", st)
			}
		})
	}
}

// TestWatchdogStallError crashes one shard's transport mid-run and
// asserts the deadlock watchdog converts the ensuing hang into a
// structured StallError with a per-shard progress snapshot — and that
// the abort leaves no goroutines behind.
func TestWatchdogStallError(t *testing.T) {
	// No goroutine leaks: everything the runtime spawned must unwind.
	testutil.CheckGoroutines(t)

	program := stencil1DProgram(64, 4, 5, 1.0, func(state, flux []float64) error { return nil })
	sends := sendsPerShard(t, Config{Shards: 4}, registerStencilTasks, program)
	rt := NewRuntime(Config{
		Shards:     4,
		OpDeadline: 300 * time.Millisecond,
		Faults: &cluster.FaultPlan{
			// Halfway through shard 2's fault-free traffic.
			Stalls: []cluster.StallWindow{{Node: 2, AfterSends: sends[2] / 2, Crash: true}},
		},
	})
	registerStencilTasks(rt)
	err := rt.Execute(program)
	if err == nil {
		t.Fatal("Execute succeeded despite a crashed shard")
	}
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	if stall.Deadline != 300*time.Millisecond {
		t.Fatalf("StallError.Deadline = %v", stall.Deadline)
	}
	if len(stall.Shards) != 4 {
		t.Fatalf("snapshot covers %d shards, want 4", len(stall.Shards))
	}
	blocked := 0
	for _, sp := range stall.Shards {
		if sp.Blocked {
			blocked++
			if sp.BlockedOn == "" {
				t.Fatalf("shard %d blocked on unnamed operation", sp.Shard)
			}
		}
	}
	if blocked == 0 {
		t.Fatalf("no shard reported blocked in %+v", stall.Shards)
	}
	rt.Shutdown()
}
