package core

import (
	"fmt"
	"math"
	"testing"

	"godcr/internal/geom"
	"godcr/internal/instance"
	"godcr/internal/mapper"
	"godcr/internal/region"
	"godcr/internal/testutil"
)

// runProgram executes a program on a fresh runtime and fails the test
// on error.
func runProgram(t *testing.T, cfg Config, register func(rt *Runtime), program Program) *Runtime {
	t.Helper()
	testutil.CheckGoroutines(t)
	rt := NewRuntime(cfg)
	if register != nil {
		register(rt)
	}
	if err := rt.Execute(program); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	rt.Shutdown()
	return rt
}

func TestFillAndInlineRead(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		runProgram(t, Config{Shards: shards, SafetyChecks: true}, nil, func(ctx *Context) error {
			r := ctx.CreateRegion(geom.R1(0, 9), "x")
			ctx.Fill(r, "x", 3.5)
			vals := ctx.InlineRead(r, "x")
			if len(vals) != 10 {
				return fmt.Errorf("got %d values", len(vals))
			}
			for i, v := range vals {
				if v != 3.5 {
					return fmt.Errorf("slot %d = %v", i, v)
				}
			}
			return nil
		})
	}
}

func TestUnwrittenReadsAsZero(t *testing.T) {
	runProgram(t, Config{Shards: 2, SafetyChecks: true}, nil, func(ctx *Context) error {
		r := ctx.CreateRegion(geom.R1(0, 4), "x")
		vals := ctx.InlineRead(r, "x")
		for _, v := range vals {
			if v != 0 {
				return fmt.Errorf("unwritten region read %v", v)
			}
		}
		return nil
	})
}

func TestIndexLaunchWritesAndReads(t *testing.T) {
	register := func(rt *Runtime) {
		rt.RegisterTask("init", func(tc *TaskContext) (float64, error) {
			acc := tc.Region(0).Field("x")
			acc.Rect().Each(func(p geom.Point) bool {
				acc.Set(p, float64(p[0]))
				return true
			})
			return 0, nil
		})
		rt.RegisterTask("double", func(tc *TaskContext) (float64, error) {
			acc := tc.Region(0).Field("x")
			acc.Rect().Each(func(p geom.Point) bool {
				acc.Set(p, acc.At(p)*2)
				return true
			})
			return 0, nil
		})
	}
	for _, shards := range []int{1, 2, 3, 4} {
		runProgram(t, Config{Shards: shards, SafetyChecks: true}, register, func(ctx *Context) error {
			r := ctx.CreateRegion(geom.R1(0, 99), "x")
			owned := ctx.PartitionEqual(r, 4)
			tiles := geom.R1(0, 3)
			ctx.IndexLaunch(Launch{
				Task: "init", Domain: tiles,
				Reqs: []RegionReq{{Part: owned, Priv: WriteDiscard, Fields: []string{"x"}}},
			})
			ctx.IndexLaunch(Launch{
				Task: "double", Domain: tiles,
				Reqs: []RegionReq{{Part: owned, Priv: ReadWrite, Fields: []string{"x"}}},
			})
			vals := ctx.InlineRead(r, "x")
			for i, v := range vals {
				if v != float64(i)*2 {
					return fmt.Errorf("shards=%d slot %d = %v, want %v", ctx.NumShards(), i, v, float64(i)*2)
				}
			}
			return nil
		})
	}
}

func TestSingleLaunchFuture(t *testing.T) {
	register := func(rt *Runtime) {
		rt.RegisterTask("answer", func(tc *TaskContext) (float64, error) {
			return tc.Args[0] * 2, nil
		})
	}
	runProgram(t, Config{Shards: 3, SafetyChecks: true}, register, func(ctx *Context) error {
		f := ctx.SingleLaunch(Launch{Task: "answer", Args: []float64{21}})
		if got := f.Get(); got != 42 {
			return fmt.Errorf("future = %v", got)
		}
		// The value resolves identically on every shard; branching on
		// it is control deterministic.
		if f.Get() > 0 {
			g := ctx.SingleLaunch(Launch{Task: "answer", Args: []float64{1}})
			if g.Get() != 2 {
				return fmt.Errorf("second future wrong")
			}
		}
		return nil
	})
}

func TestFutureMapReduce(t *testing.T) {
	register := func(rt *Runtime) {
		rt.RegisterTask("ident", func(tc *TaskContext) (float64, error) {
			return float64(tc.Point[0]), nil
		})
	}
	runProgram(t, Config{Shards: 4, SafetyChecks: true}, register, func(ctx *Context) error {
		r := ctx.CreateRegion(geom.R1(0, 7), "x")
		p := ctx.PartitionEqual(r, 8)
		fm := ctx.IndexLaunch(Launch{
			Task: "ident", Domain: geom.R1(0, 7),
			Reqs: []RegionReq{{Part: p, Priv: ReadOnly, Fields: []string{"x"}}},
		})
		sum := fm.Reduce(instance.ReduceAdd).Get()
		if sum != 28 {
			return fmt.Errorf("sum = %v", sum)
		}
		maxv := fm.Reduce(instance.ReduceMax).Get()
		if maxv != 7 {
			return fmt.Errorf("max = %v", maxv)
		}
		return nil
	})
}

// referenceStencil1D is the sequential semantics of the Figure 7
// program.
func referenceStencil1D(ncells int, init float64, nsteps int) (state, flux []float64) {
	state = make([]float64, ncells)
	flux = make([]float64, ncells)
	for i := range state {
		state[i] = init
		flux[i] = init
	}
	for t := 0; t < nsteps; t++ {
		for i := range state {
			state[i]++
		}
		for i := 1; i < ncells-1; i++ {
			flux[i] *= 2
		}
		prev := append([]float64(nil), state...)
		for i := 1; i < ncells-1; i++ {
			flux[i] += 0.5 * (prev[i-1] + prev[i+1])
		}
	}
	return state, flux
}

func registerStencilTasks(rt *Runtime) {
	rt.RegisterTask("add_one", func(tc *TaskContext) (float64, error) {
		acc := tc.Region(0).Field("state")
		acc.Rect().Each(func(p geom.Point) bool {
			acc.Set(p, acc.At(p)+1)
			return true
		})
		return 0, nil
	})
	rt.RegisterTask("mul_two", func(tc *TaskContext) (float64, error) {
		acc := tc.Region(0).Field("flux")
		acc.Rect().Each(func(p geom.Point) bool {
			acc.Set(p, acc.At(p)*2)
			return true
		})
		return 0, nil
	})
	rt.RegisterTask("stencil", func(tc *TaskContext) (float64, error) {
		flux := tc.Region(0).Field("flux")
		state := tc.Region(1).Field("state")
		flux.Rect().Each(func(p geom.Point) bool {
			left := state.At(geom.Pt1(p[0] - 1))
			right := state.At(geom.Pt1(p[0] + 1))
			flux.Set(p, flux.At(p)+0.5*(left+right))
			return true
		})
		return 0, nil
	})
}

// stencil1DProgram is the Figure 7 program.
func stencil1DProgram(ncells, ntiles, nsteps int, init float64, check func(state, flux []float64) error) Program {
	return func(ctx *Context) error {
		grid := geom.R1(0, int64(ncells)-1)
		tiles := geom.R1(0, int64(ntiles)-1)
		cells := ctx.CreateRegion(grid, "state", "flux")
		owned := ctx.PartitionEqual(cells, ntiles)
		interior := ctx.PartitionInterior(owned, 1)
		ghost := ctx.PartitionHalo(owned, 1)
		ctx.Fill(cells, "state", init)
		ctx.Fill(cells, "flux", init)
		for t := 0; t < nsteps; t++ {
			ctx.IndexLaunch(Launch{
				Task: "add_one", Domain: tiles,
				Reqs: []RegionReq{{Part: owned, Priv: ReadWrite, Fields: []string{"state"}}},
			})
			ctx.IndexLaunch(Launch{
				Task: "mul_two", Domain: tiles,
				Reqs: []RegionReq{{Part: interior, Priv: ReadWrite, Fields: []string{"flux"}}},
			})
			ctx.IndexLaunch(Launch{
				Task: "stencil", Domain: tiles,
				Reqs: []RegionReq{
					{Part: interior, Priv: ReadWrite, Fields: []string{"flux"}},
					{Part: ghost, Priv: ReadOnly, Fields: []string{"state"}},
				},
			})
		}
		if check == nil {
			return nil // no readback: the run moves only task-path data
		}
		state := ctx.InlineRead(cells, "state")
		flux := ctx.InlineRead(cells, "flux")
		return check(state, flux)
	}
}

// TestStencilFig7 runs the paper's Figure 7 program under DCR and
// checks it against sequential semantics, across shard counts and
// sharding functors.
func TestStencilFig7(t *testing.T) {
	const ncells, ntiles, nsteps = 64, 4, 5
	wantState, wantFlux := referenceStencil1D(ncells, 1.0, nsteps)
	check := func(state, flux []float64) error {
		for i := range wantState {
			if math.Abs(state[i]-wantState[i]) > 1e-12 {
				return fmt.Errorf("state[%d] = %v, want %v", i, state[i], wantState[i])
			}
			if math.Abs(flux[i]-wantFlux[i]) > 1e-12 {
				return fmt.Errorf("flux[%d] = %v, want %v", i, flux[i], wantFlux[i])
			}
		}
		return nil
	}
	for _, shards := range []int{1, 2, 3, 4, 6} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			runProgram(t, Config{Shards: shards, SafetyChecks: true}, registerStencilTasks,
				stencil1DProgram(ncells, ntiles, nsteps, 1.0, check))
		})
	}
}

func TestStencilTiledSharding(t *testing.T) {
	const ncells, ntiles, nsteps = 48, 6, 3
	wantState, wantFlux := referenceStencil1D(ncells, 2.0, nsteps)
	check := func(state, flux []float64) error {
		for i := range wantState {
			if math.Abs(state[i]-wantState[i]) > 1e-12 || math.Abs(flux[i]-wantFlux[i]) > 1e-12 {
				return fmt.Errorf("mismatch at %d", i)
			}
		}
		return nil
	}
	prog := func(ctx *Context) error {
		grid := geom.R1(0, int64(ncells)-1)
		tiles := geom.R1(0, int64(ntiles)-1)
		cells := ctx.CreateRegion(grid, "state", "flux")
		owned := ctx.PartitionEqual(cells, ntiles)
		interior := ctx.PartitionInterior(owned, 1)
		ghost := ctx.PartitionHalo(owned, 1)
		ctx.Fill(cells, "state", 2.0)
		ctx.Fill(cells, "flux", 2.0)
		for t := 0; t < nsteps; t++ {
			ctx.IndexLaunch(Launch{
				Task: "add_one", Domain: tiles, Sharding: mapper.Tiled,
				Reqs: []RegionReq{{Part: owned, Priv: ReadWrite, Fields: []string{"state"}}},
			})
			ctx.IndexLaunch(Launch{
				Task: "mul_two", Domain: tiles, Sharding: mapper.Tiled,
				Reqs: []RegionReq{{Part: interior, Priv: ReadWrite, Fields: []string{"flux"}}},
			})
			ctx.IndexLaunch(Launch{
				Task: "stencil", Domain: tiles, Sharding: mapper.Tiled,
				Reqs: []RegionReq{
					{Part: interior, Priv: ReadWrite, Fields: []string{"flux"}},
					{Part: ghost, Priv: ReadOnly, Fields: []string{"state"}},
				},
			})
		}
		state := ctx.InlineRead(cells, "state")
		flux := ctx.InlineRead(cells, "flux")
		return check(state, flux)
	}
	runProgram(t, Config{Shards: 3, SafetyChecks: true}, registerStencilTasks, prog)
}

func TestReductionPrivilege(t *testing.T) {
	register := func(rt *Runtime) {
		// Each point task folds its point id into every cell of the
		// whole (shared) region.
		rt.RegisterTask("contribute", func(tc *TaskContext) (float64, error) {
			acc := tc.Region(0).Field("sum")
			acc.Rect().Each(func(p geom.Point) bool {
				acc.Fold(p, float64(tc.Point[0]+1))
				return true
			})
			return 0, nil
		})
	}
	for _, shards := range []int{1, 2, 4} {
		runProgram(t, Config{Shards: shards, SafetyChecks: true}, register, func(ctx *Context) error {
			r := ctx.CreateRegion(geom.R1(0, 9), "sum")
			// Aliased partition: every color covers the whole region.
			all := ctx.PartitionCustom(r, geom.R1(0, 3), []geom.Rect{
				geom.R1(0, 9), geom.R1(0, 9), geom.R1(0, 9), geom.R1(0, 9),
			})
			ctx.Fill(r, "sum", 100)
			ctx.IndexLaunch(Launch{
				Task: "contribute", Domain: geom.R1(0, 3),
				Reqs: []RegionReq{{Part: all, Priv: Reduce, RedOp: instance.ReduceAdd, Fields: []string{"sum"}}},
			})
			vals := ctx.InlineRead(r, "sum")
			for i, v := range vals {
				if v != 100+1+2+3+4 {
					return fmt.Errorf("shards=%d slot %d = %v, want 110", ctx.NumShards(), i, v)
				}
			}
			return nil
		})
	}
}

func TestExecutionFence(t *testing.T) {
	register := func(rt *Runtime) {
		rt.RegisterTask("store7", func(tc *TaskContext) (float64, error) {
			acc := tc.Region(0).Field("x")
			acc.Rect().Each(func(p geom.Point) bool {
				acc.Set(p, 7)
				return true
			})
			return 0, nil
		})
	}
	rt := runProgram(t, Config{Shards: 2, SafetyChecks: true}, register, func(ctx *Context) error {
		r := ctx.CreateRegion(geom.R1(0, 9), "x")
		p := ctx.PartitionEqual(r, 2)
		ctx.IndexLaunch(Launch{
			Task: "store7", Domain: geom.R1(0, 1),
			Reqs: []RegionReq{{Part: p, Priv: WriteDiscard, Fields: []string{"x"}}},
		})
		ctx.ExecutionFence()
		vals := ctx.InlineRead(r, "x")
		for _, v := range vals {
			if v != 7 {
				return fmt.Errorf("fence did not order execution")
			}
		}
		return nil
	})
	if rt.Stats().PointTasks != 2*1 { // 2 points, counted cluster-wide once each
		t.Fatalf("PointTasks = %d", rt.Stats().PointTasks)
	}
}

func TestTaskErrorPropagates(t *testing.T) {
	rt := NewRuntime(Config{Shards: 2, SafetyChecks: true})
	defer rt.Shutdown()
	rt.RegisterTask("boom", func(tc *TaskContext) (float64, error) {
		if tc.Point[0] == 1 {
			return 0, fmt.Errorf("deliberate failure")
		}
		return 0, nil
	})
	err := rt.Execute(func(ctx *Context) error {
		r := ctx.CreateRegion(geom.R1(0, 3), "x")
		p := ctx.PartitionEqual(r, 2)
		ctx.IndexLaunch(Launch{
			Task: "boom", Domain: geom.R1(0, 1),
			Reqs: []RegionReq{{Part: p, Priv: WriteDiscard, Fields: []string{"x"}}},
		})
		ctx.ExecutionFence()
		return nil
	})
	if err == nil {
		t.Fatal("task error should propagate out of Execute")
	}
}

func TestReplicatedRNGIdentical(t *testing.T) {
	// All shards draw the same numbers, so branching on them is
	// control deterministic (paper Figure 4's fix).
	runProgram(t, Config{Shards: 4, SafetyChecks: true}, func(rt *Runtime) {
		rt.RegisterTask("nop", func(tc *TaskContext) (float64, error) { return 0, nil })
	}, func(ctx *Context) error {
		r := ctx.CreateRegion(geom.R1(0, 3), "x")
		p := ctx.PartitionEqual(r, 2)
		for i := 0; i < 10; i++ {
			if ctx.RNG().Float64() < 0.5 {
				ctx.IndexLaunch(Launch{Task: "nop", Domain: geom.R1(0, 1),
					Reqs: []RegionReq{{Part: p, Priv: ReadOnly, Fields: []string{"x"}}}})
			} else {
				ctx.Fill(r, "x", float64(i))
			}
		}
		ctx.ExecutionFence()
		return nil
	})
}

func TestMultipleRegionsAndFields(t *testing.T) {
	register := func(rt *Runtime) {
		rt.RegisterTask("axpy", func(tc *TaskContext) (float64, error) {
			x := tc.Region(0).Field("x")
			y := tc.Region(1).Field("y")
			a := tc.Args[0]
			y.Rect().Each(func(p geom.Point) bool {
				y.Set(p, y.At(p)+a*x.At(p))
				return true
			})
			return 0, nil
		})
	}
	runProgram(t, Config{Shards: 3, SafetyChecks: true}, register, func(ctx *Context) error {
		rx := ctx.CreateRegion(geom.R1(0, 29), "x")
		ry := ctx.CreateRegion(geom.R1(0, 29), "y")
		px := ctx.PartitionEqual(rx, 3)
		py := ctx.PartitionEqual(ry, 3)
		ctx.Fill(rx, "x", 2)
		ctx.Fill(ry, "y", 1)
		ctx.IndexLaunch(Launch{
			Task: "axpy", Domain: geom.R1(0, 2), Args: []float64{10},
			Reqs: []RegionReq{
				{Part: px, Priv: ReadOnly, Fields: []string{"x"}},
				{Part: py, Priv: ReadWrite, Fields: []string{"y"}},
			},
		})
		vals := ctx.InlineRead(ry, "y")
		for i, v := range vals {
			if v != 21 {
				return fmt.Errorf("y[%d] = %v, want 21", i, v)
			}
		}
		return nil
	})
}

func TestStatsCounters(t *testing.T) {
	rt := runProgram(t, Config{Shards: 2, SafetyChecks: true}, registerStencilTasks,
		stencil1DProgram(32, 4, 2, 1.0, func(state, flux []float64) error { return nil }))
	s := rt.Stats()
	if s.Ops == 0 || s.PointTasks == 0 {
		t.Fatalf("stats not collected: %+v", s)
	}
	if s.FencesInserted == 0 {
		t.Fatal("the stencil program must insert fences (Fig. 10)")
	}
	if s.FencesElided == 0 {
		t.Fatal("the stencil program must elide fences (Fig. 10)")
	}
	if s.RemotePulls+s.RemotePushes == 0 {
		t.Fatal("ghost exchange must move remote data (pull or push)")
	}
}

var _ = region.NoRegion // silence import if unused in some builds
