// Benchmark harness: one benchmark per figure of the paper's
// evaluation (§5), plus the microbenchmarks that calibrate the cluster
// simulator's cost constants and the ablation benchmarks for the
// design choices DESIGN.md calls out.
//
// Figures 12–20 run the calibrated simulator and report the figure's
// headline numbers as benchmark metrics (ratios, efficiencies,
// crossover points). Figure 21 and the microbenchmarks exercise the
// real runtime. Regenerate the full series with cmd/dcrbench.
package godcr_test

import (
	"fmt"
	"testing"
	"time"

	"godcr"
	"godcr/internal/metg"
	"godcr/internal/sim"
	"godcr/internal/workloads"
)

func pick(f workloads.Figure, label string, nodes int) sim.Result {
	for _, s := range f.Series {
		if s.Label != label {
			continue
		}
		for _, p := range s.Points {
			if p.Nodes == nodes {
				return p
			}
		}
	}
	panic(fmt.Sprintf("%s: no %q at %d", f.ID, label, nodes))
}

func lastEff(f workloads.Figure, label string) float64 {
	for _, s := range f.Series {
		if s.Label == label {
			e := workloads.Efficiency(s)
			return e[len(e)-1]
		}
	}
	panic("no series " + label)
}

// BenchmarkFig12Stencil regenerates Figure 12 (2-D stencil weak and
// strong scaling, no-CR vs SCR vs DCR).
func BenchmarkFig12Stencil(b *testing.B) {
	var a, s workloads.Figure
	for i := 0; i < b.N; i++ {
		a, s = workloads.Fig12a(), workloads.Fig12b()
	}
	dcr := pick(a, "Dynamic Control Replication", 512)
	scr := pick(a, "Static Control Replication", 512)
	nocr := pick(a, "No Control Replication", 512)
	b.ReportMetric(dcr.PerNode/scr.PerNode, "weak-dcr/scr@512")
	b.ReportMetric(dcr.PerNode/nocr.PerNode, "weak-dcr/nocr@512")
	b.ReportMetric(pick(s, "Dynamic Control Replication", 512).Throughput/
		pick(s, "Dynamic Control Replication", 64).Throughput, "strong-gain-64to512")
}

// BenchmarkFig13Circuit regenerates Figure 13 (circuit simulation).
func BenchmarkFig13Circuit(b *testing.B) {
	var f workloads.Figure
	for i := 0; i < b.N; i++ {
		f = workloads.Fig13a()
	}
	b.ReportMetric(pick(f, "Dynamic Control Replication", 512).PerNode/
		pick(f, "Static Control Replication", 512).PerNode, "dcr/scr@512")
	b.ReportMetric(pick(f, "Dynamic Control Replication", 512).PerNode/
		pick(f, "No Control Replication", 512).PerNode, "dcr/nocr@512")
}

// BenchmarkFig14Pennant regenerates Figure 14 (Pennant vs MPI).
func BenchmarkFig14Pennant(b *testing.B) {
	var f workloads.Figure
	for i := 0; i < b.N; i++ {
		f = workloads.Fig14()
	}
	dcr := pick(f, "Legion Dynamic Control Replication", 32).Throughput
	b.ReportMetric(dcr/pick(f, "MPI+CUDA", 32).Throughput, "dcr/mpi-cuda@256gpus")
	b.ReportMetric(dcr/pick(f, "MPI+CUDA+GPUDirect", 32).Throughput, "dcr/gpudirect@256gpus")
}

// BenchmarkFig15ResNet regenerates Figure 15 (ResNet-50 training).
func BenchmarkFig15ResNet(b *testing.B) {
	var f workloads.Figure
	for i := 0; i < b.N; i++ {
		f = workloads.Fig15()
	}
	b.ReportMetric(pick(f, "FlexFlow (Dynamic Control Replication)", 768).Makespan/
		pick(f, "TensorFlow", 768).Makespan, "dcr/tf-epoch@768gpus")
	b.ReportMetric(pick(f, "FlexFlow (No Control Replication)", 768).Makespan/
		pick(f, "FlexFlow (Dynamic Control Replication)", 768).Makespan, "nocr/dcr-epoch@768gpus")
}

// BenchmarkFig16Soleil regenerates Figure 16 (Soleil-X weak scaling).
func BenchmarkFig16Soleil(b *testing.B) {
	var f workloads.Figure
	for i := 0; i < b.N; i++ {
		f = workloads.Fig16()
	}
	b.ReportMetric(lastEff(f, "Soleil-X with Dynamic Control Replication"), "efficiency@1024gpus")
}

// BenchmarkFig17HTR regenerates Figure 17 (HTR weak scaling).
func BenchmarkFig17HTR(b *testing.B) {
	var qa, la workloads.Figure
	for i := 0; i < b.N; i++ {
		qa, la = workloads.Fig17a(), workloads.Fig17b()
	}
	b.ReportMetric(lastEff(qa, "HTR with Dynamic Control Replication"), "quartz-eff@9216cores")
	b.ReportMetric(lastEff(la, "HTR with Dynamic Control Replication"), "lassen-eff@512gpus")
}

// BenchmarkFig18Candle regenerates Figure 18 (CANDLE MLP training).
func BenchmarkFig18Candle(b *testing.B) {
	var f workloads.Figure
	for i := 0; i < b.N; i++ {
		f = workloads.Fig18()
	}
	b.ReportMetric(pick(f, "TensorFlow", 768).Makespan/
		pick(f, "FlexFlow (Dynamic Control Replication)", 768).Makespan, "tf/dcr-epoch@768gpus")
}

// BenchmarkFig19LogReg regenerates Figure 19 (Legate logistic
// regression vs Dask).
func BenchmarkFig19LogReg(b *testing.B) {
	var f workloads.Figure
	for i := 0; i < b.N; i++ {
		f = workloads.Fig19()
	}
	b.ReportMetric(pick(f, "Legate DCR CPU", 32).Throughput/
		pick(f, "Dask Centralized CPU", 32).Throughput, "legate/dask@32sockets")
}

// BenchmarkFig20CG regenerates Figure 20 (Legate CG vs Dask).
func BenchmarkFig20CG(b *testing.B) {
	var f workloads.Figure
	for i := 0; i < b.N; i++ {
		f = workloads.Fig20()
	}
	b.ReportMetric(pick(f, "Legate DCR CPU", 32).Throughput/
		pick(f, "Dask Centralized CPU", 32).Throughput, "legate/dask@32sockets")
}

// BenchmarkFig21METG measures METG(50%) on the real runtime for the
// four {trace, safe} configurations of Figure 21.
func BenchmarkFig21METG(b *testing.B) {
	for _, cfg := range []struct {
		name        string
		trace, safe bool
	}{
		{"NoTrace/NoSafe", false, false},
		{"NoTrace/Safe", false, true},
		{"Trace/NoSafe", true, false},
		{"Trace/Safe", true, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var m time.Duration
			for i := 0; i < b.N; i++ {
				var err error
				m, err = metg.Measure(metg.Options{
					Shards: 4, Steps: 15, Copies: 2, Trace: cfg.trace, Safe: cfg.safe,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m.Microseconds()), "metg-us")
		})
	}
}

// --- Calibration microbenchmarks (real runtime) -------------------------

// runStencilOnce executes a fixed stencil workload on a fresh runtime
// and returns its stats.
func runStencilBench(b *testing.B, cfg godcr.Config, tiles, steps int, trace bool) godcr.Stats {
	b.Helper()
	rt := godcr.NewRuntime(cfg)
	defer rt.Shutdown()
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
	err := rt.Execute(func(ctx *godcr.Context) error {
		r := ctx.CreateRegion(godcr.R1(0, int64(tiles*16)-1), "x")
		owned := ctx.PartitionEqual(r, tiles)
		ghost := ctx.PartitionHalo(owned, 1)
		interior := ctx.PartitionInterior(owned, 1)
		ctx.Fill(r, "x", 1)
		dom := godcr.R1(0, int64(tiles)-1)
		for s := 0; s < steps; s++ {
			if trace {
				ctx.BeginTrace(3)
			}
			ctx.IndexLaunch(godcr.Launch{Task: "bump", Domain: dom,
				Reqs: []godcr.RegionReq{{Part: owned, Priv: godcr.ReadWrite, Fields: []string{"x"}}}})
			ctx.IndexLaunch(godcr.Launch{Task: "smooth", Domain: dom,
				Reqs: []godcr.RegionReq{
					{Part: interior, Priv: godcr.ReadWrite, Fields: []string{"x"}},
					{Part: ghost, Priv: godcr.ReadOnly, Fields: []string{"x"}}}})
			if trace {
				ctx.EndTrace(3)
			}
		}
		ctx.ExecutionFence()
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return rt.Stats()
}

// BenchmarkAnalysisPerOp measures the end-to-end cost of one analyzed
// operation (the source of the simulator's CoarsePerOp+FinePerTask
// calibration).
func BenchmarkAnalysisPerOp(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			const steps = 50
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runStencilBench(b, godcr.Config{Shards: shards}, shards*2, steps, false)
			}
			opsPerRun := float64(2*steps + 4)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/opsPerRun, "ns/analyzed-op")
		})
	}
}

// BenchmarkCollectives measures the fence primitive (barrier) and
// all-reduce at several machine sizes.
func BenchmarkCollectives(b *testing.B) {
	for _, shards := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("barrier/shards=%d", shards), func(b *testing.B) {
			benchBarrier(b, shards)
		})
	}
}

// --- Ablation benchmarks --------------------------------------------------

// BenchmarkAblationFences compares the full runtime against the
// no-fence ablation (fences still computed, never executed).
func BenchmarkAblationFences(b *testing.B) {
	for _, disable := range []bool{false, true} {
		b.Run(fmt.Sprintf("disableFences=%v", disable), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runStencilBench(b, godcr.Config{Shards: 4, DisableFences: disable}, 8, 30, false)
			}
		})
	}
}

// BenchmarkAblationSafety compares determinism checking on and off
// (the Fig. 21 Safe/No-Safe axis, as raw runtime rather than METG).
func BenchmarkAblationSafety(b *testing.B) {
	for _, safe := range []bool{false, true} {
		b.Run(fmt.Sprintf("safe=%v", safe), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runStencilBench(b, godcr.Config{Shards: 4, SafetyChecks: safe, CheckInterval: 8}, 8, 30, false)
			}
		})
	}
}

// BenchmarkAblationTracing compares traced vs untraced loops.
func BenchmarkAblationTracing(b *testing.B) {
	for _, trace := range []bool{false, true} {
		b.Run(fmt.Sprintf("trace=%v", trace), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runStencilBench(b, godcr.Config{Shards: 4}, 8, 30, trace)
			}
		})
	}
}

// BenchmarkAblationWireEncode compares shared-memory message passing
// against strict distribution through the binary wire codec.
func BenchmarkAblationWireEncode(b *testing.B) {
	for _, wire := range []bool{false, true} {
		b.Run(fmt.Sprintf("wire=%v", wire), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runStencilBench(b, godcr.Config{Shards: 4, WireEncode: wire}, 8, 30, false)
			}
		})
	}
}

// BenchmarkSPMDVsDCR compares the hand-written explicitly parallel
// stencil (zero runtime overhead, maximal programmer effort — the MPI
// baseline of Fig. 14) against the implicitly parallel DCR version of
// the same program on the real transport. SPMD is the overhead floor;
// the gap is the price of implicit parallelism at this task grain.
func BenchmarkSPMDVsDCR(b *testing.B) {
	const ranks, steps = 4, 30
	b.Run("spmd", func(b *testing.B) {
		benchSPMDStencil(b, ranks, ranks*16, steps)
	})
	b.Run("dcr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runStencilBench(b, godcr.Config{Shards: ranks}, ranks, steps, false)
		}
	})
}

// BenchmarkCentralizedVsDCR is the real-runtime (laptop-scale) version
// of the no-CR comparison: identical program, centralized controller
// vs replicated analysis.
func BenchmarkCentralizedVsDCR(b *testing.B) {
	for _, mode := range []struct {
		name string
		cfg  godcr.Config
	}{
		{"central", godcr.Config{Shards: 4, Centralized: true}},
		{"dcr", godcr.Config{Shards: 4}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runStencilBench(b, mode.cfg, 8, 30, false)
			}
		})
	}
}
