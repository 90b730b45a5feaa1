// Command perfbench is the repository's end-to-end benchmark of the
// godcr runtime. It runs one workload in this process, checks its
// outputs, and ends its standard output with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run gives the per-layer ones. Build and run it from the root
// of a checkout with
//
//	bash perfbench/run.sh --workload stencil-mem --seed 1 --seconds 25 --trace 0
//
// README.md in this directory says why each workload exists and which
// layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	traceDir string
	shards   int
}

// workload runs one named workload and fills in the run record.
type workload interface {
	run(o options, rd *record) (result, error)
}

func workloads() map[string]workload {
	return map[string]workload{
		// Control-plane bound: 8 tiles × 16 cells, in-process backend.
		"stencil-mem": stepWorkload{backend: "mem", warmFor: time.Second, traceSteps: 3000,
			newSpec: func(seed uint64) spec { return newStencil(seed, 8, 16) }},
		// Every step crosses loopback TCP and folds aliased reductions.
		"circuit-tcp": stepWorkload{backend: "tcp", warmFor: time.Second, traceSteps: 1500,
			newSpec: func(seed uint64) spec { return newCircuit(seed, 1024, 8, 256, 64) }},
		// Closed loop of short jobs on one resident host.
		"jobs-mixed": jobsWorkload{warmup: time.Second, traceJobs: 400},
	}
}

// record describes a run well enough to compare two of them honestly.
type record struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Shards     int            `json:"shards"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	CPUModel   string         `json:"cpu_model"`
	Params     map[string]any `json:"params"`
	Samples    map[string]int `json:"samples"`
	Checks     []string       `json:"checks"`
	Extra      map[string]any `json:"extra"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "stencil-mem, circuit-tcp or jobs-mixed")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 25, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1: traced run, report per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "where the traced run writes its spans")
	flag.Parse()
	w, ok := workloads()[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", o.workload, o.seconds, trace)
		os.Exit(2)
	}
	o.trace = trace == 1
	o.shards = runtime.NumCPU()

	rd := &record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Shards: o.shards, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
		Samples: map[string]int{}, Extra: map[string]any{}}
	res, err := w.run(o, rd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, _ := json.Marshal(rd) // plain data: cannot fail
	fmt.Println("record:", string(b))
	b, _ = json.Marshal(res)
	fmt.Println(string(b))
}

// e2eRun is the untraced measurement of one workload.
type e2eRun struct {
	unit              string // "step" or "job"
	setup             []time.Duration
	units             int     // units of work in the measured window
	steps             int     // steps in the measured window
	rate              float64 // median over windows, units per second
	cpuMs             float64 // median over windows, CPU ms per unit
	rssMB             float64 // median of readings every 100 ms
	windows           int
	lat               []float64 // ms, one per measured unit
	win               [2]usage  // at the window's start and end
	attempted, failed int64
	checks            []string
	retained          int64 // live heap the measured program's runtimes held at its end
}

func (e *e2eRun) result(rd *record) result {
	setup := make([]float64, len(e.setup))
	for i, d := range e.setup {
		setup[i] = d.Seconds()
	}
	m := map[string]metric{
		"setup_s":          {quantile(setup, 0.5), "s"},
		"throughput_per_s": {e.rate, "1/s"},
		"latency_ms_p50":   {quantile(e.lat, 0.5), "ms"},
		"latency_ms_p90":   {quantile(e.lat, 0.9), "ms"},
		"cpu_ms_per_unit":  {e.cpuMs, "ms"},
		"rss_mb":           {e.rssMB, "MB"},
	}
	rd.Samples["setup"] = len(e.setup)
	rd.Samples["windows"] = e.windows
	rd.Checks = append(rd.Checks, e.checks...)
	rd.Extra["unit"] = e.unit
	rd.Extra["failed_frac"] = float64(e.failed) / float64(max(e.attempted, 1))
	return result{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed, Metrics: m}
}

// tracedResult completes a traced run with the untraced phase's
// figures, reports its per-layer metrics and writes its spans out.
func (e *e2eRun) tracedResult(o options, rd *record, tp tracedRun, tr *tracer, wrong int) (result, error) {
	if o.traceDir != "" {
		path, err := tr.write(o.traceDir, fmt.Sprintf("%s-seed%d.csv", o.workload, o.seed))
		if err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		rd.Extra["spans_file"] = path
	}
	tp.untracedRate = e.rate
	tp.p99ms = quantile(e.lat, 0.99)
	tp.goA, tp.goB, tp.goSteps = e.win[0], e.win[1], int64(e.steps)
	m := perLayer(tp)
	fmt.Println(breakdown(m))
	rd.Extra["exact_counts"] = exactCounts
	rd.Extra["untraced_per_s"] = tp.untracedRate
	rd.Extra["traced_per_s"] = tp.tracedRate
	rd.Extra["spans"] = len(tp.spans)
	rd.Samples["latency"] = len(e.lat)
	rd.Checks = append(rd.Checks, e.checks...)
	rd.Checks = append(rd.Checks, "traced phase: "+strconv.Itoa(wrong)+" wrong "+e.unit+"s")
	failed := e.failed + int64(wrong)
	return result{Correct: failed == 0, Attempted: e.attempted + tp.attempted, Failed: failed, Metrics: m}, nil
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
