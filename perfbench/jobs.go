package main

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"godcr"
)

// jobsWorkload is a closed loop of nproc clients against one resident
// host: each client submits its next job only after the previous one
// returned. Its unit of work is a job, from Host.NewJob to Shutdown
// returning.
type jobsWorkload struct {
	warmup    time.Duration // jobs run before the measured window opens
	traceJobs int           // the traced phase's fixed work
}

// jobAt is job i of a seed's job stream: a seeded pick of program, size
// and 1–8 steps, with its own seeded inputs. Every run of the seed
// draws the same stream, whichever client runs which job.
func jobAt(seed uint64, i int64) (spec, int) {
	r := rand.New(rand.NewPCG(seed, uint64(i)))
	size := r.IntN(3)
	steps := 1 + r.IntN(8)
	in := r.Uint64()
	switch r.IntN(3) {
	case 0:
		return newStencil(in, 8, 8<<size), steps
	case 1:
		n := 128 << size
		return newCircuit(in, n, 8, n/4, 16), steps
	default:
		return newLogreg(in, 64<<size, 8), steps
	}
}

// jobRes is one job's outcome.
type jobRes struct {
	i          int64
	start, end time.Duration // since the loop's base time
	steps      int
	wrong      bool
	digest     uint64 // of the job's output
}

// jobHost is a resident host with every task registered.
func jobHost(n int, t *tracer) *godcr.Host {
	h := godcr.NewHost(godcr.Config{Shards: n, Transport: t.transport(godcr.NewMemTransport(n))})
	registerTasks(h, t)
	return h
}

// setupJobs is how many of the stream's first jobs the set-ups cycle
// through.
const setupJobs = 64

// hostJobs is how many jobs one resident host serves before the loop
// replaces it. A host keeps ~90 KB of live heap for every finished job
// (the job's message handlers stay registered on the shared endpoints),
// so one host serving a whole run would pass a gigabyte of resident
// memory. The bound keeps that growth visible in rss_mb and
// host.retained_kb_per_job without exhausting a shared machine.
const hostJobs = 512

// hosts hands out the resident host of job i: host k serves jobs
// [k·hostJobs, (k+1)·hostJobs) and is shut down once all of them ran.
type hosts struct {
	n   int
	t   *tracer
	mu  sync.Mutex
	gen map[int64]*hostGen
}

type hostGen struct {
	h    *godcr.Host
	left int
}

func newHosts(n int, t *tracer) *hosts { return &hosts{n: n, t: t, gen: map[int64]*hostGen{}} }

func (hs *hosts) get(i int64) *godcr.Host {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	g := hs.gen[i/hostJobs]
	if g == nil {
		g = &hostGen{h: jobHost(hs.n, hs.t), left: hostJobs}
		hs.gen[i/hostJobs] = g
	}
	return g.h
}

func (hs *hosts) done(i int64) {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	g := hs.gen[i/hostJobs]
	if g.left--; g.left == 0 {
		g.h.Shutdown()
		delete(hs.gen, i/hostJobs)
	}
}

func (hs *hosts) close() {
	for k, g := range hs.gen {
		g.h.Shutdown()
		delete(hs.gen, k)
	}
}

// runJob runs job i on its host and checks its output against the sequential
// loop for its program, size and steps. With c non-nil it adds the
// job's counters to c under mu.
func runJob(hs *hosts, t *tracer, seed uint64, i int64, base time.Time, c *counts, mu *sync.Mutex) jobRes {
	defer hs.done(i)
	h := hs.get(i)
	s, steps := jobAt(seed, i)
	id := uint64(i + 1)
	res := jobRes{i: i, start: time.Since(base), steps: steps}
	var root, t0 int64
	if t != nil {
		root, t0 = t.ids.Add(1), t.now()
	}
	var rt *godcr.Runtime
	t.timed(spanNewJob, int64(id), root, func() { rt = h.NewJob(id) })
	rec := newRunRec(t, plan{steps: steps})
	err := rt.Execute(program(s, rec, int64(id), root))
	if c != nil {
		mu.Lock()
		c.addJob(rt)
		mu.Unlock()
	}
	t.timed(spanShutdown, int64(id), root, rt.Shutdown)
	res.end = time.Since(base)
	if t != nil {
		t.add(span{ID: root, Group: int64(id), Shard: -1, Name: spanJob, Start: t0, End: t.now()})
	}
	res.wrong = err != nil || rec.err != nil || rec.out == nil ||
		wrongSteps(s.sequential(steps), *rec.out, relTol) > 0
	if rec.out != nil {
		res.digest = rec.out.digest()
	}
	return res
}

// loop runs jobs from n closed-loop clients while more(i, now) allows
// job i, counts finished jobs in finished, and returns every job's
// outcome.
func loop(hs *hosts, t *tracer, seed uint64, n int, base time.Time, more func(i int64, now time.Duration) bool, c *counts, finished *atomic.Int64) []jobRes {
	var next atomic.Int64
	var mu sync.Mutex
	var out []jobRes
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []jobRes
			for {
				i := next.Add(1) - 1
				if !more(i, time.Since(base)) {
					break
				}
				mine = append(mine, runJob(hs, t, seed, i, base, c, &mu))
				finished.Add(1)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

func (w jobsWorkload) run(o options, rd *record) (result, error) {
	rd.Params = map[string]any{"backend": "mem", "clients": o.shards,
		"mix": "stencil 8×{8,16,32} | circuit {128,256,512} nodes | logreg {64,128,256} samples; 1-8 steps"}
	e := w.measure(o, rd, !o.trace)
	if !o.trace {
		return e.result(rd), nil
	}
	// The untraced twin of the traced phase: it measures the heap a host
	// keeps per job, and every traced job must match it bit for bit.
	plain, pc := fixedJobs(o, nil, w.traceJobs)
	tr := newTracer()
	tp, wrong := w.traced(o, tr, plain, pc)
	tp.retainedKB = float64(pc.retained) / 1024 / float64(len(plain))
	rd.Samples["trace_jobs"] = w.traceJobs
	return e.tracedResult(o, rd, tp, tr, wrong)
}

// measure is the untraced run: setup samples, then the closed loop,
// measured after its warm-up.
func (w jobsWorkload) measure(o options, rd *record, withSetup bool) *e2eRun {
	e := &e2eRun{unit: "job"}
	if withSetup {
		deadline := time.Now().Add(setupBudget)
		for i := 0; i < setupWarm+setupMin || (i < setupWarm+setupMax && time.Now().Before(deadline)); i++ {
			// Set-ups cycle through the stream's first jobs, so the
			// median covers the mix rather than job 0's program.
			s0, _ := jobAt(o.seed, int64(i%setupJobs))
			rec := newRunRec(nil, plan{})
			h := jobHost(o.shards, nil)
			rt := h.NewJob(1)
			err := rt.Execute(program(s0, rec, 1, 0))
			rt.Shutdown()
			h.Shutdown()
			if err != nil {
				e.checks = append(e.checks, "setup: "+err.Error())
				e.attempted++
				e.failed++
				break
			}
			if i >= setupWarm {
				e.setup = append(e.setup, rec.readyAt)
			}
		}
	}
	hs := newHosts(o.shards, nil)
	window := time.Duration(o.seconds) * time.Second
	runtime.GC()
	base := time.Now()
	stop := w.warmup + window
	var jobs []jobRes
	var finished atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		jobs = loop(hs, nil, o.seed, o.shards, base, func(_ int64, now time.Duration) bool { return now < stop }, nil, &finished)
	}()
	time.Sleep(time.Until(base.Add(w.warmup)))
	e.win[0] = readUsage()
	stopRSS := sampleRSS()
	var marks []mark
	for at := w.warmup; at <= stop; at += markEvery {
		time.Sleep(time.Until(base.Add(at)))
		marks = append(marks, newMark(time.Since(base), finished.Load()))
	}
	e.win[1] = readUsage()
	e.rssMB = stopRSS()
	<-done
	hs.close()
	e.rate, e.cpuMs = windowMedians(marks)
	e.windows = len(marks) - 1
	for _, j := range jobs {
		e.attempted++
		if j.wrong {
			e.failed++
		}
		if j.start >= w.warmup {
			e.lat = append(e.lat, float64(j.end-j.start)/1e6)
		}
		if j.end >= w.warmup && j.end < stop {
			e.units++
			e.steps += j.steps
		}
	}
	e.checks = append(e.checks, fmt.Sprintf("%d jobs: %d wrong or failed against the sequential loop (rel tol %g)",
		e.attempted, e.failed, relTol))
	rd.Samples["jobs"] = int(e.attempted)
	rd.Samples["window_jobs"] = e.units
	rd.Samples["window_steps"] = e.steps
	rd.Samples["latency"] = len(e.lat)
	return e
}

// fixedJobs runs the first n (≤ hostJobs) jobs of the seed's stream on
// one host and returns their outcomes in job order and their summed
// counters.
func fixedJobs(o options, t *tracer, n int) ([]jobRes, counts) {
	hs := newHosts(o.shards, t)
	h := hs.get(0)
	var c counts
	heap0 := liveHeap()
	jobs := loop(hs, t, o.seed, o.shards, time.Now(), func(i int64, _ time.Duration) bool { return i < int64(n) }, &c, new(atomic.Int64))
	c.retained = liveHeap() - heap0
	c.addWire(h.Cluster().Stats(), h.WireStats())
	hs.close()
	slices.SortFunc(jobs, func(a, b jobRes) int { return cmp.Compare(a.i, b.i) })
	return jobs, c
}

// traced runs the traced phase: a fixed stream of jobs on a host with
// every wrapper installed. A job is wrong if it fails its check or its
// output differs from the untraced run of the same stream (plain); the
// phase is wholly wrong if its exact counts differ from plain's (pc).
func (w jobsWorkload) traced(o options, tr *tracer, plain []jobRes, pc counts) (tracedRun, int) {
	jobs, c := fixedJobs(o, tr, w.traceJobs)
	tp := tracedRun{spans: tr.snapshot(), c: c, attempted: int64(len(jobs))}
	wrong := 0
	var last time.Duration
	for i, j := range jobs {
		tp.steps += int64(j.steps)
		if j.wrong || i >= len(plain) || j.digest != plain[i].digest {
			wrong++
		}
		last = max(last, j.end)
	}
	if !c.sameExact(pc) {
		wrong = len(jobs)
	}
	// The traced rate skips the first tenth of the phase, as the
	// untraced window skips its warm-up.
	measured := 0
	for _, j := range jobs {
		if j.start >= last/10 {
			measured++
		}
	}
	tp.tracedRate = float64(measured) / (last - last/10).Seconds()
	return tp, wrong
}
