package main

import (
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"godcr"
)

// plan is how long a program runs: steps steps, the first warm of them
// unmeasured; or, with window > 0, until its measured window — opened
// by the first step that ends warmFor after the prologue — has lasted
// window.
type plan struct {
	steps, warm     int
	warmFor, window time.Duration
}

// runRec collects what one program execution reports back: shard 0's
// timestamps (end of prologue, end of each step), the process usage
// through the measured window, and the replicas' output, which must
// agree bit for bit.
type runRec struct {
	t       *tracer
	p       plan
	base    time.Time
	readyAt time.Duration
	ends    []time.Duration
	opened  int          // step whose end opened the window; -1 before
	stopAt  atomic.Int64 // ns since base when a timed run stops; 0 unset
	winA    usage
	winB    usage
	marks   []mark // progress readings through the measured window

	mu  sync.Mutex
	out *output
	err error
}

func newRunRec(t *tracer, p plan) *runRec {
	return &runRec{t: t, p: p, base: time.Now(), opened: -1, ends: make([]time.Duration, 0, p.steps)}
}

func (r *runRec) ready() { r.readyAt = time.Since(r.base) }

func (r *runRec) stepDone(i int) {
	now := time.Since(r.base)
	r.ends = append(r.ends, now)
	if r.opened < 0 {
		timed := r.p.window > 0
		if (timed && now-r.readyAt >= r.p.warmFor) || (!timed && i == r.p.warm-1) {
			r.opened = i
			r.winA = readUsage()
			r.marks = append(r.marks, newMark(now, int64(i+1)))
			if timed {
				r.stopAt.Store(int64(now + r.p.window))
			}
		}
		return
	}
	if now-r.marks[len(r.marks)-1].at >= markEvery {
		r.marks = append(r.marks, newMark(now, int64(i+1)))
	}
}

// finish closes the measured window after the last step.
func (r *runRec) finish() {
	if r.opened >= 0 {
		r.winB = readUsage()
	}
}

// stop is the clock task's answer: 1 once a timed run's window is over.
func (r *runRec) stop() float64 {
	if at := r.stopAt.Load(); at > 0 && time.Since(r.base) >= time.Duration(at) {
		return 1
	}
	return 0
}

func (r *runRec) record(out output) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.out == nil {
		r.out = &out
		return nil
	}
	if n := mismatches(r.out.perStep, out.perStep, 0) + mismatches(r.out.final, out.final, 0); n > 0 {
		r.err = fmt.Errorf("shard replicas disagree on %d values", n)
		return r.err
	}
	return nil
}

// measured is the number of steps in the measured window.
func (r *runRec) measured() int { return len(r.ends) - 1 - r.opened }

// rate is steps per second over the measured window.
func (r *runRec) rate() float64 {
	return float64(r.measured()) / (r.ends[len(r.ends)-1] - r.ends[r.opened]).Seconds()
}

// latencies are the measured steps' durations on shard 0.
func (r *runRec) latencies() []time.Duration {
	var out []time.Duration
	for i := r.opened + 1; i < len(r.ends); i++ {
		out = append(out, r.ends[i]-r.ends[i-1])
	}
	return out
}

// fenceEvery is how often a program issues an execution fence. The
// runtime reclaims stored data versions only at execution fences, so a
// long program without them grows by ~15 KB a step.
const fenceEvery = 64

// program runs s on every shard: prologue, a fence (so every shard is
// connected and loaded before the first step), then the steps of rec's
// plan, with a fence every fenceEvery steps. A timed run decides after
// each of those fences whether to go on: a "clock" task reads the time
// on one shard, and its future gives every replica the same answer, so
// all stop at the same step. Spans of a step workload are grouped by
// step index; a job groups all its spans under its id (job > 0).
func program(s spec, rec *runRec, job, root int64) godcr.Program {
	return func(ctx *godcr.Context) error {
		group := int64(-1) // a step workload's prologue belongs to no step
		if job > 0 {
			group = job
		}
		c := newCtl(ctx, rec.t, group, root)
		defer c.flush()
		st := s.start(c)
		c.ExecutionFence()
		lead := ctx.ShardID() == 0
		if lead {
			rec.ready()
		}
		timed := rec.p.window > 0
		out := output{perStep: make([]float64, 0, rec.p.steps)}
		for i := 0; timed || i < rec.p.steps; i++ {
			if job == 0 {
				group = int64(i)
			}
			c.beginStep(group)
			out.perStep = append(out.perStep, st.step(c))
			stop := false
			if (i+1)%fenceEvery == 0 {
				c.ExecutionFence()
				stop = timed && c.Get(c.SingleLaunch(godcr.Launch{Task: "clock"})) != 0
			}
			c.endStep()
			if lead {
				rec.stepDone(i)
			}
			if stop {
				break
			}
		}
		if lead {
			rec.finish()
		}
		if len(out.perStep) > 0 {
			out.final = st.final(c)
		}
		return rec.record(out)
	}
}

// counts are the runtime's own counters, summed over runtimes or jobs.
type counts struct {
	ops, fencesIn, fencesOut, points, remotePulls, localResolves, messages uint64
	retransmits, frames, bytes, corrupt                                    uint64
	retained                                                               int64 // live heap the runtimes still hold, bytes
	timers                                                                 *godcr.TimerSnapshot
}

func (c *counts) addJob(rt *godcr.Runtime) {
	s := rt.Stats()
	c.ops += s.Ops
	c.fencesIn += s.FencesInserted
	c.fencesOut += s.FencesElided
	c.points += s.PointTasks
	c.remotePulls += s.RemotePulls
	c.localResolves += s.LocalResolves
	c.messages += s.Messages
	c.timers = godcr.MergeTimerSnapshots(c.timers, rt.TimerSnapshot())
}

// sameExact reports whether two runs of one seed agree on every count
// that must repeat exactly.
func (c counts) sameExact(o counts) bool {
	return c.ops == o.ops && c.fencesIn == o.fencesIn && c.fencesOut == o.fencesOut && c.points == o.points &&
		c.remotePulls == o.remotePulls && c.localResolves == o.localResolves && c.messages == o.messages
}

func (c *counts) addWire(ts godcr.TransportStats, ws godcr.WireStats) {
	c.retransmits += ts.Retransmits
	c.frames += ws.FramesOut
	c.bytes += ws.BytesOut
	c.corrupt += ws.CorruptFrames
}

// shardSet is the runtimes one program runs on: one in-process runtime
// with n shards ("mem"), or n one-shard runtimes in this process, each
// behind its own TCP endpoint on loopback ("tcp").
type shardSet struct {
	rts []*godcr.Runtime
}

func newShardSet(backend string, n int, t *tracer, rec *runRec) (*shardSet, error) {
	var trs []godcr.Transport
	switch backend {
	case "mem":
		trs = []godcr.Transport{godcr.NewMemTransport(n)}
	case "tcp":
		lns := make([]net.Listener, n)
		addrs := make([]string, n)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				closeAll(lns)
				return nil, fmt.Errorf("listen: %w", err)
			}
			lns[i], addrs[i] = ln, ln.Addr().String()
		}
		for i := range lns {
			tr, err := godcr.NewTCPTransport(godcr.TCPOptions{Self: godcr.NodeID(i), Addrs: addrs, Listener: lns[i]})
			if err != nil {
				for _, tr := range trs {
					tr.Close()
				}
				closeAll(lns[i:])
				return nil, fmt.Errorf("tcp transport %d: %w", i, err)
			}
			trs = append(trs, tr)
		}
	default:
		return nil, fmt.Errorf("unknown backend %q", backend)
	}
	ss := &shardSet{}
	for _, tr := range trs {
		var rt *godcr.Runtime
		t.timed(spanNewJob, -1, 0, func() {
			rt = godcr.NewRuntime(godcr.Config{Shards: n, Transport: t.transport(tr)})
		})
		registerTasks(rt, t)
		rt.RegisterTask("clock", func(*godcr.TaskContext) (float64, error) { return rec.stop(), nil })
		ss.rts = append(ss.rts, rt)
	}
	return ss, nil
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// execute runs prog on every runtime at once and waits for all.
func (ss *shardSet) execute(prog godcr.Program) error {
	errs := make([]error, len(ss.rts))
	var wg sync.WaitGroup
	for i, rt := range ss.rts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = rt.Execute(prog)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("runtime %d: %w", i, err)
		}
	}
	return nil
}

func (ss *shardSet) counts() counts {
	var c counts
	for _, rt := range ss.rts {
		c.addJob(rt)
		c.addWire(rt.TransportStats(), rt.Host().WireStats())
	}
	return c
}

func (ss *shardSet) shutdown(t *tracer) {
	for _, rt := range ss.rts {
		t.timed(spanShutdown, -1, 0, rt.Shutdown)
	}
}

// runOnce builds a shard set, runs s by plan p and shuts it down.
func runOnce(backend string, n int, s spec, p plan, t *tracer) (*runRec, counts, error) {
	work := p.steps > 0 || p.window > 0
	var heap0 int64
	if work {
		heap0 = liveHeap()
	}
	rec := newRunRec(t, p)
	ss, err := newShardSet(backend, n, t, rec)
	if err != nil {
		return nil, counts{}, err
	}
	err = ss.execute(program(s, rec, 0, 0))
	c := ss.counts()
	if work {
		c.retained = liveHeap() - heap0
	}
	ss.shutdown(t)
	if err == nil {
		err = rec.err
	}
	return rec, c, err
}

// mismatches counts positions where got differs from want: bitwise
// when tol is 0, else by more than tol relative to max(1, |want|). A
// length difference counts every missing or extra value.
func mismatches(want, got []float64, tol float64) int {
	n := max(len(want), len(got)) - min(len(want), len(got))
	for i := range min(len(want), len(got)) {
		a, b := want[i], got[i]
		if tol == 0 {
			if math.Float64bits(a) != math.Float64bits(b) {
				n++
			}
		} else if !(math.Abs(a-b) <= tol*math.Max(1, math.Abs(a))) {
			n++
		}
	}
	return n
}

// relTol is the tolerance against the sequential loop, whose
// floating-point association differs from the runtime's reduction
// instances.
const relTol = 1e-9

// wrongSteps checks a step program's output against want and returns
// how many steps it gets wrong; a wrong final field counts against the
// last step.
func wrongSteps(want, got output, tol float64) int {
	n := 0
	for i := range want.perStep {
		if i >= len(got.perStep) || mismatches(want.perStep[i:i+1], got.perStep[i:i+1], tol) > 0 {
			n++
		}
	}
	if n == 0 && mismatches(want.final, got.final, tol) > 0 {
		n = 1
	}
	return n
}
