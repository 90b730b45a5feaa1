package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"godcr"
	"godcr/internal/cluster"
)

// Span names. Control-goroutine spans (step and its children) are
// sequential on one goroutine, so they give an exclusive breakdown of
// step time; task and transport spans run on other goroutines and
// overlap, so they are busy time only.
const (
	spanStep      = "step"
	spanIssue     = "core.issue"    // IndexLaunch, SingleLaunch, Fill
	spanReduce    = "core.reduce"   // FutureMap.Reduce
	spanWait      = "core.wait"     // Future.Get, ExecutionFence, InlineRead
	spanPrologue  = "host.prologue" // program entry to first launch
	spanCreate    = "region.create" // CreateRegion
	spanPartition = "region.partition"
	spanNewJob    = "host.newjob" // Host.NewJob, or NewRuntime for one-program workloads
	spanShutdown  = "host.shutdown"
	spanJob       = "job" // NewJob to Shutdown returning
	spanTask      = "core.task"
	spanSend      = "cluster.send"
	spanDeliver   = "cluster.deliver"
)

// span is one timed interval. Spans of one step or job share Group.
type span struct {
	ID, Parent int64 // Parent 0: no parent
	Group      int64 // step index or job id; -1 when unattributed
	Shard      int   // control goroutine's shard; -1 off the control path
	Name       string
	Start, End int64 // ns since the tracer's epoch
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps the spans of one traced run in memory until the run
// ends. A nil *tracer is the untraced run: the wrappers below then pass
// every call straight through and record nothing.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, s...)
	t.mu.Unlock()
}

// busy records an off-control-path span that started at start.
func (t *tracer) busy(name string, start int64) {
	end := t.now()
	t.add(span{ID: t.ids.Add(1), Group: -1, Shard: -1, Name: name, Start: start, End: end})
}

// timed records a span around fn on the calling goroutine.
func (t *tracer) timed(name string, group, parent int64, fn func()) {
	if t == nil {
		fn()
		return
	}
	s := t.now()
	fn()
	t.add(span{ID: t.ids.Add(1), Parent: parent, Group: group, Shard: -1, Name: name, Start: s, End: t.now()})
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as CSV (one span a line) in dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,group,shard,name,start_ns,end_ns")
	for _, s := range t.snapshot() {
		fmt.Fprintf(w, "%d,%d,%d,%d,%s,%d,%d\n", s.ID, s.Parent, s.Group, s.Shard, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// task wraps a task body so the traced run times it; untraced it
// returns fn itself.
func (t *tracer) task(fn godcr.TaskFn) godcr.TaskFn {
	if t == nil {
		return fn
	}
	return func(tc *godcr.TaskContext) (float64, error) {
		s := t.now()
		v, err := fn(tc)
		t.busy(spanTask, s)
		return v, err
	}
}

// transport wraps a backend so the traced run times every Send and
// every Deliver; untraced it returns tr itself. Every call passes
// through unchanged.
func (t *tracer) transport(tr godcr.Transport) godcr.Transport {
	if t == nil {
		return tr
	}
	return &timedTransport{Transport: tr, t: t}
}

type timedTransport struct {
	godcr.Transport
	t *tracer
}

func (tt *timedTransport) Send(f *godcr.Frame) error {
	s := tt.t.now()
	err := tt.Transport.Send(f)
	tt.t.busy(spanSend, s)
	return err
}

func (tt *timedTransport) Bind(s cluster.Sink) {
	tt.Transport.Bind(&timedSink{Sink: s, t: tt.t})
}

type timedSink struct {
	cluster.Sink
	t *tracer
}

func (ts *timedSink) Deliver(f *godcr.Frame) {
	s := ts.t.now()
	ts.Sink.Deliver(f)
	ts.t.busy(spanDeliver, s)
}

// ctl is one shard's handle on a program. Workload programs call the
// runtime only through it, so the traced run can time each call into
// core and region from outside the runtime; untraced, every method is
// the direct call plus one nil check.
type ctl struct {
	*godcr.Context
	t        *tracer
	log      []span // this goroutine's spans, handed to t by flush
	group    int64
	root     int64 // parent of spans outside a step (the job span)
	step     int64 // id of the open step span; 0 outside a step
	stepAt   int64
	entry    int64
	launched bool
}

func newCtl(ctx *godcr.Context, t *tracer, group, root int64) *ctl {
	c := &ctl{Context: ctx, t: t, group: group, root: root}
	if t != nil {
		c.entry = t.now()
	}
	return c
}

func (c *ctl) start() int64 {
	if c.t == nil {
		return 0
	}
	return c.t.now()
}

func (c *ctl) end(name string, start int64) {
	if c.t == nil {
		return
	}
	parent := c.step
	if parent == 0 {
		parent = c.root
	}
	c.log = append(c.log, span{ID: c.t.ids.Add(1), Parent: parent, Group: c.group,
		Shard: c.ShardID(), Name: name, Start: start, End: c.t.now()})
}

func (c *ctl) flush() {
	if c.t != nil {
		c.t.add(c.log...)
		c.log = nil
	}
}

func (c *ctl) beginStep(group int64) {
	if c.t == nil {
		return
	}
	c.group = group
	c.stepAt = c.t.now()
	c.step = c.t.ids.Add(1)
}

func (c *ctl) endStep() {
	if c.t == nil {
		return
	}
	c.log = append(c.log, span{ID: c.step, Parent: c.root, Group: c.group, Shard: c.ShardID(),
		Name: spanStep, Start: c.stepAt, End: c.t.now()})
	c.step = 0
}

func (c *ctl) launching() {
	if c.t != nil && !c.launched {
		c.launched = true
		c.end(spanPrologue, c.entry)
	}
}

func (c *ctl) IndexLaunch(l godcr.Launch) *godcr.FutureMap {
	c.launching()
	s := c.start()
	fm := c.Context.IndexLaunch(l)
	c.end(spanIssue, s)
	return fm
}

func (c *ctl) SingleLaunch(l godcr.Launch) *godcr.Future {
	c.launching()
	s := c.start()
	f := c.Context.SingleLaunch(l)
	c.end(spanIssue, s)
	return f
}

func (c *ctl) Fill(r *godcr.Region, field string, v float64) {
	s := c.start()
	c.Context.Fill(r, field, v)
	c.end(spanIssue, s)
}

func (c *ctl) Reduce(fm *godcr.FutureMap, op godcr.ReduceOp) *godcr.Future {
	s := c.start()
	f := fm.Reduce(op)
	c.end(spanReduce, s)
	return f
}

func (c *ctl) Get(f *godcr.Future) float64 {
	s := c.start()
	v := f.Get()
	c.end(spanWait, s)
	return v
}

func (c *ctl) ExecutionFence() {
	s := c.start()
	c.Context.ExecutionFence()
	c.end(spanWait, s)
}

func (c *ctl) InlineRead(r *godcr.Region, field string) []float64 {
	s := c.start()
	v := c.Context.InlineRead(r, field)
	c.end(spanWait, s)
	return v
}

func (c *ctl) CreateRegion(bounds godcr.Rect, fields ...string) *godcr.Region {
	s := c.start()
	r := c.Context.CreateRegion(bounds, fields...)
	c.end(spanCreate, s)
	return r
}

func (c *ctl) PartitionEqual(r *godcr.Region, counts ...int) *godcr.Partition {
	s := c.start()
	p := c.Context.PartitionEqual(r, counts...)
	c.end(spanPartition, s)
	return p
}

func (c *ctl) PartitionHalo(base *godcr.Partition, radius int64) *godcr.Partition {
	s := c.start()
	p := c.Context.PartitionHalo(base, radius)
	c.end(spanPartition, s)
	return p
}

func (c *ctl) PartitionInterior(base *godcr.Partition, radius int64) *godcr.Partition {
	s := c.start()
	p := c.Context.PartitionInterior(base, radius)
	c.end(spanPartition, s)
	return p
}

func (c *ctl) PartitionCustom(parent *godcr.Region, colors godcr.Rect, rects []godcr.Rect) *godcr.Partition {
	s := c.start()
	p := c.Context.PartitionCustom(parent, colors, rects)
	c.end(spanPartition, s)
	return p
}
