package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand/v2"

	"godcr"
)

// The three programs the workloads run, each as a seeded problem
// instance (spec) that builds its regions on one shard (start) and then
// advances one step at a time. Every spec also runs as a plain
// sequential Go loop, the single-threaded baseline and tolerance check.

// output is what a program reports: one reduced value per step, then
// the final field.
type output struct {
	perStep []float64
	final   []float64
}

// digest fingerprints the output bit for bit.
func (o output) digest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, vs := range [][]float64{o.perStep, o.final} {
		binary.LittleEndian.PutUint64(b[:], uint64(len(vs)))
		h.Write(b[:])
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

type spec interface {
	// start creates the spec's regions and initial data on one shard.
	start(c *ctl) stepper
	// sequential computes the same output with a plain Go loop.
	sequential(steps int) output
	// params describes the instance for the run record.
	params() map[string]any
}

type stepper interface {
	step(c *ctl) float64
	final(c *ctl) []float64
}

// registrar is what tasks are registered on: a one-program
// *godcr.Runtime or a resident *godcr.Host shared by every job.
type registrar interface {
	RegisterTask(name string, fn godcr.TaskFn)
}

// registerTasks registers every task the three programs use, each
// wrapped by t (a nil t registers the bodies themselves).
func registerTasks(reg registrar, t *tracer) {
	tasks := map[string]godcr.TaskFn{
		"load":      loadTask,
		"bump":      bumpTask,
		"smooth":    smoothTask,
		"charge_up": chargeUpTask,
		"update_v":  updateVTask,
		"lr_const":  func(tc *godcr.TaskContext) (float64, error) { return tc.Args[0], nil },
		"lr_grad":   lrGradTask,
		"lr_update": lrUpdateTask,
	}
	for _, name := range []string{"load", "bump", "smooth", "charge_up", "update_v", "lr_const", "lr_grad", "lr_update"} {
		reg.RegisterTask(name, t.task(tasks[name]))
	}
}

// loadTask writes the launch's Args into the requirement's only field:
// Args[i] is the value of point i of the region. This is how generated
// inputs enter the program.
func loadTask(tc *godcr.TaskContext) (float64, error) {
	f := tc.Region(0).Only()
	f.Rect().Each(func(p godcr.Point) bool {
		f.Set(p, tc.Args[p[0]])
		return true
	})
	return 0, nil
}

// load issues one loadTask launch over part for one field.
func load(c *ctl, part *godcr.Partition, field string, tiles int, vals []float64) {
	c.IndexLaunch(godcr.Launch{Task: "load", Domain: godcr.R1(0, int64(tiles)-1), Args: vals,
		Reqs: []godcr.RegionReq{{Part: part, Priv: godcr.WriteDiscard, Fields: []string{field}}}})
}

// --- stencil: 1-D halo exchange ------------------------------------------

type stencilSpec struct {
	tiles, cells int
	x0           []float64
}

func newStencil(seed uint64, tiles, cells int) *stencilSpec {
	r := rand.New(rand.NewPCG(seed, 0x5eed0001))
	s := &stencilSpec{tiles: tiles, cells: cells, x0: make([]float64, tiles*cells)}
	for i := range s.x0 {
		s.x0[i] = r.Float64()
	}
	return s
}

func (s *stencilSpec) params() map[string]any {
	return map[string]any{"program": "stencil", "tiles": s.tiles, "cells_per_tile": s.cells}
}

func bumpTask(tc *godcr.TaskContext) (float64, error) {
	x := tc.Region(0).Field("x")
	sum := 0.0
	x.Rect().Each(func(p godcr.Point) bool {
		x.Set(p, x.At(p)+1)
		sum += x.At(p)
		return true
	})
	return sum, nil
}

func smoothTask(tc *godcr.TaskContext) (float64, error) {
	x := tc.Region(0).Field("x")
	g := tc.Region(1).Field("x")
	x.Rect().Each(func(p godcr.Point) bool {
		x.Set(p, 0.5*x.At(p)+0.25*(g.At(godcr.Pt1(p[0]-1))+g.At(godcr.Pt1(p[0]+1))))
		return true
	})
	return 0, nil
}

type stencilRun struct {
	s                      *stencilSpec
	r                      *godcr.Region
	owned, ghost, interior *godcr.Partition
	dom                    godcr.Rect
}

func (s *stencilSpec) start(c *ctl) stepper {
	st := &stencilRun{s: s, dom: godcr.R1(0, int64(s.tiles)-1)}
	st.r = c.CreateRegion(godcr.R1(0, int64(s.tiles*s.cells)-1), "x")
	st.owned = c.PartitionEqual(st.r, s.tiles)
	st.ghost = c.PartitionHalo(st.owned, 1)
	st.interior = c.PartitionInterior(st.owned, 1)
	load(c, st.owned, "x", s.tiles, s.x0)
	return st
}

func (st *stencilRun) step(c *ctl) float64 {
	fm := c.IndexLaunch(godcr.Launch{Task: "bump", Domain: st.dom,
		Reqs: []godcr.RegionReq{{Part: st.owned, Priv: godcr.ReadWrite, Fields: []string{"x"}}}})
	c.IndexLaunch(godcr.Launch{Task: "smooth", Domain: st.dom,
		Reqs: []godcr.RegionReq{
			{Part: st.interior, Priv: godcr.ReadWrite, Fields: []string{"x"}},
			{Part: st.ghost, Priv: godcr.ReadOnly, Fields: []string{"x"}}}})
	return c.Get(c.Reduce(fm, godcr.ReduceAdd))
}

func (st *stencilRun) final(c *ctl) []float64 { return c.InlineRead(st.r, "x") }

func (s *stencilSpec) sequential(steps int) output {
	x := append([]float64(nil), s.x0...)
	old := make([]float64, len(x))
	out := output{perStep: make([]float64, 0, steps)}
	for range steps {
		total := 0.0
		for t := 0; t < s.tiles; t++ {
			sum := 0.0
			for i := t * s.cells; i < (t+1)*s.cells; i++ {
				x[i]++
				sum += x[i]
			}
			total += sum
		}
		copy(old, x)
		for i := 1; i < len(x)-1; i++ {
			x[i] = 0.5*old[i] + 0.25*(old[i-1]+old[i+1])
		}
		out.perStep = append(out.perStep, total)
	}
	out.final = x
	return out
}

// --- circuit: aliased reduction partitions ---------------------------------

// circuitSpec is a random circuit: tile t's wires join nodes inside the
// range [lo[t], lo[t]+span), a seeded window of the node array, so
// tiles fold charge into overlapping (aliased) node ranges.
type circuitSpec struct {
	nodes, tiles, span, wiresPerTile int
	v0                               []float64
	lo                               []int64
	src, dst, g                      []float64 // per wire; node ids as floats
}

const (
	circuitDt   = 0.01
	circuitInvC = 0.5 // 1/capacitance
)

func newCircuit(seed uint64, nodes, tiles, span, wiresPerTile int) *circuitSpec {
	r := rand.New(rand.NewPCG(seed, 0x5eed0002))
	s := &circuitSpec{nodes: nodes, tiles: tiles, span: span, wiresPerTile: wiresPerTile,
		v0: make([]float64, nodes), lo: make([]int64, tiles)}
	for i := range s.v0 {
		s.v0[i] = r.Float64()
	}
	for t := range s.lo {
		s.lo[t] = int64(r.IntN(nodes - span + 1))
		for range wiresPerTile {
			a := s.lo[t] + int64(r.IntN(span))
			b := s.lo[t] + int64(r.IntN(span-1))
			if b >= a {
				b++
			}
			s.src = append(s.src, float64(a))
			s.dst = append(s.dst, float64(b))
			s.g = append(s.g, 0.5+r.Float64())
		}
	}
	return s
}

func (s *circuitSpec) params() map[string]any {
	return map[string]any{"program": "circuit", "nodes": s.nodes, "tiles": s.tiles,
		"range": s.span, "wires_per_tile": s.wiresPerTile}
}

// chargeUpTask folds each wire's current into the charge of its two
// nodes through the tile's aliased node range.
func chargeUpTask(tc *godcr.TaskContext) (float64, error) {
	q := tc.Region(0).Field("charge")
	v := tc.Region(1).Field("voltage")
	w := tc.Region(2)
	src, dst, g := w.Field("src"), w.Field("dst"), w.Field("g")
	src.Rect().Each(func(p godcr.Point) bool {
		a, b := godcr.Pt1(int64(src.At(p))), godcr.Pt1(int64(dst.At(p)))
		i := g.At(p) * (v.At(a) - v.At(b)) * circuitDt
		q.Fold(a, -i)
		q.Fold(b, i)
		return true
	})
	return 0, nil
}

// updateVTask applies the folded charge to the tile's own nodes and
// returns their voltage sum.
func updateVTask(tc *godcr.TaskContext) (float64, error) {
	v := tc.Region(0).Field("voltage")
	q := tc.Region(0).Field("charge")
	sum := 0.0
	v.Rect().Each(func(p godcr.Point) bool {
		v.Set(p, v.At(p)+q.At(p)*circuitInvC)
		q.Set(p, 0)
		sum += v.At(p)
		return true
	})
	return sum, nil
}

type circuitRun struct {
	nodes              *godcr.Region
	owned, ranges, pcs *godcr.Partition
	dom                godcr.Rect
}

func (s *circuitSpec) start(c *ctl) stepper {
	st := &circuitRun{dom: godcr.R1(0, int64(s.tiles)-1)}
	st.nodes = c.CreateRegion(godcr.R1(0, int64(s.nodes)-1), "voltage", "charge")
	wires := c.CreateRegion(godcr.R1(0, int64(len(s.src))-1), "src", "dst", "g")
	st.owned = c.PartitionEqual(st.nodes, s.tiles)
	st.pcs = c.PartitionEqual(wires, s.tiles)
	rects := make([]godcr.Rect, s.tiles)
	for t, lo := range s.lo {
		rects[t] = godcr.R1(lo, lo+int64(s.span)-1)
	}
	st.ranges = c.PartitionCustom(st.nodes, st.dom, rects)
	load(c, st.owned, "voltage", s.tiles, s.v0)
	c.Fill(st.nodes, "charge", 0)
	load(c, st.pcs, "src", s.tiles, s.src)
	load(c, st.pcs, "dst", s.tiles, s.dst)
	load(c, st.pcs, "g", s.tiles, s.g)
	return st
}

func (st *circuitRun) step(c *ctl) float64 {
	c.IndexLaunch(godcr.Launch{Task: "charge_up", Domain: st.dom,
		Reqs: []godcr.RegionReq{
			{Part: st.ranges, Priv: godcr.Reduce, RedOp: godcr.ReduceAdd, Fields: []string{"charge"}},
			{Part: st.ranges, Priv: godcr.ReadOnly, Fields: []string{"voltage"}},
			{Part: st.pcs, Priv: godcr.ReadOnly, Fields: []string{"src", "dst", "g"}}}})
	fm := c.IndexLaunch(godcr.Launch{Task: "update_v", Domain: st.dom,
		Reqs: []godcr.RegionReq{{Part: st.owned, Priv: godcr.ReadWrite, Fields: []string{"voltage", "charge"}}}})
	return c.Get(c.Reduce(fm, godcr.ReduceAdd))
}

func (st *circuitRun) final(c *ctl) []float64 { return c.InlineRead(st.nodes, "voltage") }

func (s *circuitSpec) sequential(steps int) output {
	v := append([]float64(nil), s.v0...)
	q := make([]float64, s.nodes)
	out := output{perStep: make([]float64, 0, steps)}
	per := s.nodes / s.tiles
	for range steps {
		for w := range s.src {
			a, b := int(s.src[w]), int(s.dst[w])
			i := s.g[w] * (v[a] - v[b]) * circuitDt
			q[a] -= i
			q[b] += i
		}
		total := 0.0
		for t := 0; t < s.tiles; t++ {
			sum := 0.0
			for n := t * per; n < (t+1)*per; n++ {
				v[n] += q[n] * circuitInvC
				q[n] = 0
				sum += v[n]
			}
			total += sum
		}
		out.perStep = append(out.perStep, total)
	}
	out.final = v
	return out
}

// --- logreg: future-fed launch arguments -----------------------------------

// logregSpec is logistic regression by gradient descent. The weight
// flows from step to step as a future argument, so every launch's
// argument depends on the data computed before it.
type logregSpec struct {
	samples, tiles int
	x, y           []float64
}

const logregRate = 0.5

func newLogreg(seed uint64, samples, tiles int) *logregSpec {
	r := rand.New(rand.NewPCG(seed, 0x5eed0003))
	s := &logregSpec{samples: samples, tiles: tiles, x: make([]float64, samples), y: make([]float64, samples)}
	for i := range s.x {
		s.x[i] = 2*r.Float64() - 1
		s.y[i] = -1
		if r.Float64() < 0.5+0.4*s.x[i] {
			s.y[i] = 1
		}
	}
	return s
}

func (s *logregSpec) params() map[string]any {
	return map[string]any{"program": "logreg", "samples": s.samples, "tiles": s.tiles}
}

func lrGradTask(tc *godcr.TaskContext) (float64, error) {
	x := tc.Region(0).Field("x")
	y := tc.Region(0).Field("y")
	w := tc.FutureArgs[0]
	g := 0.0
	x.Rect().Each(func(p godcr.Point) bool {
		xv, yv := x.At(p), y.At(p)
		g += -yv * xv / (1 + math.Exp(yv*w*xv))
		return true
	})
	return g, nil
}

func lrUpdateTask(tc *godcr.TaskContext) (float64, error) {
	return tc.FutureArgs[0] - tc.Args[0]*tc.FutureArgs[1], nil
}

type logregRun struct {
	s     *logregSpec
	owned *godcr.Partition
	dom   godcr.Rect
	w     *godcr.Future
}

func (s *logregSpec) start(c *ctl) stepper {
	st := &logregRun{s: s, dom: godcr.R1(0, int64(s.tiles)-1)}
	data := c.CreateRegion(godcr.R1(0, int64(s.samples)-1), "x", "y")
	st.owned = c.PartitionEqual(data, s.tiles)
	load(c, st.owned, "x", s.tiles, s.x)
	load(c, st.owned, "y", s.tiles, s.y)
	st.w = c.SingleLaunch(godcr.Launch{Task: "lr_const", Args: []float64{0}})
	return st
}

func (st *logregRun) step(c *ctl) float64 {
	fm := c.IndexLaunch(godcr.Launch{Task: "lr_grad", Domain: st.dom, Futures: []*godcr.Future{st.w},
		Reqs: []godcr.RegionReq{{Part: st.owned, Priv: godcr.ReadOnly, Fields: []string{"x", "y"}}}})
	g := c.Reduce(fm, godcr.ReduceAdd)
	st.w = c.SingleLaunch(godcr.Launch{Task: "lr_update", Futures: []*godcr.Future{st.w, g},
		Args: []float64{logregRate / float64(st.s.samples)}})
	return c.Get(st.w)
}

func (st *logregRun) final(*ctl) []float64 { return nil }

func (s *logregSpec) sequential(steps int) output {
	out := output{perStep: make([]float64, 0, steps)}
	per := s.samples / s.tiles
	w := 0.0
	for range steps {
		g := 0.0
		for t := 0; t < s.tiles; t++ {
			gt := 0.0
			for i := t * per; i < (t+1)*per; i++ {
				gt += -s.y[i] * s.x[i] / (1 + math.Exp(s.y[i]*w*s.x[i]))
			}
			g += gt
		}
		w -= logregRate / float64(s.samples) * g
		out.perStep = append(out.perStep, w)
	}
	return out
}
