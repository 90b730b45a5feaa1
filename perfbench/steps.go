package main

import (
	"fmt"
	"runtime"
	"time"
)

// stepWorkload is one long program on one set of shards; its unit of
// work is a step.
type stepWorkload struct {
	backend string
	newSpec func(seed uint64) spec
	// warmFor is how long the measured program runs before its window
	// opens.
	warmFor time.Duration
	// traceSteps is the traced phase's fixed work, so its counts repeat.
	traceSteps int
}

// Setup is measured several times per run and reported as the median.
// The first setupWarm set-ups of a process run slower (cold heap and
// caches) and are not kept.
const (
	setupWarm   = 50
	setupMin    = 15
	setupMax    = 2000
	setupBudget = 2 * time.Second
)

func (w stepWorkload) run(o options, rd *record) (result, error) {
	s := w.newSpec(o.seed)
	rd.Params = s.params()
	rd.Params["backend"] = w.backend
	if !o.trace {
		e, err := w.measure(o, s, rd, true)
		if err != nil {
			return result{}, err
		}
		return e.result(rd), nil
	}
	e, err := w.measure(o, s, rd, false)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	tp, wrong, err := w.traced(o, s, tr)
	if err != nil {
		return result{}, err
	}
	tp.retainedKB = float64(e.retained) / 1024
	rd.Samples["trace_steps"] = w.traceSteps
	return e.tracedResult(o, rd, tp, tr, wrong)
}

// measure is the untraced run: setup samples, the measured program
// (warm-up, then a window of --seconds), then the checks against
// references.
func (w stepWorkload) measure(o options, s spec, rd *record, withSetup bool) (*e2eRun, error) {
	e := &e2eRun{unit: "step"}
	if withSetup {
		deadline := time.Now().Add(setupBudget)
		for i := 0; i < setupWarm+setupMin || (i < setupWarm+setupMax && time.Now().Before(deadline)); i++ {
			rec, _, err := runOnce(w.backend, o.shards, s, plan{}, nil)
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			if i >= setupWarm {
				e.setup = append(e.setup, rec.readyAt)
			}
		}
	}
	runtime.GC()
	stopRSS := sampleRSS()
	rec, c, err := runOnce(w.backend, o.shards, s, plan{warmFor: w.warmFor, window: time.Duration(o.seconds) * time.Second}, nil)
	e.rssMB = stopRSS()
	if err != nil {
		e.attempted, e.failed = 1, 1
		e.checks = append(e.checks, "execute: "+err.Error())
		return e, nil
	}
	total := len(rec.ends)
	e.attempted = int64(total)
	e.retained = c.retained
	e.units = rec.measured()
	e.steps = e.units
	e.rate, e.cpuMs = windowMedians(rec.marks)
	e.windows = len(rec.marks) - 1
	e.lat = durationsMs(rec.latencies())
	e.win = [2]usage{rec.winA, rec.winB}
	rd.Samples["steps"] = total
	rd.Samples["warmup_steps"] = rec.opened + 1
	rd.Samples["latency"] = len(e.lat)
	wrong, note, seqRate := check(s, total, *rec.out)
	e.failed = int64(wrong)
	e.checks = append(e.checks, note)
	rd.Extra["sequential_steps_per_s"] = seqRate
	return e, nil
}

// check compares a run's output with a one-shard in-process run of the
// same seed (bit for bit) and with the sequential loop (within relTol).
// It returns the number of wrong steps, a note for the record, and the
// sequential loop's rate in steps per second.
func check(s spec, steps int, got output) (wrong int, note string, seqRate float64) {
	one, _, err := runOnce("mem", 1, s, plan{steps: steps}, nil)
	if err != nil {
		return steps, "one-shard reference: " + err.Error(), 0
	}
	t0 := time.Now()
	seq := s.sequential(steps)
	seqRate = float64(steps) / time.Since(t0).Seconds()
	bad1 := wrongSteps(*one.out, got, 0)
	badSeq := wrongSteps(seq, got, relTol)
	note = fmt.Sprintf("%d steps: %d differ from the 1-shard run (bitwise), %d from the sequential loop (rel tol %g)",
		steps, bad1, badSeq, relTol)
	return max(bad1, badSeq), note, seqRate
}

// traced runs the traced phase: a fixed number of steps with every
// wrapper installed. It returns the counters and how many steps were
// wrong.
func (w stepWorkload) traced(o options, s spec, tr *tracer) (tracedRun, int, error) {
	rec, c, err := runOnce(w.backend, o.shards, s, plan{steps: w.traceSteps, warm: w.traceSteps / 10}, tr)
	if err != nil {
		return tracedRun{}, 0, fmt.Errorf("traced run: %w", err)
	}
	wrong, _, _ := check(s, w.traceSteps, *rec.out)
	return tracedRun{spans: tr.snapshot(), c: c, steps: int64(w.traceSteps),
		tracedRate: rec.rate(), attempted: int64(w.traceSteps)}, wrong, nil
}
