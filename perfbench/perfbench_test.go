package main

import (
	"runtime"
	"testing"
)

func testOptions(workload string, seed uint64) options {
	return options{workload: workload, seed: seed, seconds: 1, shards: runtime.NumCPU()}
}

// small shrinks a one-program workload's traced phase for tests.
func small(name string) stepWorkload {
	w := workloads()[name].(stepWorkload)
	w.traceSteps = 300
	return w
}

// The counts a count-based claim may rest on must repeat exactly for a
// seed: two traced runs give identical values.
func TestExactCounts(t *testing.T) {
	exact := []string{"core.ops_per_step", "core.points_per_step", "core.fences_inserted_per_step",
		"core.remote_pulls_per_step", "cluster.messages_per_step"}
	for _, name := range exact {
		found := false
		for _, e := range exactCounts {
			found = found || e == name
		}
		if !found {
			t.Errorf("%s is not marked as an exact count", name)
		}
	}
	runs := map[string]func() map[string]metric{
		"stencil-mem": func() map[string]metric {
			w := small("stencil-mem")
			o := testOptions("stencil-mem", 7)
			tp, wrong, err := w.traced(o, w.newSpec(o.seed), newTracer())
			if err != nil || wrong != 0 {
				t.Fatalf("traced stencil-mem: %d wrong steps, %v", wrong, err)
			}
			return perLayer(tp)
		},
		"jobs-mixed": func() map[string]metric {
			w := jobsWorkload{traceJobs: 60}
			o := testOptions("jobs-mixed", 7)
			plain, pc := fixedJobs(o, nil, w.traceJobs)
			tp, wrong := w.traced(o, newTracer(), plain, pc)
			if wrong != 0 {
				t.Fatalf("traced jobs-mixed: %d wrong jobs", wrong)
			}
			return perLayer(tp)
		},
	}
	for name, run := range runs {
		a, b := run(), run()
		for _, m := range exact {
			if a[m].Value != b[m].Value {
				t.Errorf("%s: %s differs between runs of one seed: %v vs %v", name, m, a[m].Value, b[m].Value)
			}
			if a[m].Value == 0 {
				t.Errorf("%s: %s is 0", name, m)
			}
		}
	}
}

// The traced run's wrappers pass every call through unchanged: traced
// and untraced runs of one seed give identical outputs and counts.
func TestTracingChangesNothing(t *testing.T) {
	same := func(t *testing.T, a, b counts) {
		t.Helper()
		if !a.sameExact(b) {
			t.Errorf("counts differ: untraced %+v, traced %+v", a, b)
		}
	}
	for _, name := range []string{"stencil-mem", "circuit-tcp"} {
		t.Run(name, func(t *testing.T) {
			w := small(name)
			o := testOptions(name, 11)
			s := w.newSpec(o.seed)
			plain, pc, err := runOnce(w.backend, o.shards, s, plan{steps: 200}, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, tc, err := runOnce(w.backend, o.shards, s, plan{steps: 200}, tr)
			if err != nil {
				t.Fatal(err)
			}
			if plain.out.digest() != traced.out.digest() {
				t.Error("traced output differs from untraced output")
			}
			same(t, pc, tc)
			if len(tr.snapshot()) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
	t.Run("jobs-mixed", func(t *testing.T) {
		o := testOptions("jobs-mixed", 11)
		plain, pc := fixedJobs(o, nil, 40)
		traced, tc := fixedJobs(o, newTracer(), 40)
		for i := range plain {
			if plain[i].wrong || plain[i].digest != traced[i].digest {
				t.Errorf("job %d: wrong %v, untraced digest %x, traced %x", i, plain[i].wrong, plain[i].digest, traced[i].digest)
			}
		}
		same(t, pc, tc)
	})
}

// Outputs are checked against references that catch a wrong value.
func TestChecksCatchWrongOutput(t *testing.T) {
	s := newStencil(3, 8, 16)
	want := s.sequential(20)
	got := s.sequential(20)
	if n := wrongSteps(want, got, 0); n != 0 {
		t.Fatalf("identical outputs: %d wrong steps", n)
	}
	got.perStep[5] *= 1 + 1e-6
	got.final[3] += 1e-3
	if n := wrongSteps(want, got, relTol); n != 1 {
		t.Errorf("one bad step: got %d wrong steps", n)
	}
	got = s.sequential(20)
	got.final[3] += 1e-3
	if n := wrongSteps(want, got, relTol); n != 1 {
		t.Errorf("bad final field: got %d wrong steps", n)
	}
}
