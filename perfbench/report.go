package main

import "strings"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends its output with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tracedRun is everything a --trace 1 run gathers: the traced phase's
// spans and counters over a fixed amount of work, and the untraced
// phase's rate, tail and Go runtime readings.
type tracedRun struct {
	spans        []span
	c            counts
	steps        int64 // steps the traced phase ran (inside jobs on jobs-mixed)
	untracedRate float64
	tracedRate   float64
	p99ms        float64 // untraced phase
	goA, goB     usage   // untraced measured window
	goSteps      int64   // steps inside that window
	attempted    int64   // steps or jobs the traced phase ran
	retainedKB   float64 // live heap per job held by a live host, untraced
}

// exactCounts are the per-layer metrics that repeat exactly for a seed
// and so may back a count-based claim. Every other per-layer metric is
// a time, or a count that depends on timing (frames and bytes under
// coalescing, retransmissions, GC cycles).
var exactCounts = []string{
	"core.launches_per_step", "core.ops_per_step", "core.points_per_step",
	"core.fences_inserted_per_step", "core.fence_elided_frac",
	"core.remote_pulls_per_step", "core.local_resolve_frac", "cluster.messages_per_step",
}

// spanStats sums durations (ns) and counts of spans by name.
type spanStats map[string]struct{ ns, n int64 }

func (s spanStats) add(name string, d int64) {
	v := s[name]
	v.ns += d
	v.n++
	s[name] = v
}

func (s spanStats) avgUs(name string) float64 {
	v := s[name]
	if v.n == 0 {
		return 0
	}
	return float64(v.ns) / float64(v.n) / 1e3
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer derives the per-layer metrics of a traced run.
func perLayer(r tracedRun) map[string]metric {
	all := spanStats{}    // every span, by name
	lead := spanStats{}   // shard 0's control goroutine, by name
	inStep := spanStats{} // shard 0's spans inside a step
	steps := map[int64]bool{}
	for _, s := range r.spans {
		if s.Name == spanStep && s.Shard == 0 {
			steps[s.ID] = true
		}
	}
	for _, s := range r.spans {
		all.add(s.Name, s.dur())
		if s.Shard == 0 {
			lead.add(s.Name, s.dur())
			if steps[s.Parent] {
				inStep.add(s.Name, s.dur())
			}
		}
	}
	n := float64(r.steps)
	perStepUs := func(ns int64) float64 { return ratio(float64(ns), n) / 1e3 }
	timerUs := func(path string) float64 {
		if t := r.c.timers.Find(path); t != nil {
			return float64(t.TotalNs) / 1e3
		}
		return 0
	}
	c := r.c
	stepNs := lead[spanStep].ns
	other := stepNs - inStep[spanIssue].ns - inStep[spanReduce].ns - inStep[spanWait].ns
	goSteps := float64(r.goSteps)
	m := map[string]metric{
		// core, control goroutine of shard 0: an exclusive breakdown of
		// step time (issue + reduce + wait + other = step).
		"core.step_us":             {ratio(float64(stepNs), float64(lead[spanStep].n)) / 1e3, "us"},
		"core.issue_us_per_step":   {perStepUs(inStep[spanIssue].ns), "us"},
		"core.reduce_us_per_step":  {perStepUs(inStep[spanReduce].ns), "us"},
		"core.wait_us_per_step":    {perStepUs(inStep[spanWait].ns), "us"},
		"core.other_us_per_step":   {perStepUs(other), "us"},
		"core.wait_frac_of_step":   {ratio(float64(inStep[spanWait].ns), float64(stepNs)), "ratio"},
		"core.issue_us_per_launch": {all.avgUs(spanIssue), "us"},
		"core.launches_per_step":   {ratio(float64(lead[spanIssue].n), n), "count"},
		// core analysis and execution, from the runtime's timer tree
		// and counters (busy time summed over shards).
		"core.coarse_us_per_op":         {ratio(timerUs("coarse/analysis"), float64(c.ops)), "us"},
		"core.fine_us_per_op":           {ratio(timerUs("fine/analysis"), float64(c.ops)), "us"},
		"core.fence_wait_us_per_step":   {ratio(timerUs("fine/fence_wait"), n), "us"},
		"core.ops_per_step":             {ratio(float64(c.ops), n), "count"},
		"core.fences_inserted_per_step": {ratio(float64(c.fencesIn), n), "count"},
		"core.fence_elided_frac":        {ratio(float64(c.fencesOut), float64(c.fencesIn+c.fencesOut)), "ratio"},
		"core.task_us_per_point":        {all.avgUs(spanTask), "us"},
		"core.points_per_step":          {ratio(float64(c.points), n), "count"},
		"core.pull_wire_us_per_step":    {ratio(timerUs("execute/pull_wire"), n), "us"},
		"core.remote_pulls_per_step":    {ratio(float64(c.remotePulls), n), "count"},
		"core.local_resolve_frac":       {ratio(float64(c.localResolves), float64(c.localResolves+c.remotePulls)), "ratio"},
		"collective.us_per_step":        {ratio(timerUs("collective"), n), "us"},
		"cluster.messages_per_step":     {ratio(float64(c.messages), n), "count"},
		"cluster.bytes_per_step":        {ratio(float64(c.bytes), n), "bytes"},
		"cluster.frames_per_step":       {ratio(float64(c.frames), n), "count"},
		"cluster.send_us_per_frame":     {all.avgUs(spanSend), "us"},
		"cluster.deliver_us_per_frame":  {all.avgUs(spanDeliver), "us"},
		"cluster.coalesce_ratio":        {ratio(float64(c.messages), float64(c.frames)), "ratio"},
		"cluster.retransmit_frac":       {ratio(float64(c.retransmits), float64(c.messages)), "ratio"},
		"cluster.corrupt_frames":        {float64(c.corrupt), "count"},
		"host.newjob_us":                {all.avgUs(spanNewJob), "us"},
		"host.shutdown_us":              {all.avgUs(spanShutdown), "us"},
		"host.job_prologue_us":          {lead.avgUs(spanPrologue), "us"},
		"host.retained_kb_per_job":      {r.retainedKB, "KB"},
		"region.create_us_per_call":     {all.avgUs(spanCreate), "us"},
		"region.partition_us_per_call":  {all.avgUs(spanPartition), "us"},
		"go.alloc_bytes_per_step":       {ratio(float64(r.goB.allocs-r.goA.allocs), goSteps), "bytes"},
		"go.gc_cycles_per_kstep":        {ratio(1000*float64(r.goB.gcs-r.goA.gcs), goSteps), "count"},
		"go.sched_latency_us_p90":       {schedP90us(r.goA, r.goB), "us"},
		"e2e.latency_ms_p99":            {r.p99ms, "ms"},
		"trace.overhead_frac":           {ratio(r.untracedRate, r.tracedRate) - 1, "ratio"},
	}
	return m
}

// breakdown renders shard 0's exclusive step breakdown for the report.
func breakdown(m map[string]metric) string {
	var b strings.Builder
	b.WriteString("step time on shard 0's control goroutine (exclusive, µs per step):")
	for _, k := range []string{"core.issue_us_per_step", "core.reduce_us_per_step", "core.wait_us_per_step", "core.other_us_per_step", "core.step_us"} {
		b.WriteString(" " + strings.TrimSuffix(strings.TrimPrefix(k, "core."), "_us_per_step") + "=")
		b.WriteString(fmtFloat(m[k].Value))
	}
	return b.String()
}
