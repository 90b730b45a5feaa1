package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is the Go runtime's allocation, GC and scheduling counters at
// one instant.
type usage struct {
	allocs uint64 // heap bytes allocated so far
	gcs    uint64 // completed GC cycles
	sched  *metrics.Float64Histogram
}

var goMetricNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/sched/latencies:seconds"}

func readUsage() usage {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return usage{
		allocs: s[0].Value.Uint64(),
		gcs:    s[1].Value.Uint64(),
		sched:  s[2].Value.Float64Histogram(),
	}
}

// cpuTime is the process's user + system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB is the process's resident set now, in MB (0 if unreadable).
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// sampleRSS reads the resident set every 100 ms until the returned
// function is called; that function returns the median reading in MB.
func sampleRSS() (stop func() float64) {
	quit, done := make(chan struct{}), make(chan struct{})
	var samples []float64
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				samples = append(samples, rssMB())
			}
		}
	}()
	return func() float64 {
		close(quit)
		<-done
		return quantile(samples, 0.5)
	}
}

// mark is one reading of progress through a measured window.
type mark struct {
	at   time.Duration
	done int64 // units of work finished so far
	cpu  time.Duration
}

func newMark(at time.Duration, done int64) mark {
	return mark{at: at, done: done, cpu: cpuTime()}
}

// markEvery is the length of the windows rates are taken over.
const markEvery = time.Second

// windowMedians splits the measured window at the marks and returns
// the medians over those windows of the rate (units per second) and of
// the CPU time per unit (ms). Medians keep a burst of interference from
// other processes on the host out of both figures.
func windowMedians(ms []mark) (rate, cpuMs float64) {
	var rates, cpus []float64
	for i := 1; i < len(ms); i++ {
		d := ms[i].done - ms[i-1].done
		if d == 0 {
			continue
		}
		rates = append(rates, float64(d)/(ms[i].at-ms[i-1].at).Seconds())
		cpus = append(cpus, float64(ms[i].cpu-ms[i-1].cpu)/1e6/float64(d))
	}
	return quantile(rates, 0.5), quantile(cpus, 0.5)
}

// schedP90us is the 90th percentile of goroutine scheduling latency
// between two readings, in µs (the upper edge of its histogram bucket).
func schedP90us(a, b usage) float64 {
	if a.sched == nil || b.sched == nil {
		return 0
	}
	counts := make([]uint64, len(b.sched.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.9 * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want {
			edge := b.sched.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.sched.Buckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// quantile returns the q-quantile of xs by the nearest-rank rule.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// cpuModel names the processor for the run record.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
