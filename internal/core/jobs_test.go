package core

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"godcr/internal/cluster"
	"godcr/internal/testutil"
)

// The job plane: a resident Host multiplexing isolated jobs over one
// shard pool. The acceptance bar is bit-identity — a job run
// concurrently with another (including one being chaos-killed and
// restarted by its own supervisor) must produce outputs and a
// ControlHash identical to the same program run solo on a fresh
// single-job runtime, on both the in-process and TCP backends.

// Per-job workload builders over the determinism-matrix programs. Each
// returns a fresh Program recording into out; the circuit variant skips
// the agreed() assertion inside the callback because a chaos-killed
// attempt can park a partial sum in the cell before the abort lands
// (the supervised convergence tests make the same concession).
func stencilJobProgram(out *vecCell) Program {
	return stencil1DProgram(64, 8, 12, 1.0, func(state, flux []float64) error {
		return out.record(append(append([]float64(nil), state...), flux...))
	})
}

func circuitJobProgram(out *vecCell) Program {
	return circuitProgram(32, 8, 8, &sumCell{}, out.record)
}

func logregJobProgram(out *vecCell) Program {
	return logregProgram(48, 8, 6, out)
}

// soloBaseline runs the program on a fresh single-job runtime and
// returns its outputs and ControlHash.
func soloBaseline(t *testing.T, shards int, register func(*Runtime), build func(*vecCell) Program) ([]float64, [2]uint64) {
	t.Helper()
	var out vecCell
	rt := runProgram(t, Config{Shards: shards, SafetyChecks: true}, register, build(&out))
	hash := rt.ControlHash()
	if hash == ([2]uint64{}) {
		t.Fatal("zero baseline control hash")
	}
	return out.get(), hash
}

// expectRun asserts one job run converged bit-identically to its solo
// baseline.
func expectRun(t *testing.T, label string, rt *Runtime, out *vecCell, wantOut []float64, wantHash [2]uint64) {
	t.Helper()
	if got := rt.ControlHash(); got != wantHash {
		t.Fatalf("%s: control hash %x, want %x", label, got, wantHash)
	}
	vals := out.get()
	if len(vals) != len(wantOut) {
		t.Fatalf("%s: %d outputs, want %d", label, len(vals), len(wantOut))
	}
	for i := range wantOut {
		if vals[i] != wantOut[i] {
			t.Fatalf("%s: output[%d] = %v, want %v", label, i, vals[i], wantOut[i])
		}
	}
}

// A second Execute/Resume while an attempt is in flight must fail fast
// with the structured ErrProgramBusy — on the legacy shim and on a
// scoped job alike — and must not disturb the in-flight attempt.
func TestJobErrProgramBusy(t *testing.T) {
	check := func(t *testing.T, rt *Runtime) {
		t.Helper()
		gate := make(chan struct{})
		started := make(chan struct{})
		var once sync.Once
		prog := func(ctx *Context) error {
			once.Do(func() { close(started) })
			<-gate
			return nil
		}
		done := make(chan error, 1)
		go func() { done <- rt.Execute(prog) }()
		<-started
		if err := rt.Execute(prog); !errors.Is(err, ErrProgramBusy) {
			t.Fatalf("concurrent Execute = %v, want ErrProgramBusy", err)
		}
		cp := &Checkpoint{Shards: rt.cfg.Shards, Journal: newJournal()}
		if err := rt.Resume(cp, prog); !errors.Is(err, ErrProgramBusy) {
			t.Fatalf("concurrent Resume = %v, want ErrProgramBusy", err)
		}
		close(gate)
		if err := <-done; err != nil {
			t.Fatalf("in-flight Execute failed after busy rejections: %v", err)
		}
	}
	t.Run("legacy", func(t *testing.T) {
		testutil.CheckGoroutines(t)
		rt := NewRuntime(Config{Shards: 2, SafetyChecks: true, Journal: true})
		defer rt.Shutdown()
		check(t, rt)
	})
	t.Run("scoped", func(t *testing.T) {
		testutil.CheckGoroutines(t)
		h := NewHost(Config{Shards: 2, SafetyChecks: true, Journal: true})
		defer h.Shutdown()
		check(t, h.NewJob(1))
	})
}

// Two jobs sharing one CheckpointDir must keep disjoint generation
// chains: each job's keep-K GC prunes only its own job-<id>
// subdirectory, and neither can invalidate the other's freshest
// spilled checkpoint.
func TestJobCheckpointGCIsolation(t *testing.T) {
	testutil.CheckGoroutines(t)
	dir := t.TempDir()
	h := NewHost(Config{Shards: 4, SafetyChecks: true, CheckpointEvery: 1, CheckpointDir: dir})
	defer h.Shutdown()
	j1, j2 := h.NewJob(1), h.NewJob(2)
	registerStencilTasks(j1)
	registerLogregTasks(j2)

	var out1, out2 vecCell
	var err1, err2 error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); err1 = j1.Execute(stencilJobProgram(&out1)) }()
	go func() { defer wg.Done(); err2 = j2.Execute(logregJobProgram(&out2)) }()
	wg.Wait()
	if err1 != nil {
		t.Fatalf("job 1: %v", err1)
	}
	if err2 != nil {
		t.Fatalf("job 2: %v", err2)
	}

	for _, id := range []int{1, 2} {
		sub := filepath.Join(dir, fmt.Sprintf("job-%d", id))
		gens, err := checkpointGenerations(sub)
		if err != nil {
			t.Fatalf("job %d generations: %v", id, err)
		}
		if len(gens) == 0 {
			t.Fatalf("job %d spilled no generations", id)
		}
		if len(gens) > DefaultCheckpointKeep {
			t.Fatalf("job %d GC kept %d generations, want <= %d", id, len(gens), DefaultCheckpointKeep)
		}
		cp, err := LoadCheckpoint(sub)
		if err != nil || cp == nil || cp.Frontier == 0 {
			t.Fatalf("job %d freshest checkpoint unusable: cp=%v err=%v", id, cp, err)
		}
	}
	// The shared parent holds only the job subdirectories — no job may
	// spill generations into it.
	if gens, err := checkpointGenerations(dir); err != nil || len(gens) != 0 {
		t.Fatalf("shared CheckpointDir grew %d generation files (err=%v)", len(gens), err)
	}
}

// Two jobs on one in-process host, run concurrently and then re-run on
// the same (reused) jobs: every run's outputs and ControlHash must be
// bit-identical to the solo baselines.
func TestConcurrentJobsMem(t *testing.T) {
	testutil.CheckGoroutines(t)
	const shards = 4
	wantS, hashS := soloBaseline(t, shards, registerStencilTasks, stencilJobProgram)
	wantL, hashL := soloBaseline(t, shards, registerLogregTasks, logregJobProgram)

	h := NewHost(Config{Shards: shards, SafetyChecks: true})
	defer h.Shutdown()
	j1, j2 := h.NewJob(1), h.NewJob(2)
	registerStencilTasks(j1)
	registerLogregTasks(j2)

	// Round 2 reuses the jobs: the attempt boundary must fully re-arm a
	// job that already completed a program.
	for round := 1; round <= 2; round++ {
		var out1, out2 vecCell
		var err1, err2 error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); err1 = j1.Execute(stencilJobProgram(&out1)) }()
		go func() { defer wg.Done(); err2 = j2.Execute(logregJobProgram(&out2)) }()
		wg.Wait()
		if err1 != nil {
			t.Fatalf("round %d job 1: %v", round, err1)
		}
		if err2 != nil {
			t.Fatalf("round %d job 2: %v", round, err2)
		}
		expectRun(t, fmt.Sprintf("round %d job 1 (stencil)", round), j1, &out1, wantS, hashS)
		expectRun(t, fmt.Sprintf("round %d job 2 (logreg)", round), j2, &out2, wantL, hashL)
	}
}

// The multi-process acceptance run: three hosts over TCP loopback
// (one shard each), every host carrying the same two jobs. Job 1
// (stencil, supervised) is chaos-killed mid-run on the journal
// recorder's host — the abort broadcasts to the peer hosts, every
// half's supervisor restarts from its freshest checkpoint, and the job
// converges bit-identically to the solo baseline. Job 2 (circuit,
// supervised) must complete with zero restarts: one job's murder is
// invisible to the other.
func TestConcurrentJobsTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-host job-plane soak")
	}
	testutil.CheckGoroutines(t)
	const shards = 3
	wantS, hashS := soloBaseline(t, shards, registerStencilTasks, stencilJobProgram)
	wantC, hashC := soloBaseline(t, shards, registerCircuitTasks, circuitJobProgram)

	lns := make([]net.Listener, shards)
	addrs := make([]string, shards)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	dirs := make([]string, shards)
	hosts := make([]*Host, shards)
	j1s := make([]*Runtime, shards)
	j2s := make([]*Runtime, shards)
	for i := range hosts {
		tr, err := cluster.NewTCPTransport(cluster.TCPOptions{
			Self: cluster.NodeID(i), Addrs: addrs, Listener: lns[i],
		})
		if err != nil {
			t.Fatalf("transport %d: %v", i, err)
		}
		dirs[i] = filepath.Join(t.TempDir(), "ckpt")
		hosts[i] = NewHost(Config{
			Shards:          shards,
			SafetyChecks:    true,
			Transport:       tr,
			CheckpointEvery: 4,
			CheckpointDir:   dirs[i],
			OpDeadline:      15 * time.Second,
		})
		j1s[i] = hosts[i].NewJob(1)
		j2s[i] = hosts[i].NewJob(2)
		registerStencilTasks(j1s[i])
		registerCircuitTasks(j2s[i])
	}
	defer func() {
		for _, h := range hosts {
			h.Shutdown()
		}
	}()

	pol := func(restarts *atomic.Int64) SupervisorPolicy {
		return SupervisorPolicy{
			MaxRestarts: 8,
			Backoff:     5 * time.Millisecond,
			BackoffCap:  40 * time.Millisecond,
			JitterSeed:  1,
			OnEvent:     func(SupervisorEvent) { restarts.Add(1) },
		}
	}
	var job1Restarts, job2Restarts atomic.Int64
	out1 := make([]*vecCell, shards)
	out2 := make([]*vecCell, shards)
	err1 := make([]error, shards)
	err2 := make([]error, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		out1[i], out2[i] = &vecCell{}, &vecCell{}
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			err1[i] = j1s[i].RunSupervised(stencilJobProgram(out1[i]), pol(&job1Restarts))
		}(i)
		go func(i int) {
			defer wg.Done()
			err2[i] = j2s[i].RunSupervised(circuitJobProgram(out2[i]), pol(&job2Restarts))
		}(i)
	}

	// Kill job 1 on the journal recorder's host once it has spilled a
	// checkpoint, so the murder lands mid-run with recoverable state on
	// disk; job 2 is never touched.
	victimDir := filepath.Join(dirs[0], "job-1")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if cp, err := LoadCheckpoint(victimDir); err == nil && cp != nil && cp.Frontier > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job 1 never spilled a checkpoint")
		}
		time.Sleep(time.Millisecond)
	}
	j1s[0].Kill("job-plane chaos")

	done := make(chan struct{})
	go func() { defer close(done); wg.Wait() }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("concurrent jobs did not converge")
	}

	for i := 0; i < shards; i++ {
		if err1[i] != nil {
			t.Fatalf("host %d job 1: %v", i, err1[i])
		}
		if err2[i] != nil {
			t.Fatalf("host %d job 2: %v", i, err2[i])
		}
	}
	if job1Restarts.Load() == 0 {
		t.Fatal("job 1 was killed mid-run but no supervisor restarted it")
	}
	if n := job2Restarts.Load(); n != 0 {
		t.Fatalf("job 2 restarted %d times; job 1's kill leaked across the job boundary", n)
	}
	for i := 0; i < shards; i++ {
		expectRun(t, fmt.Sprintf("host %d job 1 (stencil)", i), j1s[i], out1[i], wantS, hashS)
		expectRun(t, fmt.Sprintf("host %d job 2 (circuit)", i), j2s[i], out2[i], wantC, hashC)
	}
}

// Seeded chaos soak over the in-process host (the `make chaos-jobs`
// workhorse): job 1 runs supervised and is Kill()ed at a seeded offset
// — anywhere from before its first op to after completion — while job
// 2 runs unsupervised beside it. Every seed must converge both jobs
// bit-identically to the solo baselines.
func TestJobIsolationChaos(t *testing.T) {
	const shards = 4
	wantS, hashS := soloBaseline(t, shards, registerStencilTasks, stencilJobProgram)
	wantL, hashL := soloBaseline(t, shards, registerLogregTasks, logregJobProgram)

	for _, seed := range []uint64{3, 7, 11, 19} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			rng := rand.New(rand.NewSource(int64(seed)))
			h := NewHost(Config{
				Shards:          shards,
				SafetyChecks:    true,
				CheckpointEvery: 2,
				CheckpointDir:   t.TempDir(),
				OpDeadline:      10 * time.Second,
			})
			defer h.Shutdown()
			j1, j2 := h.NewJob(1), h.NewJob(2)
			registerStencilTasks(j1)
			registerLogregTasks(j2)

			var out1, out2 vecCell
			var err1, err2 error
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				err1 = j1.RunSupervised(stencilJobProgram(&out1), SupervisorPolicy{
					MaxRestarts: 6,
					Backoff:     time.Millisecond,
					JitterSeed:  seed,
				})
			}()
			go func() {
				defer wg.Done()
				err2 = j2.Execute(logregJobProgram(&out2))
			}()

			// The kill offset sweeps the whole attempt lifetime across
			// seeds; a kill landing after completion must be harmless.
			time.Sleep(time.Duration(rng.Intn(8000)) * time.Microsecond)
			j1.Kill(fmt.Sprintf("chaos seed %d", seed))
			wg.Wait()
			if err1 != nil {
				t.Fatalf("job 1 (killed, supervised): %v", err1)
			}
			if err2 != nil {
				t.Fatalf("job 2 (survivor): %v", err2)
			}
			expectRun(t, "job 1 (stencil)", j1, &out1, wantS, hashS)
			expectRun(t, "job 2 (logreg)", j2, &out2, wantL, hashL)
		})
	}
}

// TestJobHandlersReleased is the job-plane leak regression: a finished
// job's active-message handlers close over its whole runtime, so they
// must leave the host's shared endpoints when the job shuts down. After
// 200 jobs the handler count is back at its pre-job baseline.
func TestJobHandlersReleased(t *testing.T) {
	h := NewHost(Config{Shards: 4, SafetyChecks: true})
	defer h.Shutdown()
	base := h.Cluster().Handlers()
	for id := uint64(1); id <= 200; id++ {
		job := h.NewJob(id)
		if id == 1 {
			registerStencilTasks(job) // tasks are host-wide
		}
		if err := job.Execute(stencil1DProgram(32, 4, 2, 1.0, func(_, _ []float64) error { return nil })); err != nil {
			t.Fatalf("job %d: %v", id, err)
		}
		if id == 1 && h.Cluster().Handlers() == base {
			t.Fatal("a running job registered no handlers; the regression would pass vacuously")
		}
		job.Shutdown()
	}
	if got := h.Cluster().Handlers(); got != base {
		t.Fatalf("200 finished jobs left %d handlers on the endpoints, want the baseline %d", got, base)
	}
}
