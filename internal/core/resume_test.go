package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"godcr/internal/cluster"
	"godcr/internal/testutil"
)

// outputCell records the last (state, flux) pair a program attempt
// produced; a failed attempt's partial outputs are overwritten by the
// resumed attempt's.
type outputCell struct {
	mu    sync.Mutex
	state []float64
	flux  []float64
}

func (c *outputCell) record(state, flux []float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.state = append([]float64(nil), state...)
	c.flux = append([]float64(nil), flux...)
	return nil
}

func (c *outputCell) compare(wantState, wantFlux []float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.state) != len(wantState) {
		return fmt.Errorf("state has %d cells, want %d", len(c.state), len(wantState))
	}
	for i := range wantState {
		// Bit-identical: recovery replays the same deterministic
		// computation, it does not approximate it.
		if c.state[i] != wantState[i] {
			return fmt.Errorf("state[%d] = %v, want %v", i, c.state[i], wantState[i])
		}
		if c.flux[i] != wantFlux[i] {
			return fmt.Errorf("flux[%d] = %v, want %v", i, c.flux[i], wantFlux[i])
		}
	}
	return nil
}

// TestResumeAfterShardCrash is the recovery acceptance test: crash one
// shard's transport mid-run, catch the watchdog's StallError, round-trip
// its Checkpoint through the binary codec, Resume on the revived
// transport, and demand the resumed run completes bit-identical to a
// fault-free run — same outputs, same control hash — with the journal
// prefix fast-forwarded rather than re-analyzed.
func TestResumeAfterShardCrash(t *testing.T) {
	testutil.CheckGoroutines(t)
	const ncells, ntiles, nsteps = 64, 4, 6
	wantState, wantFlux := referenceStencil1D(ncells, 1.0, nsteps)

	// Fault-free journaled run: reference control hash.
	ref := NewRuntime(Config{Shards: 4, SafetyChecks: true, Journal: true})
	registerStencilTasks(ref)
	var refOut outputCell
	if err := ref.Execute(stencil1DProgram(ncells, ntiles, nsteps, 1.0, refOut.record)); err != nil {
		t.Fatalf("fault-free Execute: %v", err)
	}
	if err := refOut.compare(wantState, wantFlux); err != nil {
		t.Fatalf("fault-free run diverged from sequential reference: %v", err)
	}
	wantHash := ref.ControlHash()
	ref.Shutdown()
	if wantHash == ([2]uint64{}) {
		t.Fatal("fault-free run produced a zero control hash")
	}

	// Faulty run: shard 2's transport crashes mid-run (a seeded point
	// in the middle half of its fault-free traffic); the watchdog must
	// convert the hang into a checkpointed StallError.
	sends := sendsPerShard(t, Config{Shards: 4, SafetyChecks: true, Journal: true}, registerStencilTasks,
		stencil1DProgram(ncells, ntiles, nsteps, 1.0, func(_, _ []float64) error { return nil }))
	rt := NewRuntime(Config{
		Shards:       4,
		SafetyChecks: true,
		Journal:      true,
		OpDeadline:   300 * time.Millisecond,
		Faults: &cluster.FaultPlan{
			Stalls: []cluster.StallWindow{{Node: 2, AfterSends: midRunSend(rand.New(rand.NewSource(1)), sends[2]), Crash: true}},
		},
	})
	defer rt.Shutdown()
	registerStencilTasks(rt)
	var out outputCell
	program := stencil1DProgram(ncells, ntiles, nsteps, 1.0, out.record)

	err := rt.Execute(program)
	if err == nil {
		t.Fatal("Execute succeeded despite a crashed shard")
	}
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	if stall.Checkpoint == nil {
		t.Fatal("StallError carries no checkpoint despite Config.Journal")
	}
	if stall.Checkpoint.Frontier == 0 {
		t.Fatalf("checkpoint frontier is 0; stall injected too early: %+v", stall)
	}

	// The checkpoint must survive its own wire format (a real recovery
	// would persist it outside the failed process).
	cp, cerr := DecodeCheckpoint(stall.Checkpoint.Encode())
	if cerr != nil {
		t.Fatalf("checkpoint round-trip: %v", cerr)
	}
	if cp.Frontier != stall.Checkpoint.Frontier || cp.Ctl != stall.Checkpoint.Ctl {
		t.Fatalf("checkpoint round-trip changed it: %+v vs %+v", cp, stall.Checkpoint)
	}
	if len(cp.Versions) == 0 {
		t.Fatal("checkpoint has an empty region version vector")
	}

	// Resume on the healed transport: re-admit the crashed shard into a
	// new epoch and replay.
	if err := rt.Resume(cp, program); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if err := out.compare(wantState, wantFlux); err != nil {
		t.Fatalf("resumed run diverged from fault-free outputs: %v", err)
	}
	if got := rt.ControlHash(); got != wantHash {
		t.Fatalf("resumed control hash %x, want %x", got, wantHash)
	}
	st := rt.Stats()
	if st.JournalReplays == 0 {
		t.Fatal("resume re-analyzed everything: Stats.JournalReplays == 0")
	}
	// Every shard fast-forwards the same frontier prefix.
	if want := cp.Frontier * 4; st.JournalReplays != want {
		t.Fatalf("JournalReplays = %d, want %d (frontier %d × 4 shards)",
			st.JournalReplays, want, cp.Frontier)
	}
}

// TestResumeValidation exercises Resume's error paths.
func TestResumeValidation(t *testing.T) {
	rt := NewRuntime(Config{Shards: 2})
	defer rt.Shutdown()
	if err := rt.Resume(nil, nil); err == nil {
		t.Fatal("Resume(nil) succeeded")
	}
	if err := rt.Resume(&Checkpoint{Shards: 2}, nil); err == nil {
		t.Fatal("Resume without Config.Journal succeeded")
	}

	jrt := NewRuntime(Config{Shards: 2, Journal: true})
	defer jrt.Shutdown()
	if err := jrt.Resume(&Checkpoint{Shards: 4, Journal: newJournal()}, nil); err == nil {
		t.Fatal("Resume with mismatched shard count succeeded")
	}
	// A nil program cannot be resumed (the transport stays healthy, so
	// this exercises the no-Revive resume path too).
	if err := jrt.Resume(&Checkpoint{Shards: 2, Journal: newJournal()}, nil); err == nil {
		t.Fatal("Resume with a nil program succeeded")
	}
}
