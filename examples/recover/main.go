// Command recover demonstrates the self-healing runtime. It runs the
// Figure 7 stencil with periodic checkpoints and heartbeat failure
// detection enabled, under a fault plan that crashes one shard's
// transport mid-run. RunSupervised closes the recovery loop
// automatically: the heartbeat detector declares the shard down in
// O(heartbeat interval) (the deadlock watchdog is armed as a backstop),
// the supervisor picks the freshest checkpoint, revives the transport
// into a new epoch, and resumes — replaying the journaled prefix of the
// op stream. The healed run completes bit-identical to a fault-free
// run: same outputs, same 128-bit control hash.
//
// Usage:
//
//	go run ./examples/recover -shards 4 -crash-node 2 -crash-after 30
//
// By default the crash lands halfway through the crashed shard's sends
// in the fault-free run, so it fires mid-run whatever the program's
// traffic volume; the demo fails if the crash never fired.
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"godcr"
)

func main() {
	shards := flag.Int("shards", 4, "number of control-replicated shards")
	crashNode := flag.Int("crash-node", 2, "shard whose transport crashes")
	crashAfter := flag.Int("crash-after", 0, "sends before the crash (0 = half the crashed shard's fault-free sends)")
	ncells := flag.Int("cells", 64, "grid cells")
	nsteps := flag.Int("steps", 6, "time steps")
	flag.Parse()

	// Fault-free reference first: the recovery contract is bit-identical
	// output, so compute what "correct" means. Its transport counts each
	// shard's sends, which places the crash mid-run.
	counter := &sendCounter{Transport: godcr.NewMemTransport(*shards), sends: make([]atomic.Uint64, *shards)}
	ref := newStencilRuntime(godcr.Config{Shards: *shards, SafetyChecks: true, Journal: true, Transport: counter})
	var want []float64
	if err := ref.Execute(stencilProgram(*ncells, *shards, *nsteps, func(flux []float64) {
		want = append([]float64(nil), flux...)
	})); err != nil {
		log.Fatalf("fault-free run: %v", err)
	}
	wantHash := ref.ControlHash()
	ref.Shutdown()
	if *crashAfter <= 0 {
		*crashAfter = int(counter.sends[*crashNode].Load() / 2)
	}

	// The doomed run: periodic checkpoints every 8 ops, heartbeat
	// failure detection every 2ms, the deadlock watchdog as backstop,
	// and one shard's transport crashing mid-run.
	rt := newStencilRuntime(godcr.Config{
		Shards:          *shards,
		SafetyChecks:    true,
		CheckpointEvery: 8,
		HeartbeatEvery:  2 * time.Millisecond,
		OpDeadline:      2 * time.Second,
		Faults: &godcr.FaultPlan{
			Stalls: []godcr.StallWindow{{
				Node: godcr.NodeID(*crashNode), AfterSends: uint64(*crashAfter), Crash: true,
			}},
		},
	})
	defer rt.Shutdown()

	var mu sync.Mutex
	var got []float64
	program := stencilProgram(*ncells, *shards, *nsteps, func(flux []float64) {
		mu.Lock()
		got = append([]float64(nil), flux...)
		mu.Unlock()
	})

	// RunSupervised = Execute → detect → checkpoint → Revive → Resume,
	// with bounded restarts and exponential backoff. OnEvent narrates
	// each healing step.
	err := rt.RunSupervised(program, godcr.SupervisorPolicy{
		MaxRestarts: 3,
		Backoff:     5 * time.Millisecond,
		OnEvent: func(e godcr.SupervisorEvent) {
			fmt.Printf("supervisor: attempt %d failed: %v\n", e.Attempt, e.Err)
			fmt.Printf("supervisor: restarting from checkpoint frontier %d after %v\n\n",
				e.Frontier, e.Backoff)
		},
	})
	if err != nil {
		log.Fatalf("supervised run did not heal: %v", err)
	}
	if rt.TransportStats().Stalled == 0 {
		log.Fatalf("the crash after %d sends never fired: nothing was healed", *crashAfter)
	}
	st := rt.Stats()
	fmt.Printf("healed: %d ops fast-forwarded from the journal\n", st.JournalReplays)

	mu.Lock()
	defer mu.Unlock()
	for i := range want {
		if got[i] != want[i] {
			log.Fatalf("flux[%d] = %v, want %v: recovery is not bit-identical", i, got[i], want[i])
		}
	}
	if rt.ControlHash() != wantHash {
		log.Fatalf("control hash diverged after recovery")
	}
	fmt.Printf("verified: %d cells and control hash %x bit-identical to the fault-free run\n",
		len(want), rt.ControlHash())
}

// sendCounter wraps a transport and counts data frames by sender: on a
// fault-free run without heartbeats, each shard's sends — the unit
// StallWindow.AfterSends counts.
type sendCounter struct {
	godcr.Transport
	sends []atomic.Uint64
}

func (s *sendCounter) Send(f *godcr.Frame) error {
	s.sends[f.From].Add(1)
	return s.Transport.Send(f)
}

func newStencilRuntime(cfg godcr.Config) *godcr.Runtime {
	rt := godcr.NewRuntime(cfg)
	rt.RegisterTask("add_one", func(tc *godcr.TaskContext) (float64, error) {
		state := tc.Region(0).Field("state")
		state.Rect().Each(func(p godcr.Point) bool {
			state.Set(p, state.At(p)+1)
			return true
		})
		return 0, nil
	})
	rt.RegisterTask("stencil", func(tc *godcr.TaskContext) (float64, error) {
		flux := tc.Region(0).Field("flux")
		state := tc.Region(1).Field("state")
		flux.Rect().Each(func(p godcr.Point) bool {
			l := state.At(godcr.Pt1(p[0] - 1))
			r := state.At(godcr.Pt1(p[0] + 1))
			flux.Set(p, flux.At(p)+0.5*(l+r))
			return true
		})
		return 0, nil
	})
	return rt
}

func stencilProgram(ncells, ntiles, nsteps int, deliver func(flux []float64)) godcr.Program {
	return func(ctx *godcr.Context) error {
		grid := godcr.R1(0, int64(ncells)-1)
		tiles := godcr.R1(0, int64(ntiles)-1)
		cells := ctx.CreateRegion(grid, "state", "flux")
		owned := ctx.PartitionEqual(cells, ntiles)
		interior := ctx.PartitionInterior(owned, 1)
		ghost := ctx.PartitionHalo(owned, 1)
		ctx.Fill(cells, "state", 1.0)
		ctx.Fill(cells, "flux", 1.0)
		for t := 0; t < nsteps; t++ {
			ctx.IndexLaunch(godcr.Launch{
				Task: "add_one", Domain: tiles,
				Reqs: []godcr.RegionReq{{Part: owned, Priv: godcr.ReadWrite, Fields: []string{"state"}}},
			})
			ctx.IndexLaunch(godcr.Launch{
				Task: "stencil", Domain: tiles,
				Reqs: []godcr.RegionReq{
					{Part: interior, Priv: godcr.ReadWrite, Fields: []string{"flux"}},
					{Part: ghost, Priv: godcr.ReadOnly, Fields: []string{"state"}},
				},
			})
		}
		deliver(ctx.InlineRead(cells, "flux"))
		return nil
	}
}
