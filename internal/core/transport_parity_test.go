package core

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"godcr/internal/cluster"
	"godcr/internal/testutil"
)

// Transport parity: the determinism-matrix workloads must produce
// bit-identical outputs and ControlHash whether the shards share a
// process (MemTransport) or each live behind a TCP socket on loopback
// — the runtime above the seam cannot tell the backends apart.

// parityWorkload is one (register, build) pair; build returns a fresh
// program recording its output vector into out.
type parityWorkload struct {
	name     string
	register func(rt *Runtime)
	build    func(out *vecCell) Program
}

func parityWorkloads() []parityWorkload {
	return []parityWorkload{
		{
			name:     "stencil",
			register: registerStencilTasks,
			build: func(out *vecCell) Program {
				return stencil1DProgram(64, 8, 5, 1.0, func(state, flux []float64) error {
					return out.record(append(append([]float64(nil), state...), flux...))
				})
			},
		},
		{
			name:     "circuit",
			register: registerCircuitTasks,
			build: func(out *vecCell) Program {
				var sums sumCell
				return circuitProgram(32, 8, 4, &sums, func(voltage []float64) error {
					sum, err := sums.agreed()
					if err != nil {
						return err
					}
					return out.record(append(append([]float64(nil), voltage...), sum))
				})
			},
		},
		{
			name:     "logreg",
			register: registerLogregTasks,
			build: func(out *vecCell) Program {
				return logregProgram(48, 8, 6, out)
			},
		},
	}
}

// loopbackTransports builds one TCPTransport per shard, all on
// 127.0.0.1 with pre-bound :0 listeners (no port races).
func loopbackTransports(t *testing.T, n int) []*cluster.TCPTransport {
	t.Helper()
	return groupedTransports(t, singletons(n))
}

// singletons places each of n shards in its own process-equivalent.
func singletons(n int) [][]int {
	groups := make([][]int, n)
	for i := range groups {
		groups[i] = []int{i}
	}
	return groups
}

// replica is one process-equivalent's outcome of a run.
type replica struct {
	out  []float64
	hash [2]uint64
	st   Stats
}

// runOverTCP executes the workload as one runtime per shard group,
// each behind its own TCP endpoint hosting that group's shards — the
// in-test equivalent of len(groups) OS processes — and returns each
// runtime's recorded output, control hash and stats.
func runOverTCP(t *testing.T, wl parityWorkload, groups [][]int) []replica {
	t.Helper()
	shards := 0
	for _, g := range groups {
		shards += len(g)
	}
	trs := groupedTransports(t, groups)
	rts := make([]*Runtime, len(groups))
	outs := make([]*vecCell, len(groups))
	for i := range rts {
		rts[i] = NewRuntime(Config{Shards: shards, SafetyChecks: true, Transport: trs[i]})
		wl.register(rts[i])
		outs[i] = &vecCell{}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(groups))
	for i := range rts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = rts[i].Execute(wl.build(outs[i]))
		}(i)
	}
	wg.Wait()
	runs := make([]replica, len(groups))
	for i, rt := range rts {
		if errs[i] != nil {
			t.Fatalf("process %d (shards %v) over tcp: %v", i, groups[i], errs[i])
		}
		runs[i] = replica{out: outs[i].get(), hash: rt.ControlHash(), st: rt.Stats()}
		rt.Shutdown()
	}
	return runs
}

// checkParity demands a replica's outputs and control hash be
// bit-identical to the baseline's.
func checkParity(t *testing.T, label string, vals, want []float64, hash, wantHash [2]uint64) {
	t.Helper()
	if hash != wantHash {
		t.Fatalf("%s control hash %x, want %x", label, hash, wantHash)
	}
	if len(vals) != len(want) {
		t.Fatalf("%s has %d outputs, want %d", label, len(vals), len(want))
	}
	for j := range want {
		// Bit-identical, not approximately equal.
		if vals[j] != want[j] {
			t.Fatalf("%s output[%d] = %v, want %v", label, j, vals[j], want[j])
		}
	}
}

// TestTransportParity is the backend matrix: the runtime above the
// seam must be blind to the transport, the payload encoding, and the
// data path the runtime picked. "mem" is the plain in-process backend
// and "mem+binary" forces every payload through the binary wire codec
// (WireEncode); "job" runs the workload as a job on a resident Host.
// All three host every shard in one process, so the runtime pushes
// ghost data. "tcp+binary" puts each shard behind its own TCP
// endpoint, where the runtime pulls; "tcp+binary+push" hosts every
// shard behind one TCP endpoint, where it pushes again. Each row at
// each shard count moves the same transfers as the one-shard-per-
// endpoint pull run — a pull there is a push or an (inline-read) pull
// here — with bit-identical outputs and ControlHash.
func TestTransportParity(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	for _, wl := range parityWorkloads() {
		t.Run(wl.name, func(t *testing.T) {
			// Baseline: the in-process backend at 4 shards.
			var base vecCell
			rt := runProgram(t, Config{Shards: 4, SafetyChecks: true}, wl.register, wl.build(&base))
			wantOut, wantHash := base.get(), rt.ControlHash()
			if wantHash == ([2]uint64{}) {
				t.Fatal("zero baseline control hash")
			}
			for _, shards := range []int{2, 4} {
				// The pull reference: one shard per TCP endpoint.
				pulls := runOverTCP(t, wl, singletons(shards))
				var refPulls uint64
				for _, r := range pulls {
					if r.st.RemotePushes != 0 {
						t.Fatalf("shards=%d: one-shard-per-endpoint tcp pushed %d pieces", shards, r.st.RemotePushes)
					}
					refPulls += r.st.RemotePulls
				}
				backends := []struct {
					name string
					run  func(t *testing.T) []replica
				}{
					{"mem", func(t *testing.T) []replica { return runMem(t, wl, Config{Shards: shards}) }},
					{"mem+binary", func(t *testing.T) []replica {
						return runMem(t, wl, Config{Shards: shards, WireEncode: true})
					}},
					{"job", func(t *testing.T) []replica { return runJob(t, wl, shards) }},
					{"tcp+binary", func(t *testing.T) []replica { return pulls }},
					{"tcp+binary+push", func(t *testing.T) []replica {
						all := make([]int, shards)
						for i := range all {
							all[i] = i
						}
						return runOverTCP(t, wl, [][]int{all})
					}},
				}
				for _, backend := range backends {
					t.Run(fmt.Sprintf("%s/shards=%d", backend.name, shards), func(t *testing.T) {
						var moved uint64
						for i, r := range backend.run(t) {
							checkParity(t, fmt.Sprintf("replica %d", i), r.out, wantOut, r.hash, wantHash)
							moved += r.st.RemotePulls + r.st.RemotePushes
						}
						if moved != refPulls {
							t.Fatalf("moved %d transfers, want the pull reference's %d: every pull must "+
								"become a push or stay an (inline-read) pull", moved, refPulls)
						}
					})
				}
			}
		})
	}
}

// runJob runs the workload as job 1 on a fresh in-process Host and
// reports it as a single process-equivalent.
func runJob(t *testing.T, wl parityWorkload, shards int) []replica {
	t.Helper()
	h := NewHost(Config{Shards: shards, SafetyChecks: true})
	defer h.Shutdown()
	job := h.NewJob(1)
	defer job.Shutdown()
	wl.register(job)
	var out vecCell
	if err := job.Execute(wl.build(&out)); err != nil {
		t.Fatalf("job: %v", err)
	}
	return []replica{{out: out.get(), hash: job.ControlHash(), st: job.Stats()}}
}

// runMem runs the workload on the in-process backend under cfg and
// reports it as a single process-equivalent.
func runMem(t *testing.T, wl parityWorkload, cfg Config) []replica {
	t.Helper()
	cfg.SafetyChecks = true
	var out vecCell
	rt := runProgram(t, cfg, wl.register, wl.build(&out))
	return []replica{{out: out.get(), hash: rt.ControlHash(), st: rt.Stats()}}
}

// TestTransportBytesCounted is the runtime-level half of the byte
// accounting regression: a plain run (no WireEncode) must report
// nonzero transport bytes through Stats.
func TestTransportBytesCounted(t *testing.T) {
	var out vecCell
	rt := runProgram(t, Config{Shards: 4}, registerStencilTasks,
		stencil1DProgram(64, 8, 3, 1.0, func(state, flux []float64) error {
			return out.record(state)
		}))
	if st := rt.Stats(); st.Bytes == 0 {
		t.Fatalf("Stats.Bytes is zero on a plain 4-shard run (messages=%d)", st.Messages)
	}
}

// groupedTransports builds one TCPTransport per process-equivalent,
// each hosting a group of shards behind a single listener
// (TCPOptions.Shards) — the 4-shards-over-2-processes deployment,
// where one process is one failure domain spanning several shards.
func groupedTransports(t *testing.T, groups [][]int) []*cluster.TCPTransport {
	t.Helper()
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	lns := make([]net.Listener, len(groups))
	addrs := make([]string, total)
	for gi, g := range groups {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[gi] = ln
		for _, s := range g {
			addrs[s] = ln.Addr().String()
		}
	}
	trs := make([]*cluster.TCPTransport, len(groups))
	for gi, g := range groups {
		shards := make([]cluster.NodeID, len(g))
		for i, s := range g {
			shards[i] = cluster.NodeID(s)
		}
		tr, err := cluster.NewTCPTransport(cluster.TCPOptions{
			Self: shards[0], Shards: shards, Addrs: addrs, Listener: lns[gi],
		})
		if err != nil {
			t.Fatalf("transport group %d: %v", gi, err)
		}
		trs[gi] = tr
	}
	return trs
}

// TestMultiShardHostingParity runs every parity workload as 4 shards
// over 2 process-equivalents (2 hosted shards each, TCPOptions.Shards)
// and demands outputs and ControlHash bit-identical to both the
// 4-over-4 single-shard-per-process deployment and the in-process
// baseline: shard placement must be invisible to the analysis.
func TestMultiShardHostingParity(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	for _, wl := range parityWorkloads() {
		t.Run(wl.name, func(t *testing.T) {
			var base vecCell
			brt := runProgram(t, Config{Shards: 4, SafetyChecks: true}, wl.register, wl.build(&base))
			wantOut, wantHash := base.get(), brt.ControlHash()
			if wantHash == ([2]uint64{}) {
				t.Fatal("zero baseline control hash")
			}

			for i, r := range runOverTCP(t, wl, singletons(4)) {
				checkParity(t, fmt.Sprintf("4-over-4 proc %d", i), r.out, wantOut, r.hash, wantHash)
			}
			groups := [][]int{{0, 1}, {2, 3}} // 4-over-2
			for i, r := range runOverTCP(t, wl, groups) {
				checkParity(t, fmt.Sprintf("4-over-2 proc %d (shards %v)", i, groups[i]), r.out, wantOut, r.hash, wantHash)
			}
		})
	}
}
