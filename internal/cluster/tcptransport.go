package cluster

// TCPTransport: the multi-process backend. Each OS process hosts one
// (or more) of the cluster's nodes; frames cross real sockets as
// length-prefixed binary frames (see the codec in transport.go) with
// payloads serialized through the binary codec (codec.go) — so every
// payload type the runtime registers works unchanged while the hot
// types skip gob entirely.
//
// Connection management is per peer and lazy: the first frame queued
// for a peer dials it, a broken connection is re-dialed with capped
// exponential backoff and the unwritten batch is retried on the fresh
// connection, and peers that start later than their clients are
// absorbed by the same retry loop (the launcher can start processes in
// any order). Each established connection opens with a hello frame
// carrying the sender id, cluster size, and current epoch; mismatches
// close the connection rather than corrupting the stream.
//
// The writer coalesces: each peer link's single writer drains every
// frame queued at wakeup (up to tcpMaxCoalesce bytes) into one pooled
// buffer and issues one Write — so an idle link flushes a lone frame
// immediately (no added latency), while a busy link amortizes the
// syscall across the burst, preserving per-link FIFO either way.
// Frame buffers are pooled (sync.Pool) on both the send and receive
// paths, keeping the steady-state wire path allocation-free.
//
// The transport also carries the cluster's revive protocol: Revive is
// an acked, epoch-numbered barrier (every peer adopts the new epoch —
// wiping its dead-epoch queues — before acking), and SyncEpoch is the
// rendezvous a (re)spawned process runs before an attempt so it joins
// the cluster's current epoch instead of starting in a dead one.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPOptions configures a TCPTransport endpoint.
type TCPOptions struct {
	// Self is the node id this process hosts (the lowest one, when the
	// process hosts several).
	Self NodeID
	// Shards optionally lists every node id this process hosts — a
	// multi-shard process is one failure domain, which is what partial
	// restart wants: fewer, larger survivor groups. It must include
	// Self, every listed id must map to Self's listen address in Addrs,
	// and nil means the process hosts exactly Self.
	Shards []NodeID
	// Addrs lists every node's listen address, indexed by node id
	// (Addrs[Self] is this process's own; co-hosted ids repeat it).
	Addrs []string
	// Listener optionally supplies a pre-bound listener for Self's
	// address (tests bind 127.0.0.1:0 first and pass the result here
	// to avoid port races). When nil the transport listens on
	// Addrs[Self].
	Listener net.Listener
	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
	// RetryBase/RetryCap bound the reconnect backoff (defaults
	// 5ms / 500ms). Retries continue until the transport closes: a
	// peer that is still starting up looks like a slow network.
	RetryBase time.Duration
	RetryCap  time.Duration
	// ReviveTimeout bounds the revive barrier — how long Revive waits
	// for every peer to acknowledge the new epoch — and is the default
	// SyncEpoch rendezvous wait. It is the window a dead worker process
	// has to be respawned before survivors give up on the attempt and
	// retry from the checkpoint (default 15s).
	ReviveTimeout time.Duration
}

// TCPTransport implements Transport over TCP sockets, one process per
// group of hosted nodes.
type TCPTransport struct {
	self   NodeID
	locals []NodeID // hosted node ids, ascending (locals[0] == self)
	isLoc  []bool   // indexed by node id
	addrs  []string
	opts   TCPOptions
	ln     net.Listener
	peers  []*tcpPeer // indexed by node id; nil for hosted ids

	sink  Sink
	bound chan struct{} // closed by Bind; delivery waits on it
	stop  chan struct{}

	closed atomic.Bool
	wg     sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]struct{} // accepted inbound connections

	// epoch is the newest transport epoch this endpoint has seen —
	// locally minted by Revive or learned from the wire (revive frames,
	// hellos, rendezvous replies). Strictly-newer wire epochs surface to
	// the sink as Revived upcalls (the adoption half of the protocol).
	epoch atomic.Uint64

	// Control-plane rendezvous state: per-peer revive acks and the
	// current SyncEpoch round, guarded by ctlMu; ctlCond wakes the
	// barrier waiters in Revive and SyncEpoch.
	ctlMu       sync.Mutex
	ctlCond     *sync.Cond
	reviveAcked []uint64        // indexed by node id: highest epoch the peer acked
	syncNonce   uint64          // current rendezvous round (stale replies ignored)
	syncGot     map[NodeID]bool // peers heard from in the current round

	// Quiesce rendezvous state (partial restart): the descriptor this
	// process published for qEpoch, and the descriptors collected from
	// peers in the current qRound.
	qEpoch   uint64
	qPayload []byte
	qRound   uint64
	qGot     map[NodeID][]byte

	framesOut     atomic.Uint64
	bytesOut      atomic.Uint64
	framesIn      atomic.Uint64
	bytesIn       atomic.Uint64
	reconnects    atomic.Uint64
	corruptFrames atomic.Uint64

	// Seeded wire-corruption injection (Faults.Corrupt over TCP),
	// installed by the bound Cluster before any traffic flows: each
	// outbound Write rolls a counter-keyed PRNG and, when the verdict
	// fires, flips one bit of the buffer for exactly that write — the
	// receiver's CRCs turn the flip into a dropped frame or a torn
	// connection, and retransmissions re-roll.
	wcProb  float64
	wcSeed  uint64
	wcHook  func()
	wcCount atomic.Uint64
}

// tcpPeer is the outbound half of one (self, peer) link: an unbounded
// frame queue drained by a single writer goroutine, which owns the
// connection (dial, handshake, reconnect). One writer per link keeps
// the wire per-link FIFO, matching MemTransport's delivery order.
type tcpPeer struct {
	t    *TCPTransport
	id   NodeID
	addr string

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*wireBuf
	draining bool
	closed   bool

	// conn is the established connection, published by the writer after
	// each (re)dial+hello and shared so enqueue can take the inline
	// fast path. flushing is the wire-write token: exactly one holder
	// (the writer mid-batch, or one inline sender) may Write at a time,
	// which keeps the stream per-link FIFO. An inline sender only takes
	// the token when the queue is empty and the writer is idle, so no
	// earlier frame can be overtaken; frames enqueued while it holds
	// the token are flushed by the writer afterwards, in order.
	conn     net.Conn
	flushing bool

	done    chan struct{} // closed when the writer goroutine exits
	drainCh chan struct{} // closed by beginDrain; aborts dial backoff waits
}

// NewTCPTransport creates a TCP endpoint for node o.Self and starts
// listening; peers are dialed lazily on first send. The transport is
// not usable until Bind (NewWithTransport calls it).
func NewTCPTransport(o TCPOptions) (*TCPTransport, error) {
	if len(o.Addrs) == 0 {
		return nil, fmt.Errorf("cluster: tcp transport needs peer addresses")
	}
	if int(o.Self) < 0 || int(o.Self) >= len(o.Addrs) {
		return nil, fmt.Errorf("cluster: tcp self %d out of range [0,%d)", o.Self, len(o.Addrs))
	}
	locals := o.Shards
	if len(locals) == 0 {
		locals = []NodeID{o.Self}
	}
	isLoc := make([]bool, len(o.Addrs))
	hasSelf := false
	for _, id := range locals {
		if int(id) < 0 || int(id) >= len(o.Addrs) {
			return nil, fmt.Errorf("cluster: tcp hosted shard %d out of range [0,%d)", id, len(o.Addrs))
		}
		if isLoc[id] {
			return nil, fmt.Errorf("cluster: tcp hosted shard %d listed twice", id)
		}
		if o.Addrs[id] != o.Addrs[o.Self] {
			return nil, fmt.Errorf("cluster: tcp hosted shard %d maps to %q, want self address %q",
				id, o.Addrs[id], o.Addrs[o.Self])
		}
		isLoc[id] = true
		hasSelf = hasSelf || id == o.Self
	}
	if !hasSelf {
		return nil, fmt.Errorf("cluster: tcp Shards %v does not include Self %d", locals, o.Self)
	}
	sorted := make([]NodeID, 0, len(locals))
	for i, l := range isLoc {
		if l {
			sorted = append(sorted, NodeID(i))
		}
	}
	locals = sorted
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 5 * time.Millisecond
	}
	if o.RetryCap <= 0 {
		o.RetryCap = 500 * time.Millisecond
	}
	if o.ReviveTimeout <= 0 {
		o.ReviveTimeout = 15 * time.Second
	}
	ln := o.Listener
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", o.Addrs[o.Self]); err != nil {
			return nil, fmt.Errorf("cluster: tcp listen %s: %w", o.Addrs[o.Self], err)
		}
	}
	t := &TCPTransport{
		self:   locals[0],
		locals: locals,
		isLoc:  isLoc,
		addrs:  append([]string(nil), o.Addrs...),
		opts:   o,
		ln:     ln,
		bound:  make(chan struct{}),
		stop:   make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	t.ctlCond = sync.NewCond(&t.ctlMu)
	t.reviveAcked = make([]uint64, len(o.Addrs))
	t.peers = make([]*tcpPeer, len(o.Addrs))
	for i, addr := range o.Addrs {
		if isLoc[i] {
			continue
		}
		p := &tcpPeer{t: t, id: NodeID(i), addr: addr,
			done: make(chan struct{}), drainCh: make(chan struct{})}
		p.cond = sync.NewCond(&p.mu)
		t.peers[i] = p
		t.wg.Add(1)
		go p.run()
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Size implements Transport.
func (t *TCPTransport) Size() int { return len(t.addrs) }

// Local implements Transport: every node id this process hosts.
func (t *TCPTransport) Local() []NodeID { return append([]NodeID(nil), t.locals...) }

// isLocal reports whether this process hosts the node.
func (t *TCPTransport) isLocal(id NodeID) bool {
	return int(id) >= 0 && int(id) < len(t.isLoc) && t.isLoc[id]
}

// Addr returns the transport's actual listen address (useful when the
// configured address was ":0").
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// Bind implements Transport.
func (t *TCPTransport) Bind(s Sink) {
	t.sink = s
	close(t.bound)
}

// Send implements Transport. Self-sends short-circuit to the sink;
// remote frames are encoded and queued on the peer's link (never
// blocking the sender — queue growth is bounded by the workload, the
// same guarantee the in-process backend's goroutine handoff gives).
func (t *TCPTransport) Send(f *Frame) error {
	if t.closed.Load() {
		return ErrClosed
	}
	if int(f.To) < 0 || int(f.To) >= len(t.addrs) {
		return fmt.Errorf("cluster: send to node %d of %d", f.To, len(t.addrs))
	}
	if t.isLoc[f.To] {
		t.framesOut.Add(1)
		t.bytesOut.Add(wireSize(f))
		t.framesIn.Add(1)
		t.bytesIn.Add(wireSize(f))
		t.sink.Deliver(f)
		return nil
	}
	wb := getWireBuf()
	var err error
	if wb.b, err = appendDataFrame(wb.b, f); err != nil {
		putWireBuf(wb)
		return err
	}
	t.peers[f.To].enqueue(wb)
	return nil
}

// SetWireCorruption installs seeded outbound bit-flip injection
// (Faults.Corrupt over TCP). Each Write rolls a counter-keyed PRNG;
// a firing verdict flips one bit of the outgoing buffer for exactly
// that write and calls onCorrupt. Must be installed before traffic
// flows (the bound Cluster does it at construction).
func (t *TCPTransport) SetWireCorruption(prob float64, seed uint64, onCorrupt func()) {
	t.wcProb = prob
	t.wcSeed = seed
	t.wcHook = onCorrupt
}

// corruptForWrite rolls the corruption verdict for one outbound buffer
// and, when it fires, flips a single seeded bit in place, returning
// the bit index so the caller can restore it after the Write — the
// buffer may be retried on a fresh connection and every transmission
// must re-roll, or a corrupt header would tear down every redial
// forever.
func (t *TCPTransport) corruptForWrite(to NodeID, b []byte) (int, bool) {
	if t.wcProb <= 0 || len(b) == 0 {
		return 0, false
	}
	x := splitmix64(t.wcSeed ^ uint64(t.self)<<40 ^ uint64(to)<<24 ^ t.wcCount.Add(1))
	if float64(x>>11)/(1<<53) >= t.wcProb {
		return 0, false
	}
	bit := int(splitmix64(x) % uint64(len(b)*8))
	b[bit/8] ^= 1 << (bit % 8)
	if t.wcHook != nil {
		t.wcHook()
	}
	return bit, true
}

// unflip restores a bit flipped by corruptForWrite.
func unflip(b []byte, bit int) { b[bit/8] ^= 1 << (bit % 8) }

// Interrupt implements Transport: broadcast an interrupt control frame
// to every peer.
func (t *TCPTransport) Interrupt(reason string) {
	t.broadcast(&Frame{Kind: frameInterrupt, From: t.self}, []byte(reason))
}

// tcpCtlRetry paces control-plane rebroadcasts: a revive or rendezvous
// frame can die with the connection that carried it, so the barrier
// waiters re-send to unresponsive peers at this cadence.
const tcpCtlRetry = 250 * time.Millisecond

// Revive implements Transport: broadcast the new epoch to every peer
// and block until each has acknowledged it. A peer's readLoop adopts
// the epoch (wiping its dead-epoch queues via the Revived upcall)
// *before* returning the ack, so when this barrier releases, no peer
// can destroy post-revive traffic with a late wipe. Frames are
// re-broadcast every tcpCtlRetry — a peer mid-respawn is absorbed by
// the retry loop once its listener is back — and the whole wait is
// bounded by ReviveTimeout.
func (t *TCPTransport) Revive(epoch uint64) error {
	t.noteEpoch(epoch)
	if t.closed.Load() {
		return ErrClosed
	}
	t.broadcast(&Frame{Kind: frameRevive, Epoch: epoch, From: t.self}, nil)
	deadline := time.Now().Add(t.opts.ReviveTimeout)
	retry := time.Now().Add(tcpCtlRetry)
	t.ctlMu.Lock()
	defer t.ctlMu.Unlock()
	for {
		var pending []NodeID
		for i, acked := range t.reviveAcked {
			if !t.isLoc[i] && acked < epoch {
				pending = append(pending, NodeID(i))
			}
		}
		if len(pending) == 0 {
			return nil
		}
		if t.closed.Load() {
			return ErrClosed
		}
		now := time.Now()
		if !now.Before(deadline) {
			return fmt.Errorf("%w: epoch %d unacknowledged by nodes %v after %v",
				ErrReviveTimeout, epoch, pending, t.opts.ReviveTimeout)
		}
		if !now.Before(retry) {
			retry = now.Add(tcpCtlRetry)
			t.ctlMu.Unlock()
			for _, id := range pending {
				t.sendControl(id, &Frame{Kind: frameRevive, Epoch: epoch})
			}
			t.ctlMu.Lock()
			continue
		}
		wait := retry.Sub(now)
		if d := deadline.Sub(now); d < wait {
			wait = d
		}
		t.ctlWaitLocked(wait)
	}
}

// SyncEpoch implements Transport: the epoch rendezvous. Every peer is
// queried for the newest epoch (adopting ours if theirs is older, via
// the same wire-adoption path revive frames take); replies adopt into
// our endpoint. The call returns once all peers answered or the
// timeout passed — so a respawned process cannot start an attempt in a
// dead epoch, and its peers' rendezvous stalls until it is back up:
// exactly the attempt-boundary alignment a rebirth needs.
func (t *TCPTransport) SyncEpoch(timeout time.Duration) {
	if timeout <= 0 {
		timeout = t.opts.ReviveTimeout
	}
	if t.closed.Load() || len(t.addrs) == len(t.locals) {
		return
	}
	t.ctlMu.Lock()
	t.syncNonce++
	nonce := t.syncNonce
	t.syncGot = make(map[NodeID]bool)
	t.ctlMu.Unlock()
	req := func(to NodeID) {
		t.sendControl(to, &Frame{Kind: frameEpochReq, Epoch: t.epoch.Load(), Seq: nonce})
	}
	for _, p := range t.peers {
		if p != nil {
			req(p.id)
		}
	}
	deadline := time.Now().Add(timeout)
	retry := time.Now().Add(tcpCtlRetry)
	t.ctlMu.Lock()
	defer t.ctlMu.Unlock()
	for {
		if nonce != t.syncNonce { // a newer rendezvous superseded this one
			return
		}
		if len(t.syncGot) >= len(t.addrs)-len(t.locals) || t.closed.Load() {
			return
		}
		now := time.Now()
		if !now.Before(deadline) {
			return
		}
		if !now.Before(retry) {
			retry = now.Add(tcpCtlRetry)
			var missing []NodeID
			for _, p := range t.peers {
				if p != nil && !t.syncGot[p.id] {
					missing = append(missing, p.id)
				}
			}
			t.ctlMu.Unlock()
			for _, id := range missing {
				req(id)
			}
			t.ctlMu.Lock()
			continue
		}
		wait := retry.Sub(now)
		if d := deadline.Sub(now); d < wait {
			wait = d
		}
		t.ctlWaitLocked(wait)
	}
}

// Quiesce implements Transport: the park rendezvous of partial restart.
// The descriptor is published first — under ctlMu, so a concurrent
// frameQuiesceReq from a faster peer sees it — then every remote node is
// queried for its own. Replies are collected per node id (a multi-shard
// peer answers once per hosted id, all carrying its process descriptor),
// re-querying unresponsive nodes every tcpCtlRetry until the deadline.
// An incomplete map is returned as-is: the caller treats missing peers
// as "no agreement" and escalates to a full restart.
func (t *TCPTransport) Quiesce(epoch uint64, payload []byte, timeout time.Duration) map[NodeID][]byte {
	if timeout <= 0 {
		timeout = t.opts.ReviveTimeout
	}
	t.ctlMu.Lock()
	t.qEpoch = epoch
	t.qPayload = append([]byte(nil), payload...)
	t.qRound = epoch
	t.qGot = make(map[NodeID][]byte)
	t.ctlMu.Unlock()
	if t.closed.Load() || len(t.addrs) == len(t.locals) {
		return nil
	}
	req := func(to NodeID) {
		t.sendControl(to, &Frame{Kind: frameQuiesceReq, Epoch: epoch})
	}
	for _, p := range t.peers {
		if p != nil {
			req(p.id)
		}
	}
	deadline := time.Now().Add(timeout)
	retry := time.Now().Add(tcpCtlRetry)
	t.ctlMu.Lock()
	defer t.ctlMu.Unlock()
	for {
		if epoch != t.qRound { // a newer rendezvous superseded this one
			break
		}
		if t.epoch.Load() != epoch { // a newer revive moved the cluster on
			break
		}
		if len(t.qGot) >= len(t.addrs)-len(t.locals) || t.closed.Load() {
			break
		}
		now := time.Now()
		if !now.Before(deadline) {
			break
		}
		if !now.Before(retry) {
			retry = now.Add(tcpCtlRetry)
			var missing []NodeID
			for _, p := range t.peers {
				if p != nil && t.qGot[p.id] == nil {
					missing = append(missing, p.id)
				}
			}
			t.ctlMu.Unlock()
			for _, id := range missing {
				req(id)
			}
			t.ctlMu.Lock()
			continue
		}
		wait := retry.Sub(now)
		if d := deadline.Sub(now); d < wait {
			wait = d
		}
		t.ctlWaitLocked(wait)
	}
	out := make(map[NodeID][]byte, len(t.qGot))
	for id, desc := range t.qGot {
		out[id] = desc
	}
	return out
}

// ctlWaitLocked waits on ctlCond (ctlMu held) for at most d.
func (t *TCPTransport) ctlWaitLocked(d time.Duration) {
	timer := time.AfterFunc(d, func() {
		t.ctlMu.Lock()
		t.ctlCond.Broadcast()
		t.ctlMu.Unlock()
	})
	t.ctlCond.Wait()
	timer.Stop()
}

// noteEpoch records a locally-minted epoch (no sink upcall — the local
// Cluster already performed its own reset).
func (t *TCPTransport) noteEpoch(epoch uint64) {
	for {
		cur := t.epoch.Load()
		if epoch <= cur || t.epoch.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// adoptEpoch records an epoch learned from the wire; a strictly-newer
// epoch is surfaced to the sink as a Revived upcall so the endpoint
// layer performs the revive reset (clear interrupt, wipe dead-epoch
// queues). Reports false when the transport stopped before the sink
// was bound.
func (t *TCPTransport) adoptEpoch(epoch uint64) bool {
	for {
		cur := t.epoch.Load()
		if epoch <= cur {
			return true
		}
		if t.epoch.CompareAndSwap(cur, epoch) {
			return t.deliver(&Frame{Kind: frameRevive, Epoch: epoch})
		}
	}
}

// Epoch returns the newest transport epoch this endpoint has seen.
func (t *TCPTransport) Epoch() uint64 { return t.epoch.Load() }

// sendControl queues one control frame for a single peer (acks,
// rendezvous queries and replies; broadcast handles the fan-out cases).
func (t *TCPTransport) sendControl(to NodeID, f *Frame) {
	t.sendControlFrom(t.self, to, f, nil)
}

// sendControlFrom is sendControl with an explicit sender id and payload.
// Replies to per-node control queries (revive acks, epoch acks, quiesce
// descriptors) must carry the *addressed* node as From, not the
// process's primary id: the querier's barrier accounting is per node,
// and a multi-shard process answers for each id it hosts.
func (t *TCPTransport) sendControlFrom(from, to NodeID, f *Frame, payload []byte) {
	if t.closed.Load() || int(to) < 0 || int(to) >= len(t.peers) {
		return
	}
	p := t.peers[to]
	if p == nil {
		return
	}
	f.From = from
	f.To = to
	wb := getWireBuf()
	wb.b = appendFrame(wb.b, f, payload)
	p.enqueue(wb)
}

// noteReviveAck records a peer's barrier ack and wakes Revive waiters.
func (t *TCPTransport) noteReviveAck(from NodeID, epoch uint64) {
	if int(from) < 0 || int(from) >= len(t.reviveAcked) {
		return
	}
	t.ctlMu.Lock()
	if epoch > t.reviveAcked[from] {
		t.reviveAcked[from] = epoch
	}
	t.ctlCond.Broadcast()
	t.ctlMu.Unlock()
}

// noteEpochAck records a peer's rendezvous reply for the current round.
func (t *TCPTransport) noteEpochAck(from NodeID, nonce uint64) {
	t.ctlMu.Lock()
	if nonce == t.syncNonce && t.syncGot != nil {
		t.syncGot[from] = true
	}
	t.ctlCond.Broadcast()
	t.ctlMu.Unlock()
}

func (t *TCPTransport) broadcast(f *Frame, payload []byte) {
	if t.closed.Load() {
		return
	}
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		g := *f
		g.To = p.id
		wb := getWireBuf()
		wb.b = appendFrame(wb.b, &g, payload)
		p.enqueue(wb)
	}
}

// Stats implements Transport.
func (t *TCPTransport) Stats() WireStats {
	return WireStats{
		FramesOut:     t.framesOut.Load(),
		BytesOut:      t.bytesOut.Load(),
		FramesIn:      t.framesIn.Load(),
		BytesIn:       t.bytesIn.Load(),
		Reconnects:    t.reconnects.Load(),
		CorruptFrames: t.corruptFrames.Load(),
	}
}

// tcpDrainTimeout bounds how long Close waits for the writer goroutines
// to flush their outbound queues before forcing teardown.
const tcpDrainTimeout = 2 * time.Second

// Close implements Transport: flush outbound queues, stop accepting,
// close every connection, and join the backend goroutines. The drain
// matters: a shard can complete the final shutdown barrier and Close
// while frames its *peers* still need sit unwritten in a writer queue
// (the in-process backend delivers synchronously inside Send, so it
// never had this window). Unreachable peers cap the drain at
// tcpDrainTimeout rather than wedging Close.
func (t *TCPTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	t.ctlMu.Lock()
	t.ctlCond.Broadcast() // release Revive/SyncEpoch barrier waiters
	t.ctlMu.Unlock()
	for _, p := range t.peers {
		if p != nil {
			p.beginDrain()
		}
	}
	deadline := time.After(tcpDrainTimeout)
drain:
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		select {
		case <-p.done:
		case <-deadline:
			break drain
		}
	}
	close(t.stop)
	t.ln.Close()
	for _, p := range t.peers {
		if p != nil {
			p.close()
		}
	}
	t.connMu.Lock()
	for conn := range t.conns {
		conn.Close()
	}
	t.connMu.Unlock()
	t.wg.Wait()
	return nil
}

// deliver routes one decoded inbound frame, waiting for Bind if the
// frame raced transport construction.
func (t *TCPTransport) deliver(f *Frame) bool {
	select {
	case <-t.bound:
	case <-t.stop:
		return false
	}
	switch f.Kind {
	case frameData:
		t.sink.Deliver(f)
	case frameInterrupt:
		t.sink.Interrupted(string(f.Wire))
	case frameRevive:
		t.sink.Revived(f.Epoch)
	case frameHello:
		// Validated in readLoop; nothing to deliver.
	}
	return true
}

// acceptLoop admits inbound connections until the listener closes.
func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.connMu.Lock()
		if t.closed.Load() {
			t.connMu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.connMu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readerPool recycles the 64KiB buffered readers across connections:
// short-lived endpoints (tests, benchmarks, reconnect churn) would
// otherwise allocate a fresh buffer per accepted connection, which
// dominates the wire path's GC pressure.
var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 64<<10) },
}

// readLoop decodes frames off one inbound connection until it breaks
// or the stream is invalid.
func (t *TCPTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.connMu.Lock()
		delete(t.conns, conn)
		t.connMu.Unlock()
	}()
	// Buffered reads pull whole coalesced batches out of the socket in
	// one syscall; the frame buffer is reused across frames, which is
	// safe because delivery is synchronous and every decoder copies what
	// it keeps (frame payload decode, descriptor copies) before return.
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(conn)
	defer func() {
		br.Reset(nil) // drop the conn reference before pooling
		readerPool.Put(br)
	}()
	sb := getWireBuf()
	defer putWireBuf(sb)
	var hdr [framePrefixLen + frameHeaderLen + frameCRCLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		l := int(binary.LittleEndian.Uint32(hdr[:]))
		if l < frameHeaderLen+2*frameCRCLen || l > frameHeaderLen+2*frameCRCLen+maxFramePayload {
			t.corruptFrames.Add(1)
			return // corrupt stream: drop the connection, sender re-dials
		}
		// Verify the header CRC (which covers the length prefix) BEFORE
		// committing to the body read. A bit-flipped length would
		// otherwise start a multi-megabyte ReadFull that the sender never
		// finishes feeding — and every retransmission arriving on this
		// connection would be swallowed into the bogus body, wedging the
		// link forever instead of tearing it down for a clean re-dial.
		want := binary.LittleEndian.Uint32(hdr[framePrefixLen+frameHeaderLen:])
		if got := crc32.Checksum(hdr[:framePrefixLen+frameHeaderLen], castagnoli); got != want {
			t.corruptFrames.Add(1)
			return // length untrustworthy: desynced stream
		}
		if cap(sb.b) < framePrefixLen+l {
			sb.b = make([]byte, framePrefixLen+l)
		}
		buf := sb.b[:framePrefixLen+l]
		copy(buf, hdr[:])
		if _, err := io.ReadFull(br, buf[len(hdr):]); err != nil {
			return
		}
		f, _, err := decodeFrame(buf)
		if err != nil {
			t.corruptFrames.Add(1)
			if errors.Is(err, errCorruptPayload) {
				// The header CRC vouched for the frame boundary: this
				// frame alone is lost — exactly like line loss, which the
				// reliable sublayer's retransmit recovers — and the
				// stream stays in sync.
				t.framesIn.Add(1)
				t.bytesIn.Add(uint64(len(buf)))
				continue
			}
			// Header corruption (or a foreign protocol version): the
			// length prefix itself is untrustworthy, so the stream is
			// desynced. Tear the connection down; the sender re-dials
			// and upper layers retransmit what the socket buffered.
			return
		}
		t.framesIn.Add(1)
		t.bytesIn.Add(uint64(len(buf)))
		switch f.Kind {
		case frameHello:
			if !t.isLocal(f.To) || int(f.From) < 0 || int(f.From) >= len(t.addrs) ||
				len(f.Wire) != 16 || binary.LittleEndian.Uint64(f.Wire) != uint64(len(t.addrs)) {
				return // wrong cluster or wrong endpoint: refuse the stream
			}
			// The hello carries the dialer's epoch: a survivor redialing
			// a reborn process seeds it with the current epoch even
			// before any revive frame arrives.
			if !t.adoptEpoch(binary.LittleEndian.Uint64(f.Wire[8:])) {
				return
			}
		case frameRevive:
			// Adopt first, ack second — the ordering the barrier rests
			// on: when the ack releases the remote Revive, this
			// endpoint's dead-epoch queues are already wiped, so
			// post-barrier traffic cannot be destroyed by a late wipe.
			if !t.adoptEpoch(f.Epoch) {
				return
			}
			t.sendControlFrom(f.To, f.From, &Frame{Kind: frameReviveAck, Epoch: f.Epoch}, nil)
		case frameReviveAck:
			t.noteReviveAck(f.From, f.Epoch)
		case frameEpochReq:
			if !t.adoptEpoch(f.Epoch) {
				return
			}
			t.sendControlFrom(f.To, f.From, &Frame{Kind: frameEpochAck, Epoch: t.epoch.Load(), Seq: f.Seq}, nil)
		case frameEpochAck:
			if !t.adoptEpoch(f.Epoch) {
				return
			}
			t.noteEpochAck(f.From, f.Seq)
		case frameQuiesceReq:
			if !t.adoptEpoch(f.Epoch) {
				return
			}
			t.ctlMu.Lock()
			var desc []byte
			if t.qPayload != nil && t.qEpoch == f.Epoch {
				desc = t.qPayload
			}
			t.ctlMu.Unlock()
			// No descriptor published for that epoch yet: stay silent; the
			// querier's retry loop asks again once this process reaches its
			// own Quiesce call.
			if desc != nil {
				t.sendControlFrom(f.To, f.From, &Frame{Kind: frameQuiesceAck, Epoch: f.Epoch}, desc)
			}
		case frameQuiesceAck:
			t.ctlMu.Lock()
			if f.Epoch == t.qRound && t.qGot != nil {
				if _, dup := t.qGot[f.From]; !dup {
					t.qGot[f.From] = append([]byte(nil), f.Wire...)
				}
			}
			t.ctlCond.Broadcast()
			t.ctlMu.Unlock()
		default:
			if !t.deliver(&f) {
				return
			}
		}
	}
}

// enqueue sends one encoded frame on the peer link. When the link is
// idle — connection up, queue empty, writer between batches — the
// frame is written inline on the caller's goroutine, skipping the
// queue handoff and writer wakeup entirely; that saves a futex wake
// and a scheduler hop per frame, which dominates the wire cost of
// latency-bound request/response traffic. Otherwise the frame joins
// the queue for the writer to coalesce. Either way the buffer is
// recycled after the flush.
func (p *tcpPeer) enqueue(wb *wireBuf) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		putWireBuf(wb)
		return
	}
	if conn := p.conn; conn != nil && !p.flushing && len(p.queue) == 0 && !p.draining {
		p.flushing = true
		p.mu.Unlock()
		bit, flipped := p.t.corruptForWrite(p.id, wb.b)
		_, err := conn.Write(wb.b)
		if flipped {
			unflip(wb.b, bit) // a retried frame must re-roll its verdict
		}
		p.mu.Lock()
		p.flushing = false
		if err == nil {
			p.t.framesOut.Add(1)
			p.t.bytesOut.Add(uint64(len(wb.b)))
			// Frames queued while we held the token wait on the writer;
			// wake it now that the wire is free again.
			if len(p.queue) > 0 || p.draining || p.closed {
				p.cond.Broadcast()
			}
			p.mu.Unlock()
			putWireBuf(wb)
			return
		}
		// Write failed: retire the connection and hand the frame to the
		// writer, which owns redial. Anything queued during our write is
		// logically later, so this frame goes to the front.
		if p.conn == conn {
			p.conn = nil
		}
		conn.Close()
		if p.closed {
			p.mu.Unlock()
			putWireBuf(wb)
			return
		}
		p.queue = append([]*wireBuf{wb}, p.queue...)
		p.cond.Broadcast()
		p.mu.Unlock()
		return
	}
	p.queue = append(p.queue, wb)
	p.cond.Signal()
	p.mu.Unlock()
}

// tcpMaxCoalesce caps how many queued bytes one flush coalesces; a
// deeper queue is drained across several writes.
const tcpMaxCoalesce = 256 << 10

// nextBatch blocks for outbound frames and pops every frame queued at
// wakeup, up to the coalesce cap (always at least one). ok is false
// when the peer link is closing (immediately on close, once the queue
// empties during a drain). Popping the whole burst is what makes the
// writer batch: an idle link gets a single frame and flushes it with no
// added latency, a busy link hands the writer everything that queued
// behind the previous flush. On ok the writer holds the wire-write
// token (p.flushing) and must release it with endFlush after the batch
// lands; an inline write in flight is waited out first, so the popped
// batch can never overtake it on the wire.
func (p *tcpPeer) nextBatch() (batch []*wireBuf, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.closed && (p.flushing || (len(p.queue) == 0 && !p.draining)) {
		p.cond.Wait()
	}
	if p.closed || len(p.queue) == 0 {
		return nil, false
	}
	n, bytes := 0, 0
	for n < len(p.queue) {
		bytes += len(p.queue[n].b)
		n++
		if bytes >= tcpMaxCoalesce {
			break
		}
	}
	batch = p.queue[:n:n]
	p.queue = p.queue[n:]
	if len(p.queue) == 0 {
		p.queue = nil // release the drained backing array
	}
	p.flushing = true
	return batch, true
}

// endFlush releases the wire-write token after the writer's batch is
// on the wire (or abandoned at shutdown). No wakeup is needed: the
// only goroutine that ever waits on the token is the writer itself.
func (p *tcpPeer) endFlush() {
	p.mu.Lock()
	p.flushing = false
	p.mu.Unlock()
}

// beginDrain asks the writer to flush the queue and exit; p.done closes
// when it has. Closing drainCh kicks a writer parked in dial backoff —
// a down peer must not hold the drain hostage.
func (p *tcpPeer) beginDrain() {
	p.mu.Lock()
	if !p.draining {
		p.draining = true
		close(p.drainCh)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *tcpPeer) close() {
	p.mu.Lock()
	p.closed = true
	p.queue = nil
	p.cond.Broadcast()
	p.mu.Unlock()
}

// run is the peer link's writer goroutine: it drains the queue onto a
// connection it dials (and re-dials) itself, coalescing each wakeup's
// batch into a single Write. The established connection is published
// on p.conn so enqueue's inline fast path can use it between batches.
// A batch whose write fails is retried whole on the next connection —
// the same at-least-once semantics the single-frame retry had (the
// receiver's length-prefixed reader discards a truncated trailing
// frame with the broken connection, and duplicated prefixes are
// absorbed by the layers above) — so transient peer restarts lose at
// most what was already buffered in the dead socket.
func (p *tcpPeer) run() {
	t := p.t
	defer t.wg.Done()
	defer close(p.done)
	defer func() {
		p.mu.Lock()
		conn := p.conn
		p.conn = nil
		p.mu.Unlock()
		if conn != nil {
			conn.Close()
		}
	}()
	established := false
	// Eager dial: establish the link (and its hello) at construction,
	// overlapping connection setup with the rest of process startup
	// instead of paying it on the first frame's critical path. A peer
	// that is not up yet is retried with the usual capped backoff; the
	// dial aborts cleanly on close or drain.
	if conn := p.dial(); conn != nil {
		established = true
		p.mu.Lock()
		p.conn = conn
		p.mu.Unlock()
	}
	flush := getWireBuf()
	defer putWireBuf(flush)
	for {
		batch, ok := p.nextBatch() // holds the wire-write token on ok
		if !ok {
			return
		}
		flush.b = flush.b[:0]
		for _, wb := range batch {
			flush.b = append(flush.b, wb.b...)
			putWireBuf(wb)
		}
		for {
			p.mu.Lock()
			conn := p.conn
			p.mu.Unlock()
			if conn == nil {
				if conn = p.dial(); conn == nil {
					p.endFlush()
					return // transport closed while dialing
				}
				if established {
					t.reconnects.Add(1)
				}
				established = true
				p.mu.Lock()
				p.conn = conn
				p.mu.Unlock()
			}
			bit, flipped := t.corruptForWrite(p.id, flush.b)
			_, err := conn.Write(flush.b)
			if flipped {
				unflip(flush.b, bit) // a retried batch must re-roll its verdict
			}
			if err != nil {
				conn.Close()
				p.mu.Lock()
				if p.conn == conn {
					p.conn = nil
				}
				p.mu.Unlock()
				continue
			}
			t.framesOut.Add(uint64(len(batch)))
			t.bytesOut.Add(uint64(len(flush.b)))
			p.endFlush()
			break
		}
	}
}

// dial connects to the peer with capped-backoff retries, sends the
// hello frame, and returns the connection (nil when the transport
// closed first).
func (p *tcpPeer) dial() net.Conn {
	t := p.t
	backoff := t.opts.RetryBase
	for {
		select {
		case <-t.stop:
			return nil
		default:
		}
		conn, err := net.DialTimeout("tcp", p.addr, t.opts.DialTimeout)
		if err == nil {
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			// The hello is rebuilt per attempt: a redial after a revive
			// must carry the current epoch, not the one from process
			// start, so a reborn listener is seeded correctly.
			var hello [16]byte
			binary.LittleEndian.PutUint64(hello[:8], uint64(len(t.addrs)))
			binary.LittleEndian.PutUint64(hello[8:], t.epoch.Load())
			buf := appendFrame(nil, &Frame{Kind: frameHello, From: t.self, To: p.id}, hello[:])
			if _, err := conn.Write(buf); err != nil {
				conn.Close()
			} else {
				t.framesOut.Add(1)
				t.bytesOut.Add(uint64(len(buf)))
				return conn
			}
		}
		select {
		case <-t.stop:
			return nil
		case <-p.drainCh:
			// The transport is draining: this link already got its dial
			// attempt above. Sitting out the backoff against a down peer
			// would wedge Close for the whole drain deadline.
			return nil
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > t.opts.RetryCap {
			backoff = t.opts.RetryCap
		}
	}
}

// dropConns severs every live connection (test hook for exercising the
// reconnect path); outbound links re-dial on their next write.
func (t *TCPTransport) dropConns() {
	t.connMu.Lock()
	for conn := range t.conns {
		conn.Close()
	}
	t.connMu.Unlock()
	// Outbound connections are owned by writer goroutines; poison them
	// by closing from here is impossible without a race, so the hook
	// only severs inbound halves — which is exactly the side a peer's
	// writer notices on its next write.
}
