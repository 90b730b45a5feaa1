package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"godcr/internal/cluster"
	"godcr/internal/event"
	"godcr/internal/geom"
	"godcr/internal/instance"
	"godcr/internal/region"
)

// The versioned field store and pull protocol. Every write-privilege
// point task publishes the data it produced under a version key
// (operation seq, point, region root, field); consumers — located by
// evaluating the pure sharding functor anywhere — pull the exact
// rectangles they need at the exact version the fine-stage analysis
// resolved. Versions are retained until a fence-point garbage
// collection proves them unreachable, which is what makes cross-shard
// write-after-read safe without blocking: a writer creates a new
// version instead of mutating the one in flight.

// verKey names one point task's output for one field.
type verKey struct {
	Seq   uint64
	Point geom.Point
	Root  region.RegionID
	Field region.FieldID
}

type storedVersion struct {
	ready     event.UserEvent
	inst      *instance.Instance // valid once ready triggers
	published bool               // guarded by store.mu; makes publish idempotent
	pushes    []pushReg          // proactive pushes drained at publication (store.mu)
}

type store struct {
	mu       sync.Mutex
	versions map[verKey]*storedVersion
	// pushSend ships one registered push (set by newFetcher; called
	// outside the store lock with a published version).
	pushSend func(sv *storedVersion, pr pushReg)
}

func newStore() *store {
	return &store{versions: make(map[verKey]*storedVersion)}
}

// entry returns the version record for key, creating a placeholder if
// the producer's fine stage has not declared it yet (a consumer shard
// may run ahead of a producer shard).
func (s *store) entry(key verKey) *storedVersion {
	s.mu.Lock()
	defer s.mu.Unlock()
	sv := s.versions[key]
	if sv == nil {
		sv = &storedVersion{ready: event.NewUserEvent()}
		s.versions[key] = sv
	}
	return sv
}

// publish installs the produced instance and releases waiters. It is
// idempotent: re-publishing an already-published version keeps the
// first instance (re-executed ops during partial-restart replay — a
// re-run attach, or a survivor task whose scalar delivery was lost —
// produce bit-identical data, so dropping the duplicate is sound).
func (s *store) publish(key verKey, inst *instance.Instance) {
	s.mu.Lock()
	sv := s.versions[key]
	if sv == nil {
		sv = &storedVersion{ready: event.NewUserEvent()}
		s.versions[key] = sv
	}
	if sv.published {
		s.mu.Unlock()
		return
	}
	sv.published = true
	sv.inst = inst
	pushes := sv.pushes
	sv.pushes = nil
	s.mu.Unlock()
	sv.ready.Trigger()
	if s.pushSend != nil {
		for _, pr := range pushes {
			s.pushSend(sv, pr)
		}
	}
}

// addPush registers a proactive push of key's data, to be sent when
// the version publishes. If the version is already published it is
// returned with ready=true and nothing is registered: the caller sends
// immediately (publication only drains earlier registrations).
func (s *store) addPush(key verKey, pr pushReg) (sv *storedVersion, ready bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sv = s.versions[key]
	if sv == nil {
		sv = &storedVersion{ready: event.NewUserEvent()}
		s.versions[key] = sv
	}
	if sv.published {
		return sv, true
	}
	sv.pushes = append(sv.pushes, pr)
	return sv, false
}

// clearPushes drops push registrations left behind by a failed
// attempt (their tags are salted to that attempt, so draining them
// would only ship junk frames). Survivors call it when adopting a
// retained store.
func (s *store) clearPushes() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sv := range s.versions {
		sv.pushes = nil
	}
}

// has reports whether the version is published with data (the
// survivor-side replay-skip condition).
func (s *store) has(key verKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	sv := s.versions[key]
	return sv != nil && sv.published && sv.inst != nil
}

// retain drops every version whose seq is not in live. Callers must
// guarantee quiescence (no in-flight tasks), which execution fences
// provide.
func (s *store) retain(live map[uint64]bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	for k := range s.versions {
		if !live[k.Seq] {
			delete(s.versions, k)
			dropped++
		}
	}
	return dropped
}

// size returns the number of retained versions.
func (s *store) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.versions)
}

// --- Pull protocol -------------------------------------------------------

const (
	pullReqTag   = uint64(0xF0) << 56
	pullReplyTag = uint64(0xF1) << 56
	pushTagBit   = uint64(0xF2) << 56
	futureTagBit = uint64(0xFA) << 56
)

type pullReq struct {
	Key      verKey
	Rect     geom.Rect
	ReplyTag uint64
	From     int
}

type pullResp struct {
	Vals []float64
}

// inlineReplyMax caps (in float64s — 8KiB of values is a 64KiB frame)
// the pull replies the server sends from the delivery goroutine; see
// newFetcher.
const inlineReplyMax = 8 << 10

func init() {
	cluster.RegisterWireType(pullReq{})
	cluster.RegisterWireType(pullResp{})
	cluster.RegisterWireType(float64(0))
	cluster.RegisterWireType([]float64(nil))
	cluster.RegisterWireType(int64(0))
	cluster.RegisterWireType(0)
	cluster.RegisterWireType(false)
	cluster.RegisterWireType("")
}

// fetcher resolves version pulls, locally or over the wire.
type fetcher struct {
	ctx      *Context
	store    *store
	replySeq atomic.Uint64
}

func newFetcher(ctx *Context, st *store) *fetcher {
	f := &fetcher{ctx: ctx, store: st}
	// Serve incoming pulls: wait for the version, extract, reply. The
	// handler is registered inline: the producer has usually published
	// by the time a pull arrives, so the common case replies directly
	// on the delivery goroutine (no spawn, no scheduler hop). Only a
	// pull that outruns its producer falls back to a goroutine that
	// blocks on the version's ready event.
	serve := func(req pullReq, sv *storedVersion) {
		vals := sv.inst.Extract(req.Rect)
		if len(vals) > inlineReplyMax {
			// A huge reply leaves the delivery goroutine before hitting
			// the wire: an inline socket write of an unbounded frame
			// from a read loop could otherwise block against a peer
			// doing the same in the opposite direction.
			go func() {
				_ = ctx.node.Send(cluster.NodeID(req.From), req.ReplyTag, pullResp{Vals: vals})
			}()
			return
		}
		_ = ctx.node.Send(cluster.NodeID(req.From), req.ReplyTag, pullResp{Vals: vals})
	}
	st.pushSend = f.sendPush
	ctx.node.HandleInline(pullReqTag, func(m cluster.Message) {
		req, ok := m.Payload.(pullReq)
		if !ok {
			ctx.abort(fmt.Errorf("core: pull request carried %T", m.Payload))
			return
		}
		sv := st.entry(req.Key)
		if sv.ready.HasTriggered() {
			serve(req, sv)
			return
		}
		go func() {
			if !ctx.waitOrAbort(sv.ready.Event) {
				// Aborting: the requester's Recv has been interrupted,
				// so dropping the reply cannot wedge it.
				return
			}
			serve(req, sv)
		}()
	})
	return f
}

// fetch returns the values of rect at the given version, pulling from
// the owner node if remote.
func (f *fetcher) fetch(key verKey, owner int, rect geom.Rect) ([]float64, error) {
	if rect.Empty() {
		return nil, nil
	}
	if owner == f.ctx.shard {
		sv := f.store.entry(key)
		if !f.ctx.waitOrAbort(sv.ready.Event) {
			return nil, f.ctx.abortErr()
		}
		f.ctx.rt.stats.localRes.Add(1)
		if sv.inst == nil {
			return nil, fmt.Errorf("core: version %+v published without data", key)
		}
		return sv.inst.Extract(rect), nil
	}
	p, err := f.start(key, owner, rect)
	if err != nil {
		return nil, err
	}
	return f.wait(p)
}

// pendingPull is a remote pull in flight: start issued the request,
// wait blocks for the reply.
type pendingPull struct {
	tag   uint64
	owner int
}

// start issues a remote pull without blocking for the reply, so a
// caller with several remote sources can overlap the round trips
// (see executor.assemble). owner must be a remote shard and rect
// non-empty.
func (f *fetcher) start(key verKey, owner int, rect geom.Rect) (pendingPull, error) {
	f.ctx.rt.stats.remotePulls.Add(1)
	tag := f.ctx.pullTag(f.replySeq.Add(1))
	if err := f.ctx.node.Send(cluster.NodeID(owner), pullReqTag, pullReq{
		Key: key, Rect: rect, ReplyTag: tag, From: f.ctx.shard,
	}); err != nil {
		return pendingPull{}, err
	}
	return pendingPull{tag: tag, owner: owner}, nil
}

// sendPush ships one registered proactive push: the published
// version's rectangle goes straight to the consumer under the tag both
// sides derived from the replicated analysis (see planmemo.go). The
// push reuses the pullResp wire format, so the consumer's receive path
// is the same as a pull reply's — it just never sent a request.
func (f *fetcher) sendPush(sv *storedVersion, pr pushReg) {
	f.ctx.rt.stats.remotePushes.Add(1)
	_ = f.ctx.node.Send(cluster.NodeID(pr.to), pr.tag, pullResp{Vals: sv.inst.Extract(pr.rect)})
}

// tryWait returns a started pull's reply if it has already arrived,
// without blocking. The executor uses it to keep the pull_wire timer
// honest (and cheap): a reply that beat us here cost zero wait, so it
// should neither record a span nor pay for one.
func (f *fetcher) tryWait(p pendingPull) ([]float64, bool, error) {
	payload, ok := f.ctx.node.TryRecv(p.tag, cluster.NodeID(p.owner))
	if !ok {
		return nil, false, nil
	}
	resp, ok := payload.(pullResp)
	if !ok {
		return nil, true, fmt.Errorf("core: pull reply carried %T", payload)
	}
	return resp.Vals, true, nil
}

// wait blocks for a started pull's reply.
func (f *fetcher) wait(p pendingPull) ([]float64, error) {
	payload, err := f.ctx.node.Recv(p.tag, cluster.NodeID(p.owner))
	if err != nil {
		return nil, err
	}
	resp, ok := payload.(pullResp)
	if !ok {
		return nil, fmt.Errorf("core: pull reply carried %T", payload)
	}
	return resp.Vals, nil
}
