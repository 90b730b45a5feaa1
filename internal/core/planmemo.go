package core

import (
	"sync"

	"godcr/internal/geom"
)

// Plan memoization and proactive data pushes.
//
// Control replication makes the fine-stage analysis bit-identical on
// every shard: the write-index directory is fully replicated, and the
// projection and sharding functors are pure. When one process drives
// every shard (fineStage.pushOK), two consequences are exploited here:
//
//  1. The shards share one full-domain analysis per launch instead of
//     each resolving only its own points. The plans are equal on every
//     shard by control determinism, so computing them once per process
//     is a cache, not a semantic change — the total analysis work per
//     process stays what the sliced version did.
//
//  2. A producer shard can enumerate — symmetrically with each
//     consumer — exactly which version rectangles the consumer's
//     tasks will read from it, and push them proactively when the
//     version publishes. The consumer just receives. This removes the
//     request leg (one message and half a round trip) from every
//     cross-shard read on the hot path; the demand pull protocol
//     remains for multi-process transports, replay windows, trace
//     replay, centralized mode, and inline reads.
//
// Tag agreement needs no negotiation: both sides walk the same plans
// in the same canonical order (domain order, then requirement/field
// plan order, then source order, reductions after their piece) and
// advance a per-(producer, consumer) counter. The n-th push from
// shard S to shard C is the n-th remote piece C's walk attributes to
// S, so the counter values — and hence the attempt-salted wire tags —
// coincide without a single control message.

// pushReg is one registered proactive push: when key publishes, send
// rect's values to shard `to` under the pre-agreed tag.
type pushReg struct {
	key  verKey
	rect geom.Rect
	to   int
	tag  uint64
}

// planEntry is the memoized full-domain analysis of one launch.
type planEntry struct {
	// pts and owners list every point of the launch domain in
	// canonical (domain iteration) order with its executing shard.
	pts    []geom.Point
	owners []int
	// plans is parallel to pts; remote source pieces carry their
	// assigned push tags.
	plans [][]fieldPlan
	// pushes lists, per producer shard, the pushes that shard owes.
	pushes [][]pushReg
}

// planMemo is the per-attempt plan cache and push-tag allocator.
// Entries are computed in op order: any shard that reaches launch o
// has consumed (or computed) every earlier launch's entry first, so
// the first shard to arrive at o is the front-runner and the tag
// counter always advances in the global program order.
type planMemo struct {
	mu      sync.Mutex
	salt    uint64
	nShards int // every shard reads each entry once, then it is dropped
	entries map[uint64]*memoSlot
	seq     uint64
}

type memoSlot struct {
	entry *planEntry
	refs  int
}

func newPlanMemo(salt uint64, nShards int) *planMemo {
	return &planMemo{
		salt:    salt,
		nShards: nShards,
		entries: make(map[uint64]*memoSlot),
	}
}

// get returns the full-domain plan entry for launch o, computing it on
// first arrival (under the memo lock — later shards block briefly and
// then read the cached entry). Entries self-delete once every shard
// has read them.
func (m *planMemo) get(fs *fineStage, o *op, ls *launchState) *planEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := m.entries[o.seq]; s != nil {
		s.refs--
		if s.refs == 0 {
			delete(m.entries, o.seq)
		}
		return s.entry
	}
	e := m.compute(fs, o, ls)
	if m.nShards > 1 {
		m.entries[o.seq] = &memoSlot{entry: e, refs: m.nShards - 1}
	}
	return e
}

func (m *planMemo) compute(fs *fineStage, o *op, ls *launchState) *planEntry {
	e := &planEntry{pushes: make([][]pushReg, m.nShards)}
	if ls.single {
		e.pts = []geom.Point{ls.point}
		e.owners = []int{ls.owner}
	} else {
		ls.spec.Domain.Each(func(p geom.Point) bool {
			e.pts = append(e.pts, p)
			e.owners = append(e.owners, ls.spec.Sharding.Shard(ls.spec.Domain, p, fs.ctx.nShards))
			return true
		})
	}
	e.plans = make([][]fieldPlan, len(e.pts))
	for i, p := range e.pts {
		e.plans[i] = fs.planPoint(o, ls, p)
	}
	// The canonical walk: assign push tags and collect each producer's
	// duty list. Consumers later walk the same pieces in the same order
	// inside executor.assemble.
	for i := range e.pts {
		to := e.owners[i]
		for pi := range e.plans[i] {
			srcs := e.plans[i][pi].sources
			for si := range srcs {
				sp := &srcs[si]
				if !sp.fill && sp.owner != to && !sp.rect.Empty() {
					sp.pushTag = m.nextTag()
					e.pushes[sp.owner] = append(e.pushes[sp.owner],
						pushReg{key: sp.key, rect: sp.rect, to: to, tag: sp.pushTag})
				}
				for ri := range sp.reds {
					rd := &sp.reds[ri]
					if rd.owner != to && !rd.rect.Empty() {
						rd.pushTag = m.nextTag()
						e.pushes[rd.owner] = append(e.pushes[rd.owner],
							pushReg{key: rd.key, rect: rd.rect, to: to, tag: rd.pushTag})
					}
				}
			}
		}
	}
	return e
}

// nextTag allocates the next attempt-salted push tag. A single global
// counter suffices for agreement: every process walks the identical
// event sequence, so the k-th event draws the same tag everywhere, and
// receives are matched by (tag, sender) so no cross-pair collision is
// possible.
func (m *planMemo) nextTag() uint64 {
	m.seq++
	return pushTagBit | (m.salt&0xFF)<<48 | m.seq
}
