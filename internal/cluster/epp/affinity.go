package epp

import (
	"muxwise/internal/kvcache"
	"muxwise/internal/workload"
)

// DefaultIndexLimit bounds each endpoint's approximate view of cached
// radix pages, mirroring the EPP's bounded prefix-cache scorer rather
// than the replicas' real radix trees.
const DefaultIndexLimit = 1 << 18

// PrefixIndex approximates which leading pages an endpoint has cached,
// with FIFO eviction over a fixed-capacity ring. The ring never grows
// past the limit: sustained eviction on a 1M-request replay keeps the
// backing array bounded, where the old slice-reslicing FIFO
// (order = order[1:]) pinned every page ever appended.
type PrefixIndex struct {
	limit int
	pages map[kvcache.PageID]struct{}
	ring  []kvcache.PageID
	head  int // next eviction / overwrite slot once the ring is full
}

// NewPrefixIndex builds an index evicting FIFO past limit pages; a
// limit ≤ 0 selects DefaultIndexLimit.
func NewPrefixIndex(limit int) *PrefixIndex {
	if limit <= 0 {
		limit = DefaultIndexLimit
	}
	return &PrefixIndex{limit: limit, pages: map[kvcache.PageID]struct{}{}}
}

// Match counts how many leading pages of the sequence the index holds.
func (ix *PrefixIndex) Match(pages kvcache.Seq) int {
	n := 0
	it := pages.Iter()
	for pg, ok := it.Next(); ok; pg, ok = it.Next() {
		if _, ok := ix.pages[pg]; !ok {
			break
		}
		n++
	}
	return n
}

// Add records pages the endpoint will cache once the request finishes,
// evicting the oldest entries FIFO once the limit is reached.
func (ix *PrefixIndex) Add(pages kvcache.Seq) {
	it := pages.Iter()
	for pg, ok := it.Next(); ok; pg, ok = it.Next() {
		ix.add(pg)
	}
}

// add records one page.
func (ix *PrefixIndex) add(pg kvcache.PageID) {
	if _, ok := ix.pages[pg]; ok {
		return
	}
	if len(ix.ring) < ix.limit {
		ix.ring = append(ix.ring, pg)
	} else {
		delete(ix.pages, ix.ring[ix.head])
		ix.ring[ix.head] = pg
		ix.head++
		if ix.head == len(ix.ring) {
			ix.head = 0
		}
	}
	ix.pages[pg] = struct{}{}
}

// Len reports how many pages the index currently holds.
func (ix *PrefixIndex) Len() int { return len(ix.pages) }

// RingCap reports the eviction ring's backing capacity — bounded by the
// limit, pinned by tests.
func (ix *PrefixIndex) RingCap() int { return cap(ix.ring) }

// Affinity is the shared session-stickiness and prefix-index state the
// affine compositions (prefix-affinity, pd-split, adaptive-ttft) route
// over. It is pure state, not a stage: filters and scorers read it, and
// it implements PickObserver / DownObserver / MigrationObserver so the
// pipeline keeps it current. State is keyed by endpoint ID, never by
// candidate position.
type Affinity[E Endpoint] struct {
	sessions map[int]int // session -> endpoint ID
	index    map[int]*PrefixIndex
	limit    int
}

// NewAffinity builds empty affinity state with DefaultIndexLimit-sized
// prefix indexes.
func NewAffinity[E Endpoint]() *Affinity[E] {
	return &Affinity[E]{sessions: map[int]int{}, index: map[int]*PrefixIndex{}, limit: DefaultIndexLimit}
}

// Holder returns the endpoint ID pinned to the session, if any.
func (a *Affinity[E]) Holder(session int) (int, bool) {
	id, ok := a.sessions[session]
	return id, ok
}

// StickyIn returns the candidate currently owning the request's
// session; ok is false when the session is unknown or its holder is not
// in the candidate set (starting, draining, failed, or retired).
func (a *Affinity[E]) StickyIn(r *workload.Request, cands []E) (E, bool) {
	var zero E
	id, ok := a.sessions[r.Session]
	if !ok {
		return zero, false
	}
	for _, e := range cands {
		if e.EndpointID() == id {
			return e, true
		}
	}
	return zero, false
}

// Match counts how many leading pages of the sequence the endpoint's
// index advertises.
func (a *Affinity[E]) Match(id int, pages kvcache.Seq) int {
	ix := a.index[id]
	if ix == nil {
		return 0
	}
	return ix.Match(pages)
}

// Picked implements PickObserver: pin the session to the chosen
// endpoint and index the pages its radix cache will publish.
func (a *Affinity[E]) Picked(r *workload.Request, picked E) {
	id := picked.EndpointID()
	a.sessions[r.Session] = id
	ix := a.index[id]
	if ix == nil {
		ix = NewPrefixIndex(a.limit)
		a.index[id] = ix
	}
	ix.Add(r.AllPages)
}

// ReplicaDown implements DownObserver: forget everything pinned to a
// dead endpoint — sessions re-stick on their next turn (paying the KV
// re-prefill there), and the prefix index stops advertising pages that
// no longer exist anywhere.
func (a *Affinity[E]) ReplicaDown(id int) {
	for session, rep := range a.sessions {
		if rep == id {
			delete(a.sessions, session)
		}
	}
	delete(a.index, id)
}

// SessionMigrated implements MigrationObserver: re-home a session whose
// KV streamed to a new holder. The pin follows the KV (unless a turn
// already re-routed the session elsewhere mid-stream — then the newer
// pin wins), and the destination's index advertises the migrated pages
// either way, because they really are cached there now.
func (a *Affinity[E]) SessionMigrated(session, from, to int, pages []kvcache.PageID) {
	if cur, ok := a.sessions[session]; !ok || cur == from {
		a.sessions[session] = to
	}
	ix := a.index[to]
	if ix == nil {
		ix = NewPrefixIndex(a.limit)
		a.index[to] = ix
	}
	for _, pg := range pages {
		ix.add(pg)
	}
}
