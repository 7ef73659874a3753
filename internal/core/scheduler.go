package core

import (
	"context"
	"sync"
	"time"

	"github.com/edge-immersion/coic/internal/wire"
)

// This file is the per-connection request scheduler behind the pipelined
// TCP servers. The seed served each connection through a plain FIFO
// channel, which is exactly wrong for continuous immersive workloads: a
// best-effort prefetch burst queued ahead of an interactive frame makes
// the frame miss its motion-to-photon budget even though a worker could
// have served it in time. The schedQueue replaces the channel with
// deadline-aware priority dispatch:
//
//   - strict class ordering — every queued QoSInteractive request is
//     dispatched before any QoSBestEffort one;
//   - deficit-round-robin across tenants within a class — one tenant's
//     flood cannot starve another tenant of the same class; weights set
//     the drain ratio under contention (weight 4 drains four requests
//     per weight-1 request);
//   - earliest-deadline-first within a tenant's class queue, with
//     deadline-less requests after all deadlined ones in admission order;
//   - shed-before-work — a request whose wall-clock deadline passed
//     while it queued is answered CodeDeadlineExceeded without a worker
//     executing it (and without an upstream fetch), and admission prefers
//     evicting already-expired queued work over rejecting a live request
//     with CodeOverloaded.
//
// With a single tenant (every pre-tenant caller lands on one), the DRR
// ring has one member and the queue degenerates to exactly the old
// class-then-EDF order — the property tests pin that equivalence.

// schedJob is one admitted request waiting for (or holding) a worker.
type schedJob struct {
	seq    uint64
	msg    wire.Message
	frame  *[]byte // the pooled buffer msg.Body lives in (nil: a fresh body); see conn.takeFrame
	mode   Mode
	ctx    context.Context
	finish context.CancelFunc

	class    wire.QoS
	deadline time.Time // zero = none
	order    uint64    // admission order, the FIFO tiebreak
	tenant   string    // DRR key; the connection's authenticated tenant

	// admitted stamps when the reader pushed the job, feeding the
	// sched_wait stage histogram; trace is the client-minted trace ID
	// peeked off the wire for log correlation. Both are observability
	// payload — the scheduler itself never reads them.
	admitted time.Time
	trace    uint64
}

// expired reports whether the job's result would be stale if started now.
func (j *schedJob) expired(now time.Time) bool {
	return !j.deadline.IsZero() && now.After(j.deadline)
}

// before orders two jobs of the same class and tenant: earliest deadline
// first, deadline-less jobs after every deadlined one, admission order as
// the tiebreak.
func (j *schedJob) before(k *schedJob) bool {
	switch {
	case j.deadline.IsZero() && k.deadline.IsZero():
		return j.order < k.order
	case j.deadline.IsZero():
		return false
	case k.deadline.IsZero():
		return true
	case j.deadline.Equal(k.deadline):
		return j.order < k.order
	default:
		return j.deadline.Before(k.deadline)
	}
}

// jobHeap is one tenant's EDF queue within one class: a binary heap
// ordered by before. It sifts schedJob values in place, where
// container/heap would box each one into an interface on push and pop.
type jobHeap []schedJob

func (h jobHeap) peek() *schedJob { return &h[0] }

func (h *jobHeap) pushJob(j schedJob) {
	*h = append(*h, j)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s[i].before(&s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *jobHeap) popJob() schedJob {
	s := *h
	n := len(s) - 1
	j := s[0]
	s[0] = s[n]
	s[n] = schedJob{} // the backing array outlives the job: drop its references
	s = s[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && s[r].before(&s[m]) {
			m = r
		}
		if !s[m].before(&s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return j
}

// classQueue is one QoS class's queue: an EDF heap per tenant, drained
// deficit-round-robin across the tenants that have work queued. The ring
// holds active tenants in arrival order; cur is the tenant currently
// being served and credit its remaining deficit (in requests — the DRR
// quantum is the tenant's weight). Invariants between calls: every ring
// member's heap is non-empty, and credit > 0 whenever the ring is
// non-empty — so pop() always finds its job at ring[cur].
// A tenant that leaves the ring keeps its emptied heap in byTenant for
// when it returns; a connection's queue sees one tenant, so they are few.
type classQueue struct {
	byTenant map[string]*jobHeap
	ring     []string
	cur      int
	credit   int
	size     int
}

func (c *classQueue) push(j schedJob, weightOf func(string) int) {
	h := c.byTenant[j.tenant]
	if h == nil {
		if c.byTenant == nil {
			c.byTenant = make(map[string]*jobHeap)
		}
		h = new(jobHeap)
		c.byTenant[j.tenant] = h
	}
	if len(*h) == 0 {
		c.ring = append(c.ring, j.tenant)
		if len(c.ring) == 1 {
			c.cur = 0
			c.credit = weightOf(j.tenant)
		}
	}
	h.pushJob(j)
	c.size++
}

func (c *classQueue) pop(weightOf func(string) int) schedJob {
	h := c.byTenant[c.ring[c.cur]]
	j := h.popJob()
	c.size--
	if len(*h) == 0 {
		c.remove(c.cur, weightOf)
	} else {
		c.credit--
		if c.credit <= 0 {
			c.advance(weightOf)
		}
	}
	return j
}

// advance moves service to the next ring tenant and refills its deficit.
func (c *classQueue) advance(weightOf func(string) int) {
	c.cur++
	if c.cur >= len(c.ring) {
		c.cur = 0
	}
	c.credit = weightOf(c.ring[c.cur])
}

// remove drops ring[i] (its heap is empty) and keeps cur pointing at the
// tenant being served — or, when the served tenant itself left, at its
// successor with a fresh deficit.
func (c *classQueue) remove(i int, weightOf func(string) int) {
	c.ring = append(c.ring[:i], c.ring[i+1:]...)
	if len(c.ring) == 0 {
		c.cur, c.credit = 0, 0
		return
	}
	switch {
	case i < c.cur:
		c.cur--
	case i == c.cur:
		if c.cur >= len(c.ring) {
			c.cur = 0
		}
		c.credit = weightOf(c.ring[c.cur])
	}
}

// evictExpired sheds every queued job whose deadline already passed (EDF
// puts them at each tenant heap's head) and prunes emptied tenants.
func (c *classQueue) evictExpired(now time.Time, weightOf func(string) int, shed []schedJob) []schedJob {
	for i := 0; i < len(c.ring); {
		h := c.byTenant[c.ring[i]]
		for len(*h) > 0 && h.peek().expired(now) {
			shed = append(shed, h.popJob())
			c.size--
		}
		if len(*h) == 0 {
			c.remove(i, weightOf)
			continue
		}
		i++
	}
	return shed
}

// schedQueue is the bounded priority queue feeding one connection's
// worker pool. depth bounds queued (not yet popped) jobs, matching the
// old FIFO channel's buffer semantics.
type schedQueue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	classes  [wire.NumQoSClasses]classQueue
	weightOf func(string) int
	size     int
	depth    int
	closed   bool
	order    uint64
}

func newSchedQueue(depth int) *schedQueue {
	return newSchedQueueWeighted(depth, nil)
}

// newSchedQueueWeighted builds a queue whose DRR quanta come from
// weightOf (nil = every tenant weight 1). Weights are read under the
// queue mutex at tenant-rotation points only — the callback must be fast
// and must never call back into the queue.
func newSchedQueueWeighted(depth int, weightOf func(string) int) *schedQueue {
	if weightOf == nil {
		weightOf = func(string) int { return 1 }
	}
	q := &schedQueue{
		depth:    depth,
		weightOf: func(t string) int { return max(1, weightOf(t)) },
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// classIndex clamps unknown (future) classes into the scheduler's range
// so a newer client never crashes an older server; anything above the
// known ceiling schedules as the highest known class.
func classIndex(c wire.QoS) int {
	if int(c) >= wire.NumQoSClasses {
		return wire.NumQoSClasses - 1
	}
	return int(c)
}

// push admits j, stamping its admission order. When the queue is full it
// first sheds queued jobs whose deadlines have already passed — returned
// to the caller to answer with CodeDeadlineExceeded — and admits j into
// the freed room. ok=false means the queue is full of live work: the
// caller sheds j itself with CodeOverloaded.
func (q *schedQueue) push(j schedJob) (shed []schedJob, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, false
	}
	if q.size >= q.depth {
		now := time.Now()
		for i := range q.classes {
			before := q.classes[i].size
			shed = q.classes[i].evictExpired(now, q.weightOf, shed)
			q.size -= before - q.classes[i].size
		}
		if q.size >= q.depth {
			return shed, false
		}
	}
	q.order++
	j.order = q.order
	q.classes[classIndex(j.class)].push(j, q.weightOf)
	q.size++
	q.cond.Signal()
	return shed, true
}

// pop blocks for the highest-priority queued job: the highest non-empty
// class, the DRR ring's current tenant within it, EDF within that
// tenant. ok=false once the queue is closed and drained.
func (q *schedQueue) pop() (schedJob, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.size == 0 {
		return schedJob{}, false
	}
	for i := len(q.classes) - 1; i >= 0; i-- {
		if q.classes[i].size > 0 {
			q.size--
			return q.classes[i].pop(q.weightOf), true
		}
	}
	return schedJob{}, false // unreachable: size > 0 implies a non-empty class
}

// close stops admission and wakes every waiting worker; queued jobs are
// still drained by pop (graceful shutdown completes admitted work).
func (q *schedQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
