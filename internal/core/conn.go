package core

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/edge-immersion/coic/internal/scene"
	"github.com/edge-immersion/coic/internal/wire"
)

// conn serves one connection with the reader → priority scheduler →
// worker pool → ordered writer topology. MsgHello is handled inline on
// the reader (its mode switch must stay ordered with the requests around
// it), and so is MsgCancel (it must observe the registration of every
// request read before it); every other message is admitted to the
// schedQueue with its QoS class and wall-clock deadline peeked off the
// wire, and workers pop strictly by class, then deficit-round-robin
// across tenants within the class, then earliest-deadline-first. A
// request whose deadline passes while queued is shed with
// CodeDeadlineExceeded before any worker executes it. When the queue is
// full of live work, the request is rejected with CodeOverloaded instead
// of stalling the reader, keeping the connection responsive under load;
// expired queued work is evicted first to make room.
//
// The server's Tenants policy (nil = open) governs the connection's
// tenant identity: the first hello frame authenticates a tenant onto the
// connection (structured hellos carry an explicit claim; legacy and
// absent hellos run as DefaultTenant), a failed authentication answers
// CodeBadRequest and closes the connection, and each subsequent request
// spends a token from the tenant's bucket before entering the scheduler —
// an empty bucket answers CodeQuotaExceeded without queueing. Peer
// federation frames are quota-exempt: they spend another edge's client
// budget, not this tenant's.
//
// Admissions, deadline sheds, overloads and quota rejections count into
// the server's ledger; its Obs (nil-safe) feeds the live metrics plane —
// per-stage histograms, per-tenant-and-class outcome counters, connection
// gauges and the slow-request ring.
//
// scenes, when non-nil, lets this connection host shared-scene traffic:
// join/publish/leave frames dispatch against the registry, pushed
// MsgSceneEvent frames from any member's publish ride this connection's
// writer, and the connection's memberships are torn down when the reader
// exits (disconnect, shutdown, or a poisoned preamble alike). Servers
// that host no scenes (the cloud) have none and reject scene frames.
type conn struct {
	srv    *ServerCore
	tier   tier
	scenes *scene.Registry
	nc     net.Conn
	batch  *batchPlan

	workers int
	budget  int // workers + queue depth: the most requests admitted at once

	// ctx is the parent of every per-request context on this connection.
	// It is detached from the serving context (graceful shutdown drains
	// rather than aborts) and cancelled when the client goes away.
	ctx    context.Context
	cancel context.CancelFunc

	// cancels maps in-flight RequestIDs to their cancel functions, the
	// MsgCancel lookup table. Only the reader inserts; workers remove.
	cancelMu sync.Mutex
	cancels  map[uint64]context.CancelFunc

	sched   *schedQueue
	replies chan sequencedReply
	// slots bounds replies outstanding anywhere in the pipeline — being
	// processed, queued, or parked out-of-order in the reorder buffer.
	// The reader acquires one per request and the writer releases one per
	// reply flushed, so when the head-of-line request stalls (a slow
	// fetch), a fast sender is eventually blocked at the reader (TCP
	// backpressure) instead of growing the reorder buffer without bound
	// on overload replies. The headroom beyond the admission budget is
	// what keeps overload shedding responsive while the pool is merely
	// full.
	slots chan struct{}

	// unordered is set by the connection's first hello frame
	// (HelloFlagUnordered): clients that match replies by RequestID skip
	// the reorder buffer, so a completed interactive reply is never
	// head-of-line blocked behind a queued best-effort one.
	unordered atomic.Bool

	// id and outbox are the connection's scene identity: the registry
	// addresses pushes to the outbox, and the writer drains it.
	id     uint64
	outbox *pushOutbox

	// Reader-owned: the execution mode and tenant the next request is
	// admitted under, the arrival sequence number of the last frame, and
	// the pooled buffer the frame being read was given (see takeFrame).
	mode   Mode
	tenant string
	seq    uint64
	frame  *[]byte
}

// pooledFrameMin is the smallest exec body a connection reads into a
// recycled buffer: camera frames, not descriptors or control frames.
const pooledFrameMin = 64 << 10

// framePool recycles the bodies of large exec frames (*[]byte) across
// every connection. A buffer too small for a frame is dropped and
// replaced, not grown.
var framePool sync.Pool

// frameHooks observe every pooled body a server's connections take and
// release; tests set them before the server starts.
type frameHooks struct {
	take, release func(*[]byte)
}

// pooledReplyMin is the smallest reply body packed into a recycled
// buffer: panoramas and models, not recognition results. It is the size
// from which WriteMessage encodes into a recycled buffer too.
const pooledReplyMin = 32 << 10

// replyPool recycles the bodies of large task replies (*[]byte) across
// every connection. It is apart from framePool so that 2 MB camera frames
// and 41 KB panorama replies do not displace each other: a buffer too
// small for a body is dropped and replaced, not grown.
var replyPool sync.Pool

// reply is one answer on its way to a connection's writer: the frame
// and, when its body was packed into a buffer from replyPool, that
// buffer. The writer releases the buffer once the frame is written, or
// dropped on a dead connection: that is its one release point, so
// nothing may keep the body once the reply is handed over.
type reply struct {
	msg  wire.Message
	body *[]byte
}

// sequencedReply pairs a reply with the arrival sequence number of the
// request it answers.
type sequencedReply struct {
	seq uint64
	reply
}

// packReply frames payload as k's answer to request reqID. A body of at
// least pooledReplyMin bytes is packed into a buffer from replyPool,
// which the reply owns; a smaller one is fresh. payload is only read, so
// it may be a cache's resident bytes.
func (s *ServerCore) packReply(k *taskKind, reqID uint64, source uint8, payload []byte) reply {
	n := k.size(payload)
	if n < pooledReplyMin {
		return reply{msg: k.replyWith(reqID, source, payload)}
	}
	p, _ := replyPool.Get().(*[]byte)
	if p == nil || cap(*p) < n {
		b := make([]byte, n)
		p = &b
	}
	if h := s.replyBodies.take; h != nil {
		h(p)
	}
	body := k.pack((*p)[:0], source, payload)
	return reply{msg: wire.Message{Type: k.reply, RequestID: reqID, Body: body}, body: p}
}

// releaseReply returns a reply's pooled body to replyPool; a fresh body
// is left to the collector. Nothing may read the body after it.
func (s *ServerCore) releaseReply(r reply) {
	if r.body == nil {
		return
	}
	if h := s.replyBodies.release; h != nil {
		h(r.body)
	}
	replyPool.Put(r.body)
}

func (s *ServerCore) newConn(nc net.Conn, t tier, scenes *scene.Registry) *conn {
	workers, depth := s.Workers, s.QueueDepth
	if workers <= 0 {
		workers = DefaultWorkers
	}
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	c := &conn{
		srv: s, tier: t, scenes: scenes, nc: nc, batch: s.batchPlan(),
		workers: workers, budget: workers + depth,
		cancels: map[uint64]context.CancelFunc{},
		sched:   newSchedQueueWeighted(depth, s.Tenants.Weight),
		replies: make(chan sequencedReply, workers+depth+1),
		slots:   make(chan struct{}, 2*(workers+depth)),
		id:      nextConnID.Add(1),
		outbox:  newPushOutbox(),
		mode:    ModeCoIC,
		tenant:  DefaultTenant,
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	return c
}

// serve runs the connection to completion. ctx is the serving context:
// its cancellation stops the reader (no new requests) but deliberately
// does NOT cancel per-request contexts — admitted work drains, replies
// flush, then the connection closes. A client disconnect, by contrast,
// cancels every in-flight request on the connection: nobody is left to
// read the replies, so the work (and any coalesced fetch it alone keeps
// alive) is abandoned.
func (c *conn) serve(ctx context.Context) {
	defer c.nc.Close()
	defer c.cancel()
	c.srv.Obs.connOpened()
	defer c.srv.Obs.connClosed()

	// Graceful shutdown: unblock the reader so it stops admitting new
	// requests; everything already admitted runs to completion.
	stopReader := context.AfterFunc(ctx, func() { c.nc.SetReadDeadline(time.Now()) })
	defer stopReader()

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		c.write()
	}()
	var workers sync.WaitGroup
	for i := 0; i < c.workers; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			c.work()
		}()
	}

	c.read()
	if ctx.Err() == nil {
		// The client went away on its own: abandon its in-flight work so
		// coalesced fetches it alone keeps alive can abort.
		c.cancel()
	}
	// Membership dies with the connection: close the outbox so room
	// publishers stop targeting it, then leave every joined scene (the
	// last member out garbage-collects the room).
	c.outbox.close()
	if c.scenes != nil {
		c.scenes.Disconnect(c.id)
	}
	c.sched.close()
	workers.Wait()
	close(c.replies)
	<-writerDone
}

// write is the connection's writer. Ordering contract: exactly ONE
// goroutine — this one — ever writes to the socket or touches the
// ReplyBuffer (which panics on misuse; see wire/sequence.go). It serves
// two producers:
//
//  1. In-order replies: the reader acquires a slot per request, and emit
//     releases one per reply written, and the reply's pooled body with
//     it. Ordered connections flow through the ReplyBuffer; unordered
//     ones emit on completion.
//  2. Scene pushes: server-minted frames enqueued on the outbox by any
//     room member's publish. They consume NO slot (there is no request
//     behind them) and never enter the ReplyBuffer (they have no seq).
//     They are only ever sent on unordered connections — dispatchScene
//     refuses joins without the flag — so interleaving them between
//     reply frames cannot desynchronize a positional client.
//
// Because both producers funnel through this single goroutine, frames
// stay whole on the wire: a push can land between two replies, never
// inside one.
func (c *conn) write() {
	obsv := c.srv.Obs
	buf := wire.NewReplyBuffer[reply](1)
	dead := false
	write := func(m wire.Message) bool {
		if dead {
			return false
		}
		if err := wire.WriteMessage(c.nc, m); err != nil {
			// Keep draining so workers never block behind a dead
			// connection; closing it also unsticks the reader.
			dead = true
			c.nc.Close()
			return false
		}
		return true
	}
	emit := func(r reply) {
		<-c.slots
		start := time.Now()
		if write(r.msg) {
			obsv.observeReplyWrite(time.Since(start))
		}
		c.srv.releaseReply(r)
	}
	for {
		select {
		case r, ok := <-c.replies:
			if !ok {
				return
			}
			if c.unordered.Load() {
				emit(r.reply)
				continue
			}
			for _, m := range buf.Add(r.seq, r.reply) {
				emit(m)
			}
		case <-c.outbox.wake:
			for _, p := range c.outbox.drain() {
				if write(p.msg) {
					obsv.observeSceneFanout(time.Since(p.enq))
				}
			}
		}
	}
}

// answer hands the writer m, the reply to the frame that arrived seq-th,
// whose body is not pooled.
func (c *conn) answer(seq uint64, m wire.Message) {
	c.replies <- sequencedReply{seq: seq, reply: reply{msg: m}}
}

// finishJob releases a job's cancel registration and pooled frame,
// accounts it and hands its reply to the writer — every admitted job
// exits through here exactly once, serial or batched, executed or shed.
// No reply aliases its request's body, so the frame goes back to the
// pool before the reply is written. The ledger reads the reply's type
// and code, never its body.
func (c *conn) finishJob(j schedJob, r reply) {
	j.finish()
	c.srv.Obs.request(j.tenant, j.class, j.msg, j.trace, r.msg, time.Since(j.admitted))
	c.releaseFrame(j.frame)
	c.replies <- sequencedReply{seq: j.seq, reply: r}
}

// shed answers a job whose wall-clock deadline passed while it was
// queued: no worker executed it, no upstream fetch was issued, and the
// reply keeps its place in the connection's reply order.
func (c *conn) shed(j schedJob) {
	c.srv.sheds.Add(1)
	c.finishJob(j, reply{msg: errorReply(j.msg.RequestID, wire.CodeDeadlineExceeded,
		"deadline passed while queued; request shed unexecuted")})
}

// skip answers a job that must not run — cancelled while queued, or its
// deadline passed there (shed-before-work: the result would be stale on
// arrival) — and reports whether it did.
func (c *conn) skip(j schedJob, now time.Time) bool {
	switch {
	case j.ctx.Err() != nil:
		c.finishJob(j, reply{msg: errorReply(j.msg.RequestID, wire.CodeCanceled, "request canceled")})
	case j.expired(now):
		c.shed(j)
	default:
		return false
	}
	return true
}

// dispatch answers one live job: scene frames against the registry, with
// this connection's identity and outbox; everything else by the tier.
func (c *conn) dispatch(ctx context.Context, msg wire.Message, mode Mode, tenant string) reply {
	switch msg.Type {
	case wire.MsgSceneJoin, wire.MsgScenePublish, wire.MsgSceneLeave:
		return reply{msg: c.dispatchScene(msg, tenant)}
	}
	return c.tier.dispatch(ctx, msg, mode, tenant)
}

// work is one worker's loop.
func (c *conn) work() {
	obsv := c.srv.Obs
	for {
		j, ok := c.sched.pop()
		if !ok {
			return
		}
		picked := time.Now()
		obsv.observeSchedWait(picked.Sub(j.admitted))
		switch {
		case c.skip(j, picked):
		case c.batch.batchable(&j):
			c.runBatch(c.fillBatch(j, picked))
		default:
			m := c.dispatch(j.ctx, j.msg, j.mode, j.tenant)
			obsv.observeExec(time.Since(picked))
			c.finishJob(j, m)
		}
	}
}

// fillBatch assembles a batch around a live, batchable head job: first
// every compatible job already queued (strictly in scheduler order —
// tryDrain stops at the first incompatible head), then, for a best-effort
// head only, whatever arrives inside the deadline-capped slack window.
func (c *conn) fillBatch(head schedJob, picked time.Time) []schedJob {
	plan, sched := c.batch, c.sched
	jobs := []schedJob{head}
	drained, _ := sched.tryDrain(plan.max-1, execJob)
	jobs = append(jobs, drained...)
	var waited time.Duration
	if budget := plan.waitBudget(&head, picked); budget > 0 && len(jobs) < plan.max {
		waitStart := time.Now()
		timer := time.NewTimer(budget)
		// The sweep after the window closes (or the queue does) catches
		// anything that raced the timer.
		for closed := false; len(jobs) < plan.max; {
			more, blocked := sched.tryDrain(plan.max-len(jobs), execJob)
			jobs = append(jobs, more...)
			if blocked || closed {
				break
			}
			select {
			case <-sched.arrivals:
			case <-timer.C:
				closed = true
			case <-sched.done:
				closed = true
			}
		}
		timer.Stop()
		waited = time.Since(waitStart)
	}
	c.srv.Obs.observeBatchWait(waited)
	return jobs
}

// runBatch executes an assembled batch. Members that were cancelled or
// expired while the batch formed are skipped individually, exactly as the
// serial path would have skipped them.
func (c *conn) runBatch(jobs []schedJob) {
	obsv := c.srv.Obs
	now := time.Now()
	live := jobs[:0]
	for i, j := range jobs {
		if i > 0 {
			// Drained members left the queue here, not via pop.
			obsv.observeSchedWait(now.Sub(j.admitted))
		}
		if !c.skip(j, now) {
			live = append(live, j)
		}
	}
	if len(live) == 0 {
		return
	}
	obsv.observeBatchSize(len(live))
	if len(live) > 1 {
		c.srv.batches.Add(1)
		c.srv.batched.Add(uint64(len(live)))
	}
	execStart := time.Now()
	replies := c.tier.runBatch(live)
	execDur := time.Since(execStart)
	for i, j := range live {
		r := replies[i]
		if r.msg.Type == 0 {
			// A dispatcher that misses a member is a server bug, but
			// the client still deserves an answer over a hang.
			r = reply{msg: errorReply(j.msg.RequestID, wire.CodeInternal, "batch dispatcher produced no reply")}
		}
		obsv.observeExec(execDur)
		c.finishJob(j, r)
	}
}

// read is the connection's reader, until the connection closes, a frame
// is corrupt, the shutdown deadline fires or a hello is fatally refused.
func (c *conn) read() {
	rd := wire.NewReader(c.nc)
	take := c.takeFrame // one method value, not one per frame
	for {
		msg, err := rd.ReadMessageInto(take)
		frame := c.frame
		c.frame = nil
		if err != nil {
			c.releaseFrame(frame)
			return
		}
		c.slots <- struct{}{}
		c.seq++
		switch msg.Type {
		case wire.MsgHello:
			if !c.hello(msg) {
				return
			}
		case wire.MsgCancel:
			c.cancelRequest(msg)
		default:
			c.admit(msg, frame)
		}
	}
}

// takeFrame is the reader's body source: an exec body of at least
// pooledFrameMin bytes is read into a buffer from framePool, which the
// job it becomes owns until finishJob (or admit's refusal) releases it.
// Everything else gets a fresh body.
func (c *conn) takeFrame(t wire.MsgType, n int) []byte {
	if t != wire.MsgExec || n < pooledFrameMin {
		return nil
	}
	p, _ := framePool.Get().(*[]byte)
	if p == nil || cap(*p) < n {
		b := make([]byte, n)
		p = &b
	}
	if h := c.srv.frames.take; h != nil {
		h(p)
	}
	c.frame = p
	return *p
}

// releaseFrame returns a pooled body to framePool; nil is a no-op.
// Nothing decoded from the body may be used after it.
func (c *conn) releaseFrame(p *[]byte) {
	if p == nil {
		return
	}
	if h := c.srv.frames.release; h != nil {
		h(p)
	}
	framePool.Put(p)
}

// hello applies a hello frame and acks it; false means the preamble was
// refused and the connection must be dropped.
//
// Every hello is a mode switch, in either direction. Tenant identity and
// the unordered-replies flag are only honoured on the very first frame:
// rebinding the tenant mid-connection would let a throttled tenant
// launder requests through a cheap re-hello, and flipping the reply order
// could strand replies parked in the reorder buffer.
func (c *conn) hello(msg wire.Message) bool {
	h, err := wire.UnmarshalHello(msg.Body)
	if err != nil {
		c.answer(c.seq, errorReply(msg.RequestID, wire.CodeBadRequest, "bad hello: %v", err))
		return false // the preamble is garbage
	}
	if h.Mode != wire.HelloModeOrigin && h.Mode != wire.HelloModeCoIC {
		// Refused, not fatal: the connection keeps the mode it had.
		c.answer(c.seq, errorReply(msg.RequestID, wire.CodeBadRequest, "hello: unknown mode %d", h.Mode))
		return true
	}
	if c.seq == 1 {
		tenant, err := c.srv.Tenants.Authenticate(h.Tenant, h.Token)
		if err != nil {
			c.answer(c.seq, errorReply(msg.RequestID, wire.CodeBadRequest, "hello rejected: %v", err))
			return false // unauthenticated connections do not proceed
		}
		c.tenant = tenant
		if h.Flags&wire.HelloFlagUnordered != 0 {
			c.unordered.Store(true)
		}
	}
	c.mode = Mode(h.Mode) // the wire's mode bytes are core.Mode's values
	c.answer(c.seq, wire.Message{Type: wire.MsgHello, RequestID: msg.RequestID})
	return true
}

// cancelRequest aborts the request a MsgCancel names if it is still in
// flight, and acks with an echo either way (the target may have already
// replied).
func (c *conn) cancelRequest(msg wire.Message) {
	if cr, err := wire.UnmarshalCancelRequest(msg.Body); err == nil {
		c.cancelMu.Lock()
		cancel := c.cancels[cr.TargetID]
		c.cancelMu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	c.answer(c.seq, wire.Message{Type: wire.MsgCancel, RequestID: msg.RequestID})
}

// admit offers one request to its tenant's token bucket and then the
// scheduler; a refusal by either is answered in the request's reply slot.
// frame, the pooled buffer msg.Body lives in (or nil), goes with the job,
// or back to the pool on a refusal.
func (c *conn) admit(msg wire.Message, frame *[]byte) {
	obsv, tenant := c.srv.Obs, c.tenant
	jctx, jcancel := context.WithCancel(c.ctx)
	reqID := msg.RequestID
	c.cancelMu.Lock()
	c.cancels[reqID] = jcancel
	c.cancelMu.Unlock()
	finish := func() {
		c.cancelMu.Lock()
		delete(c.cancels, reqID)
		c.cancelMu.Unlock()
		jcancel()
	}
	class, deadlineMicros := wire.PeekQoS(msg.Type, msg.Body)
	trace := wire.PeekTrace(msg.Type, msg.Body)
	// Federation frames carry no trailer but sit on another edge's
	// client critical path (or carry the fleet's failure detector):
	// schedule them as interactive, or a sustained interactive stream
	// here would starve peer probes and gossip into timeout+backoff
	// and silently degrade the federation. They are also exempt from
	// tenant rationing — they are not this tenant's traffic to ration.
	federation := isFederationFrame(msg.Type)
	if federation {
		class = wire.QoSInteractive
	}
	var deadline time.Time
	if deadlineMicros != 0 {
		deadline = time.UnixMicro(deadlineMicros)
	}
	// refuse answers a request that never entered the scheduler.
	refuse := func(m wire.Message) {
		finish()
		obsv.request(tenant, class, msg, trace, m, 0)
		c.releaseFrame(frame)
		c.answer(c.seq, m)
	}
	// Per-tenant rationing runs before global admission: a request the
	// tenant's token bucket rejects never competes for queue room.
	if !federation && !c.srv.Tenants.Admit(tenant) {
		c.srv.countQuota(tenant)
		refuse(errorReply(reqID, wire.CodeQuotaExceeded,
			"tenant %q admission quota exceeded; retry after backing off", tenant))
		return
	}
	evicted, ok := c.sched.push(schedJob{
		seq: c.seq, msg: msg, frame: frame, mode: c.mode, ctx: jctx, finish: finish,
		class: class, deadline: deadline, tenant: tenant,
		admitted: time.Now(), trace: trace,
	})
	// Expired queued work evicted to make room answers in its own
	// reply slot; it never reaches a worker.
	for _, j := range evicted {
		c.shed(j)
	}
	if !ok {
		c.srv.overloads.Add(1)
		refuse(errorReply(reqID, wire.CodeOverloaded,
			"server overloaded: this connection's admission budget of %d requests (workers + queue) is full", c.budget))
		return
	}
	c.srv.countAdmit(tenant, class)
}
