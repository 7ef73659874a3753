package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/edge-immersion/coic/internal/cache"
	"github.com/edge-immersion/coic/internal/feature"
	"github.com/edge-immersion/coic/internal/scene"
	"github.com/edge-immersion/coic/internal/wire"
)

// This file runs the same CoIC protocol over real TCP sockets: the
// deployment mode of the cmd/ daemons, where tc-style shaping comes from
// netsim.Shaper and latency is wall-clock. The virtual-time Session is
// for experiments; these servers are for running the system.
//
// Each connection is served pipelined: a reader goroutine tags incoming
// requests with an arrival sequence number and feeds a bounded worker
// pool, and replies are written back strictly in arrival order through a
// wire.ReplyBuffer. Concurrent cache misses on the same (or similar)
// descriptor coalesce into one upstream fetch via the edge's in-flight
// table, and the upstream connection itself is multiplexed, so a burst of
// distinct misses overlaps its cloud round trips instead of serialising
// them.
//
// Cancellation flows through every stage. Each request is dispatched
// under its own context, cancelled by a MsgCancel frame naming it, by the
// client disconnecting mid-pipeline, or by the caller's deadline; a
// cancelled request still occupies its slot in the reply order and
// answers with CodeCanceled. Coalesced fetches follow last-waiter-cancels
// (cache.InflightTable): one departing waiter leaves the flight alone,
// the last departure aborts the upstream round trip and forwards a
// MsgCancel to the cloud. Cancelling the context passed to ServeContext
// triggers graceful shutdown: the listener closes, readers stop accepting
// new requests, queued and in-flight requests drain, replies flush, and
// only then do connections close.

// Serving tunables. Workers bounds how many requests one connection
// processes concurrently; QueueDepth bounds how many more may be buffered
// awaiting a worker before the server sheds load with CodeOverloaded;
// FetchTimeout bounds one upstream (cloud) round trip so a hung cloud
// fails its coalesced waiters instead of wedging them.
const (
	DefaultWorkers      = 8
	DefaultQueueDepth   = 32
	DefaultFetchTimeout = 15 * time.Second
)

// ConnWrapper optionally wraps accepted/dialed connections (e.g. with a
// netsim.Shaper); nil means unwrapped.
type ConnWrapper func(net.Conn) net.Conn

// overloadReply is the admission-control rejection for one request; it
// takes the rejected request's place in the connection's reply order.
func overloadReply(msg wire.Message, inFlight int) wire.Message {
	body, _ := (wire.ErrorReply{
		Code: wire.CodeOverloaded,
		Msg:  fmt.Sprintf("server overloaded: %d requests in flight on this connection", inFlight),
	}).Marshal()
	return wire.Message{Type: wire.MsgError, RequestID: msg.RequestID, Body: body}
}

// canceledReply answers a request whose context died before (or while)
// it was being processed; it keeps the request's place in the reply
// order.
func canceledReply(reqID uint64) wire.Message {
	body, _ := (wire.ErrorReply{Code: wire.CodeCanceled, Msg: "request canceled"}).Marshal()
	return wire.Message{Type: wire.MsgError, RequestID: reqID, Body: body}
}

// deadlineShedReply answers a request shed because its wall-clock
// deadline passed while it was queued: no worker executed it, no
// upstream fetch was issued, and the reply keeps its place in the
// connection's reply order.
func deadlineShedReply(reqID uint64) wire.Message {
	body, _ := (wire.ErrorReply{
		Code: wire.CodeDeadlineExceeded,
		Msg:  "deadline passed while queued; request shed unexecuted",
	}).Marshal()
	return wire.Message{Type: wire.MsgError, RequestID: reqID, Body: body}
}

// quotaReply answers a request rejected by its tenant's token bucket: it
// never entered the scheduler, and the reply keeps the request's place
// in the connection's reply order.
func quotaReply(reqID uint64, tenant string) wire.Message {
	body, _ := (wire.ErrorReply{
		Code: wire.CodeQuotaExceeded,
		Msg:  fmt.Sprintf("tenant %q admission quota exceeded; retry after backing off", tenant),
	}).Marshal()
	return wire.Message{Type: wire.MsgError, RequestID: reqID, Body: body}
}

// pipelineHooks observes one connection pipeline's admission decisions;
// any hook may be nil. onAdmit sees every request entering the scheduler
// with the connection's tenant and the request's service class; onShed
// sees every request dropped because its deadline expired in the queue;
// onOverload sees every request rejected because the queue was full of
// live work; onQuota sees every request rejected by its tenant's token
// bucket.
type pipelineHooks struct {
	onAdmit    func(tenant string, q wire.QoS)
	onShed     func()
	onOverload func()
	onQuota    func(tenant string)
	// onBatch sees the live size of every batch a worker executes
	// through the batch dispatcher (including size 1).
	onBatch func(n int)
}

// isCanceled reports whether err is a context cancellation/expiry.
func isCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// connPipeline serves one connection with the reader → priority
// scheduler → worker pool → ordered writer topology. MsgHello is handled
// inline on the reader (its mode switch must stay ordered with the
// requests around it), and so is MsgCancel (it must observe the
// registration of every request read before it); every other message is
// admitted to the schedQueue with its QoS class and wall-clock deadline
// peeked off the wire, and workers pop strictly by class, then
// deficit-round-robin across tenants within the class, then
// earliest-deadline-first. A request whose deadline passes while queued
// is shed with CodeDeadlineExceeded before any worker executes it. When
// the queue is full of live work, the request is rejected with
// CodeOverloaded instead of stalling the reader, keeping the connection
// responsive under load; expired queued work is evicted first to make
// room.
//
// tenants (nil = open policy) governs the connection's tenant identity:
// the first hello frame authenticates a tenant onto the connection
// (structured hellos carry an explicit claim; legacy and absent hellos
// run as DefaultTenant), a failed authentication answers CodeBadRequest
// and closes the connection, and each subsequent request spends a token
// from the tenant's bucket before entering the scheduler — an empty
// bucket answers CodeQuotaExceeded without queueing. Peer federation
// frames are quota-exempt: they spend another edge's client budget, not
// this tenant's.
//
// hooks observe admissions, deadline sheds, overloads and quota
// rejections; obsv (nil-safe) feeds the live metrics plane — per-stage
// histograms, per-tenant-and-class outcome counters, connection gauges
// and the slow-request ring.
//
// ctx is the serving context: its cancellation stops the reader (no new
// requests) but deliberately does NOT cancel per-request contexts —
// admitted work drains, replies flush, then the connection closes. A
// client disconnect, by contrast, cancels every in-flight request on the
// connection: nobody is left to read the replies, so the work (and any
// coalesced fetch it alone keeps alive) is abandoned.
//
// scenes, when non-nil, lets this connection host shared-scene traffic:
// join/publish/leave frames dispatch against the registry, pushed
// MsgSceneEvent frames from any member's publish ride this connection's
// writer, and the connection's memberships are torn down when the
// reader exits (disconnect, shutdown, or a poisoned preamble alike).
// Servers that host no scenes (the cloud) pass nil and scene frames
// fall through to their dispatcher's default rejection.
func connPipeline(ctx context.Context, conn net.Conn, workers, depth int, tenants *TenantPolicy, dispatch func(ctx context.Context, msg wire.Message, mode Mode, tenant string) wire.Message, batch *batchPlan, hooks pipelineHooks, obsv *ServerObs, scenes *scene.Registry) {
	defer conn.Close()
	obsv.connOpened()
	defer obsv.connClosed()
	if workers <= 0 {
		workers = DefaultWorkers
	}
	if depth <= 0 {
		depth = DefaultQueueDepth
	}

	// connCtx is the parent of every per-request context on this
	// connection. It is detached from the serving ctx (graceful shutdown
	// drains rather than aborts) and cancelled when the client goes away.
	connCtx, connCancel := context.WithCancel(context.Background())
	defer connCancel()

	// Graceful shutdown: unblock the reader so it stops admitting new
	// requests; everything already admitted runs to completion.
	stopReader := context.AfterFunc(ctx, func() { conn.SetReadDeadline(time.Now()) })
	defer stopReader()

	// cancels maps in-flight RequestIDs to their cancel functions, the
	// MsgCancel lookup table. Only the reader inserts; workers remove.
	var cancelMu sync.Mutex
	cancels := map[uint64]context.CancelFunc{}

	sched := newSchedQueueWeighted(depth, tenants.Weight)
	replies := make(chan wire.SequencedMessage, workers+depth+1)
	// slots bounds replies outstanding anywhere in the pipeline — being
	// processed, queued, or parked out-of-order in the reorder buffer.
	// The reader acquires one per request and the writer releases one per
	// reply flushed, so when the head-of-line request stalls (a slow
	// fetch), a fast sender is eventually blocked at the reader (TCP
	// backpressure) instead of growing the reorder buffer without bound
	// on overload replies. The headroom beyond workers+depth is what
	// keeps overload shedding responsive while the pool is merely full.
	slots := make(chan struct{}, 2*(workers+depth))

	// unordered is set by the connection's first hello frame
	// (HelloFlagUnordered): clients that match replies by RequestID skip
	// the reorder buffer, so a completed interactive reply is never
	// head-of-line blocked behind a queued best-effort one.
	var unordered atomic.Bool

	// connID and outbox are the connection's scene identity: the registry
	// addresses pushes to the outbox, and the writer below drains it.
	connID := nextConnID.Add(1)
	outbox := newPushOutbox()

	// Writer ordering contract. Exactly ONE goroutine — this one — ever
	// writes to conn or touches the ReplyBuffer (which panics on misuse;
	// see wire/sequence.go). It now serves two producers:
	//
	//   1. In-order replies: the reader acquires a slot per request, and
	//      emit releases one per reply written. Ordered connections flow
	//      through the ReplyBuffer; unordered ones emit on completion.
	//   2. Scene pushes: server-minted frames enqueued on the outbox by
	//      any room member's publish. They consume NO slot (there is no
	//      request behind them) and never enter the ReplyBuffer (they
	//      have no seq). They are only ever sent on unordered
	//      connections — dispatchScene refuses joins without the flag —
	//      so interleaving them between reply frames cannot desynchronize
	//      a positional client.
	//
	// Because both producers funnel through this single goroutine, frames
	// stay whole on the wire: a push can land between two replies, never
	// inside one.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		buf := wire.NewReplyBuffer(1)
		dead := false
		write := func(m wire.Message) bool {
			if dead {
				return false
			}
			if err := wire.WriteMessage(conn, m); err != nil {
				// Keep draining so workers never block behind a dead
				// connection; closing it also unsticks the reader.
				dead = true
				conn.Close()
				return false
			}
			return true
		}
		emit := func(m wire.Message) {
			<-slots
			start := time.Now()
			if write(m) {
				obsv.observeReplyWrite(time.Since(start))
			}
		}
		emitPushes := func() {
			for _, p := range outbox.drain() {
				if write(p.msg) {
					obsv.observeSceneFanout(time.Since(p.enq))
				}
			}
		}
		for {
			select {
			case r, ok := <-replies:
				if !ok {
					return
				}
				if unordered.Load() {
					emit(r.Msg)
					continue
				}
				for _, m := range buf.Add(r.Seq, r.Msg) {
					emit(m)
				}
			case <-outbox.wake:
				emitPushes()
			}
		}
	}()

	// Scene frames dispatch locally against the registry, with this
	// connection's identity and outbox; everything else flows to the
	// server's dispatcher. A server without a registry rejects them here
	// rather than learning about scenes.
	baseDispatch := dispatch
	dispatch = func(jctx context.Context, msg wire.Message, mode Mode, tnt string) wire.Message {
		switch msg.Type {
		case wire.MsgSceneJoin, wire.MsgScenePublish, wire.MsgSceneLeave:
			if scenes == nil {
				return errorReply(msg.RequestID, wire.CodeBadRequest, "this server hosts no scenes")
			}
			return dispatchScene(scenes, tenants, obsv, connID, outbox, &unordered, msg, tnt)
		}
		return baseDispatch(jctx, msg, mode, tnt)
	}

	// finishJob releases a job's cancel registration, accounts it and
	// hands its reply to the writer — every job exits through here
	// exactly once, serial or batched.
	finishJob := func(j schedJob, m wire.Message) {
		j.finish()
		obsv.request(j.tenant, j.class, j.msg, j.trace, m, time.Since(j.admitted))
		replies <- wire.SequencedMessage{Seq: j.seq, Msg: m}
	}

	// runBatchHead assembles and executes a batch around a live,
	// batchable head job: first every compatible job already queued
	// (strictly in scheduler order — tryDrain stops at the first
	// incompatible head), then, for a best-effort head only, whatever
	// arrives inside the deadline-capped slack window. Members that were
	// cancelled or expired while the batch formed shed individually,
	// exactly as the serial path would have shed them.
	runBatchHead := func(head schedJob, picked time.Time) {
		jobs := []schedJob{head}
		drained, _ := sched.tryDrain(batch.max-1, batch.match)
		jobs = append(jobs, drained...)
		var waited time.Duration
		if budget := batch.waitBudget(&head, picked); budget > 0 && len(jobs) < batch.max {
			waitStart := time.Now()
			timer := time.NewTimer(budget)
			for len(jobs) < batch.max {
				more, blocked := sched.tryDrain(batch.max-len(jobs), batch.match)
				jobs = append(jobs, more...)
				if blocked || len(jobs) >= batch.max {
					break
				}
				stop := false
				select {
				case <-sched.arrivals:
				case <-timer.C:
					stop = true
				case <-sched.done:
					stop = true
				}
				if stop {
					// Final sweep for anything that raced the timer.
					more, _ := sched.tryDrain(batch.max-len(jobs), batch.match)
					jobs = append(jobs, more...)
					break
				}
			}
			timer.Stop()
			waited = time.Since(waitStart)
		}
		obsv.observeBatchWait(waited)

		now := time.Now()
		live := make([]*batchJob, 0, len(jobs))
		liveJobs := make([]schedJob, 0, len(jobs))
		for i, j := range jobs {
			if i > 0 {
				// Drained members left the queue here, not via pop.
				obsv.observeSchedWait(now.Sub(j.admitted))
			}
			switch {
			case j.ctx.Err() != nil:
				finishJob(j, canceledReply(j.msg.RequestID))
			case j.expired(now):
				if hooks.onShed != nil {
					hooks.onShed()
				}
				finishJob(j, deadlineShedReply(j.msg.RequestID))
			default:
				live = append(live, &batchJob{ctx: j.ctx, msg: j.msg, mode: j.mode, tenant: j.tenant})
				liveJobs = append(liveJobs, j)
			}
		}
		if len(live) == 0 {
			return
		}
		obsv.observeBatchSize(len(live))
		if hooks.onBatch != nil {
			hooks.onBatch(len(live))
		}
		execStart := time.Now()
		batch.run(live)
		execDur := time.Since(execStart)
		for i, bj := range live {
			m := bj.reply
			if m.Type == 0 {
				// A dispatcher that misses a member is a server bug, but
				// the client still deserves an answer over a hang.
				m = errorReply(bj.msg.RequestID, wire.CodeInternal, "batch dispatcher produced no reply")
			}
			obsv.observeExec(execDur)
			finishJob(liveJobs[i], m)
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, ok := sched.pop()
				if !ok {
					return
				}
				picked := time.Now()
				obsv.observeSchedWait(picked.Sub(j.admitted))
				if j.ctx.Err() == nil && !j.expired(picked) && batch.batchable(&j) {
					runBatchHead(j, picked)
					continue
				}
				var m wire.Message
				switch {
				case j.ctx.Err() != nil:
					// Cancelled while queued: skip the work entirely.
					m = canceledReply(j.msg.RequestID)
				case j.expired(picked):
					// Shed-before-work: the deadline passed in the queue,
					// so the result would be stale on arrival. No dispatch,
					// no upstream fetch.
					if hooks.onShed != nil {
						hooks.onShed()
					}
					m = deadlineShedReply(j.msg.RequestID)
				default:
					m = dispatch(j.ctx, j.msg, j.mode, j.tenant)
					obsv.observeExec(time.Since(picked))
				}
				finishJob(j, m)
			}
		}()
	}

	mode := ModeCoIC
	tenant := DefaultTenant
	var seq uint64
	for {
		msg, err := wire.ReadMessage(conn)
		if err != nil {
			break // connection closed, corrupt, or shutdown deadline
		}
		slots <- struct{}{}
		seq++
		if msg.Type == wire.MsgHello {
			h, herr := wire.UnmarshalHello(msg.Body)
			if herr != nil {
				replies <- wire.SequencedMessage{Seq: seq,
					Msg: errorReply(msg.RequestID, wire.CodeBadRequest, "bad hello: %v", herr)}
				break // the preamble is garbage; drop the connection
			}
			if h.Mode == wire.HelloModeOrigin {
				mode = ModeOrigin
			}
			// Tenant identity and the unordered-replies flag are only
			// honoured on the very first frame: rebinding the tenant
			// mid-connection would let a throttled tenant launder requests
			// through a cheap re-hello, and flipping the reply order could
			// strand replies parked in the reorder buffer. Later hellos
			// remain pure mode switches, as before tenancy existed.
			if seq == 1 {
				authed, aerr := tenants.Authenticate(h.Tenant, h.Token)
				if aerr != nil {
					replies <- wire.SequencedMessage{Seq: seq,
						Msg: errorReply(msg.RequestID, wire.CodeBadRequest, "hello rejected: %v", aerr)}
					break // unauthenticated connections do not proceed
				}
				tenant = authed
				if h.Flags&wire.HelloFlagUnordered != 0 {
					unordered.Store(true)
				}
			}
			replies <- wire.SequencedMessage{Seq: seq, Msg: wire.Message{Type: wire.MsgHello, RequestID: msg.RequestID}}
			continue
		}
		if msg.Type == wire.MsgCancel {
			// Abort the named request if it is still in flight; ack with
			// an echo either way (the target may have already replied).
			if cr, cerr := wire.UnmarshalCancelRequest(msg.Body); cerr == nil {
				cancelMu.Lock()
				cancel := cancels[cr.TargetID]
				cancelMu.Unlock()
				if cancel != nil {
					cancel()
				}
			}
			replies <- wire.SequencedMessage{Seq: seq, Msg: wire.Message{Type: wire.MsgCancel, RequestID: msg.RequestID}}
			continue
		}
		jctx, jcancel := context.WithCancel(connCtx)
		reqID := msg.RequestID
		cancelMu.Lock()
		cancels[reqID] = jcancel
		cancelMu.Unlock()
		finish := func() {
			cancelMu.Lock()
			delete(cancels, reqID)
			cancelMu.Unlock()
			jcancel()
		}
		class, deadlineMicros := wire.PeekQoS(msg.Type, msg.Body)
		trace := wire.PeekTrace(msg.Type, msg.Body)
		// Federation frames carry no trailer but sit on another edge's
		// client critical path (or carry the fleet's failure detector):
		// schedule them as interactive, or a sustained interactive stream
		// here would starve peer probes and gossip into timeout+backoff
		// and silently degrade the federation.
		if isFederationFrame(msg.Type) {
			class = wire.QoSInteractive
		}
		var deadline time.Time
		if deadlineMicros != 0 {
			deadline = time.UnixMicro(deadlineMicros)
		}
		// Per-tenant rationing runs before global admission: a request the
		// tenant's token bucket rejects never competes for queue room.
		// Federation frames ride another edge's client critical path and
		// are exempt — they are not this tenant's traffic to ration.
		if !isFederationFrame(msg.Type) && !tenants.Admit(tenant) {
			if hooks.onQuota != nil {
				hooks.onQuota(tenant)
			}
			obsv.observeTenantQuota(tenant)
			finish()
			m := quotaReply(msg.RequestID, tenant)
			obsv.request(tenant, class, msg, trace, m, 0)
			replies <- wire.SequencedMessage{Seq: seq, Msg: m}
			continue
		}
		shed, ok := sched.push(schedJob{
			seq: seq, msg: msg, mode: mode, ctx: jctx, finish: finish,
			class: class, deadline: deadline, tenant: tenant,
			admitted: time.Now(), trace: trace,
		})
		// Expired queued work evicted to make room answers in its own
		// reply slot; it never reaches a worker.
		for _, s := range shed {
			if hooks.onShed != nil {
				hooks.onShed()
			}
			s.finish()
			m := deadlineShedReply(s.msg.RequestID)
			obsv.request(s.tenant, s.class, s.msg, s.trace, m, time.Since(s.admitted))
			replies <- wire.SequencedMessage{Seq: s.seq, Msg: m}
		}
		if !ok {
			if hooks.onOverload != nil {
				hooks.onOverload()
			}
			finish()
			m := overloadReply(msg, workers+depth)
			obsv.request(tenant, class, msg, trace, m, 0)
			replies <- wire.SequencedMessage{Seq: seq, Msg: m}
		} else {
			if hooks.onAdmit != nil {
				hooks.onAdmit(tenant, class)
			}
			obsv.observeTenantAdmit(tenant, class)
		}
	}
	if ctx.Err() == nil {
		// The client went away on its own: abandon its in-flight work so
		// coalesced fetches it alone keeps alive can abort.
		connCancel()
	}
	// Membership dies with the connection: close the outbox so room
	// publishers stop targeting it, then leave every joined scene (the
	// last member out garbage-collects the room).
	outbox.close()
	if scenes != nil {
		scenes.Disconnect(connID)
	}
	sched.close()
	wg.Wait()
	close(replies)
	<-writerDone
}

// serveLoop accepts connections until ln closes or ctx is cancelled,
// handing each to handle; on shutdown it waits for every active
// connection pipeline to drain before returning.
func serveLoop(ctx context.Context, ln net.Listener, wrap ConnWrapper, handle func(ctx context.Context, conn net.Conn)) error {
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()
	var conns sync.WaitGroup
	defer conns.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if wrap != nil {
			conn = wrap(conn)
		}
		conns.Add(1)
		go func() {
			defer conns.Done()
			handle(ctx, conn)
		}()
	}
}

// CloudServer exposes a Cloud over TCP.
type CloudServer struct {
	Cloud *Cloud
	// Wrap shapes each accepted connection when non-nil.
	Wrap ConnWrapper
	// Workers / QueueDepth bound per-connection concurrency (defaults
	// DefaultWorkers / DefaultQueueDepth). One edge funnels all its
	// misses over a single multiplexed connection, so this is the knob
	// that lets those fetches actually execute in parallel cloud-side.
	Workers    int
	QueueDepth int
	// Batch, when > 1, lets a worker drain up to Batch compatible exec
	// requests from the scheduler and run them as one batched DNN pass;
	// BatchSlack bounds how long a best-effort batch head may wait for
	// the batch to fill (interactive heads never wait). See batch.go.
	Batch      int
	BatchSlack time.Duration
	// Tenants, when non-nil, authenticates tenants on the hello
	// handshake and meters their admission (token buckets) and
	// fair-share (DRR weights); nil is the open single-tenant policy.
	Tenants *TenantPolicy
	// Obs, when non-nil, feeds the live metrics plane (see NewServerObs).
	Obs *ServerObs

	sched schedCounters
}

// schedCounters aggregates one server's scheduler decisions across every
// connection pipeline it runs.
type schedCounters struct {
	admitted  [wire.NumQoSClasses]atomic.Uint64
	sheds     atomic.Uint64
	overloads atomic.Uint64
	quota     atomic.Uint64
	// batches counts multi-request batches executed; batched counts the
	// requests that rode them (size-1 batch-path dispatches count in
	// neither — they are serial work that found no companions).
	batches atomic.Uint64
	batched atomic.Uint64

	// Per-tenant admission ledger. Tenants appear lazily at their first
	// admitted (or quota-rejected) request; the hot path is one mutex
	// acquisition plus two map hits.
	mu      sync.Mutex
	tenants map[string]*tenantCounters
}

type tenantCounters struct {
	admitted [wire.NumQoSClasses]atomic.Uint64
	quota    atomic.Uint64
}

// TenantCounters is one tenant's admission ledger, as read by the stats
// surface.
type TenantCounters struct {
	Admitted        [wire.NumQoSClasses]uint64
	QuotaRejections uint64
}

func (c *schedCounters) tenant(t string) *tenantCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	tc := c.tenants[t]
	if tc == nil {
		if c.tenants == nil {
			c.tenants = make(map[string]*tenantCounters)
		}
		tc = &tenantCounters{}
		c.tenants[t] = tc
	}
	return tc
}

// tenantCounts snapshots the per-tenant ledger.
func (c *schedCounters) tenantCounts() map[string]TenantCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]TenantCounters, len(c.tenants))
	for t, tc := range c.tenants {
		var tv TenantCounters
		for i := range tv.Admitted {
			tv.Admitted[i] = tc.admitted[i].Load()
		}
		tv.QuotaRejections = tc.quota.Load()
		out[t] = tv
	}
	return out
}

func (c *schedCounters) hooks() pipelineHooks {
	return pipelineHooks{
		onAdmit: func(t string, q wire.QoS) {
			c.admitted[classIndex(q)].Add(1)
			c.tenant(t).admitted[classIndex(q)].Add(1)
		},
		onShed:     func() { c.sheds.Add(1) },
		onOverload: func() { c.overloads.Add(1) },
		onQuota: func(t string) {
			c.quota.Add(1)
			c.tenant(t).quota.Add(1)
		},
		onBatch: func(n int) {
			if n > 1 {
				c.batches.Add(1)
				c.batched.Add(uint64(n))
			}
		},
	}
}

// DeadlineSheds reports how many queued requests this server dropped —
// unexecuted — because their wall-clock deadline passed in the queue.
func (s *CloudServer) DeadlineSheds() uint64 { return s.sched.sheds.Load() }

// Overloads reports how many requests admission control rejected with
// CodeOverloaded.
func (s *CloudServer) Overloads() uint64 { return s.sched.overloads.Load() }

// Admitted reports how many requests entered the scheduler in the given
// service class.
func (s *CloudServer) Admitted(q wire.QoS) uint64 {
	return s.sched.admitted[classIndex(q)].Load()
}

// QuotaRejections reports how many requests per-tenant admission control
// rejected with CodeQuotaExceeded.
func (s *CloudServer) QuotaRejections() uint64 { return s.sched.quota.Load() }

// TenantCounts snapshots the per-tenant admission ledger.
func (s *CloudServer) TenantCounts() map[string]TenantCounters { return s.sched.tenantCounts() }

// Serve accepts connections until the listener is closed.
func (s *CloudServer) Serve(ln net.Listener) error {
	return s.ServeContext(context.Background(), ln)
}

// ServeContext accepts connections until the listener closes or ctx is
// cancelled; on cancellation it shuts down gracefully — in-flight
// requests drain, replies flush, connections close, then it returns nil.
func (s *CloudServer) ServeContext(ctx context.Context, ln net.Listener) error {
	return serveLoop(ctx, ln, s.Wrap, s.handle)
}

func (s *CloudServer) handle(ctx context.Context, conn net.Conn) {
	connPipeline(ctx, conn, s.Workers, s.QueueDepth, s.Tenants, func(jctx context.Context, msg wire.Message, _ Mode, _ string) wire.Message {
		return s.dispatch(jctx, msg)
	}, s.batchPlan(), s.sched.hooks(), s.Obs, nil)
}

// Batches reports how many multi-request batches this server executed;
// BatchedRequests reports how many requests those batches carried.
func (s *CloudServer) Batches() uint64         { return s.sched.batches.Load() }
func (s *CloudServer) BatchedRequests() uint64 { return s.sched.batched.Load() }

func (s *CloudServer) dispatch(ctx context.Context, msg wire.Message) wire.Message {
	fail := func(code uint16, format string, args ...any) wire.Message {
		body, _ := (wire.ErrorReply{Code: code, Msg: fmt.Sprintf(format, args...)}).Marshal()
		return wire.Message{Type: wire.MsgError, RequestID: msg.RequestID, Body: body}
	}
	switch msg.Type {
	case wire.MsgExec:
		decodeStart := time.Now()
		req, err := wire.UnmarshalExecRequest(msg.Body)
		s.Obs.observeDecode(time.Since(decodeStart))
		if err != nil {
			return fail(wire.CodeBadRequest, "bad exec: %v", err)
		}
		if req.Task != wire.TaskRecognize {
			return fail(wire.CodeBadRequest, "cloud exec supports recognition only, got %v", req.Task)
		}
		result, _, err := s.Cloud.Recognize(req.Payload)
		if err != nil {
			return fail(wire.CodeInternal, "recognize: %v", err)
		}
		if ctx.Err() != nil {
			// The edge abandoned the fetch mid-compute; a full reply would
			// only be dropped by its read loop, so answer small.
			return canceledReply(msg.RequestID)
		}
		body, _ := (wire.ExecReply{Source: wire.SourceCloud, Result: result}).Marshal()
		return wire.Message{Type: wire.MsgExecReply, RequestID: msg.RequestID, Body: body}
	case wire.MsgModelFetch:
		req, err := wire.UnmarshalModelFetch(msg.Body)
		if err != nil {
			return fail(wire.CodeBadRequest, "bad model fetch: %v", err)
		}
		data, _, err := s.Cloud.FetchModel(req.ModelID)
		if err != nil {
			return fail(wire.CodeUnknownModel, "%v", err)
		}
		if ctx.Err() != nil {
			return canceledReply(msg.RequestID)
		}
		body, _ := (wire.ModelReply{Format: wire.FormatCMF, Source: wire.SourceCloud, Data: data}).Marshal()
		return wire.Message{Type: wire.MsgModelReply, RequestID: msg.RequestID, Body: body}
	case wire.MsgPanoFetch:
		req, err := wire.UnmarshalPanoFetch(msg.Body)
		if err != nil {
			return fail(wire.CodeBadRequest, "bad pano fetch: %v", err)
		}
		data, _, err := s.Cloud.FetchPano(req.VideoID, int(req.FrameIndex))
		if err != nil {
			return fail(wire.CodeInternal, "pano: %v", err)
		}
		if ctx.Err() != nil {
			return canceledReply(msg.RequestID)
		}
		body, _ := (wire.PanoReply{Source: wire.SourceCloud, Data: data}).Marshal()
		return wire.Message{Type: wire.MsgPanoReply, RequestID: msg.RequestID, Body: body}
	case wire.MsgHello:
		return wire.Message{Type: wire.MsgHello, RequestID: msg.RequestID}
	default:
		return fail(wire.CodeBadRequest, "cloud cannot handle %v", msg.Type)
	}
}

// EdgeServer exposes an Edge over TCP, forwarding misses to a cloud
// address over a single multiplexed upstream connection. With peers
// configured (SetupFederation) the edge first asks the descriptor's home
// peer — a cheap edge-to-edge hop — before paying for the cloud.
type EdgeServer struct {
	Edge      *Edge
	CloudAddr string
	// WrapClient shapes accepted client connections; WrapCloud shapes
	// the upstream connection (the tc knobs of the paper's testbed).
	WrapClient ConnWrapper
	WrapCloud  ConnWrapper
	// WrapPeer shapes edge↔edge connections.
	WrapPeer ConnWrapper
	// Workers / QueueDepth bound per-connection concurrency (defaults
	// DefaultWorkers / DefaultQueueDepth); see connPipeline.
	Workers    int
	QueueDepth int
	// Batch / BatchSlack enable batched exec dispatch exactly as on
	// CloudServer; edge-side the batch members run concurrently so
	// identical descriptors coalesce and misses burst upstream together.
	Batch      int
	BatchSlack time.Duration
	// FetchTimeout bounds one cloud fetch end to end — upstream slot
	// wait, dialing, and the round trip (DefaultFetchTimeout when zero).
	// On expiry the upstream connection is torn down, failing every
	// pending fetch — and therefore every waiter coalesced behind one —
	// fast, and the next miss re-dials.
	FetchTimeout time.Duration
	// MaxUpstream caps concurrent fetches on the multiplexed cloud
	// connection (DefaultWorkers+DefaultQueueDepth when 0 — the cloud's
	// default per-connection admission budget). Edge-side fetch demand is
	// connections × Workers, which can exceed what the cloud will admit
	// on one connection; excess fetches queue here instead of being shed
	// upstream as hard overload errors. Raise it in lockstep with the
	// cloud's -workers/-queue.
	MaxUpstream int
	// Tenants, when non-nil, authenticates tenants on the hello
	// handshake and meters their admission (token buckets) and
	// fair-share (DRR weights); nil is the open single-tenant policy.
	Tenants *TenantPolicy
	// Obs, when non-nil, feeds the live metrics plane (see NewServerObs).
	Obs *ServerObs
	// Replication is how many ring owners each published key is copied
	// to (the federation's replication factor); 0 or 1 is home-only.
	// Read by SetupFederation and SetupGossip.
	Replication int
	// GossipInterval is the membership protocol period (the member
	// package's default when 0); MigrateRate caps background key
	// migration in keys/second (0 is unthrottled). Both only matter
	// after SetupGossip.
	GossipInterval time.Duration
	MigrateRate    int

	mu     sync.Mutex
	gate   *upstreamGate
	cloud  *link
	peers  map[string]*link
	scenes *scene.Registry
	gossip *gossipState

	cloudFetches atomic.Uint64
	sched        schedCounters
}

func (s *EdgeServer) fetchTimeout() time.Duration {
	if s.FetchTimeout > 0 {
		return s.FetchTimeout
	}
	return DefaultFetchTimeout
}

// CloudFetches reports how many upstream round trips this edge has
// issued — the denominator of coalescing: K concurrent misses on one
// descriptor should raise it by exactly 1.
func (s *EdgeServer) CloudFetches() uint64 { return s.cloudFetches.Load() }

// Overloads reports how many requests admission control has shed with
// CodeOverloaded.
func (s *EdgeServer) Overloads() uint64 { return s.sched.overloads.Load() }

// DeadlineSheds reports how many queued requests this edge dropped —
// unexecuted, no worker and no upstream fetch consumed — because their
// wall-clock deadline passed in the queue.
func (s *EdgeServer) DeadlineSheds() uint64 { return s.sched.sheds.Load() }

// Admitted reports how many requests entered the scheduler in the given
// service class.
func (s *EdgeServer) Admitted(q wire.QoS) uint64 {
	return s.sched.admitted[classIndex(q)].Load()
}

// QuotaRejections reports how many requests per-tenant admission control
// rejected with CodeQuotaExceeded.
func (s *EdgeServer) QuotaRejections() uint64 { return s.sched.quota.Load() }

// TenantCounts snapshots the per-tenant admission ledger.
func (s *EdgeServer) TenantCounts() map[string]TenantCounters { return s.sched.tenantCounts() }

// Link constants: the only ways the edge's two outbound link kinds
// differ (MuxClient, the third user, caps its dial at clientDialTimeout
// and never re-dials). cloudDialTimeout bounds establishing the upstream
// connection, and a lost cloud link is re-dialed by the very next miss —
// there is nowhere else to send it. peerTimeout bounds how long a miss
// waits for an unresponsive peer (dialing and the round trip together);
// peerBackoff is how long a failed peer is then left alone, so an
// unreachable edge degrades this one to single-edge behaviour instead of
// stalling every miss on dial timeouts.
const (
	cloudDialTimeout = 10 * time.Second
	peerTimeout      = 2 * time.Second
	peerBackoff      = 10 * time.Second
)

// edgeHello opens the edge's outbound links: completion-order replies,
// and no tenant claim — the edge runs as the far end's default tenant,
// since per-client tenancy is enforced here, not re-litigated per fetch.
var edgeHello = wire.Hello{
	Version: wire.HelloVersion,
	Mode:    wire.HelloModeCoIC,
	Flags:   wire.HelloFlagUnordered,
}

// peerLink returns the persistent link to a fellow edge, creating it on
// first use. Cache probes, publishes and membership gossip all share it,
// pipelined — so the failure detector exercises exactly the path data
// traffic needs alive, and a ping never waits behind a probe.
func (s *EdgeServer) peerLink(addr string) *link {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.peers == nil {
		s.peers = map[string]*link{}
	}
	pl := s.peers[addr]
	if pl == nil {
		pl = &link{
			addr: addr, name: "peer " + addr, wrap: s.WrapPeer, hello: edgeHello,
			dialCap: peerTimeout, backoff: peerBackoff, redial: true,
		}
		s.peers[addr] = pl
	}
	return pl
}

// SetupFederation joins this edge to a federation: self is this edge's
// advertised (dialable) address — its federation identity — and peerAddrs
// are the other members'. All members must name each other consistently,
// since the consistent-hash ring is built over exactly these strings and
// every edge must agree on each key's home. Call before Serve. It
// rejects membership mistakes (empty self, self listed as a peer,
// duplicate peers) as errors — these come straight from CLI flags.
func (s *EdgeServer) SetupFederation(self string, peerAddrs []string) error {
	if self == "" {
		return fmt.Errorf("core: federated edge needs its advertised self address")
	}
	seen := map[string]bool{self: true}
	for _, addr := range peerAddrs {
		if addr == self {
			return fmt.Errorf("core: federation peer list contains this edge itself (%s); list only the other members", self)
		}
		if seen[addr] {
			return fmt.Errorf("core: duplicate federation peer %s", addr)
		}
		seen[addr] = true
	}
	nodes := append([]string{self}, peerAddrs...)
	ring := cache.NewRing(nodes, 0)
	fed := cache.NewFederation(self, ring)
	fed.SetReplication(s.Replication)
	for _, addr := range peerAddrs {
		pl := s.peerLink(addr)
		fed.AddPeer(addr, cache.Peer{
			Probe:  s.probePeer(pl),
			Insert: s.insertPeer(pl),
		})
	}
	s.Edge.SetFederation(fed, true)
	return nil
}

// probePeer builds the TCP probe of one peer: a MsgPeerLookup round trip
// bounded by the requesting caller's context. Errors (unreachable peer,
// corrupt reply, expired caller) read as misses — the caller falls back
// to the cloud, degrading to single-edge behaviour. Cost is zero because
// TCP mode measures wall-clock time, not virtual time.
func (s *EdgeServer) probePeer(pl *link) cache.PeerProbe {
	return func(ctx context.Context, requester int, task uint8, desc feature.Descriptor) ([]byte, cache.LookupResult, time.Duration) {
		miss := cache.LookupResult{Outcome: cache.OutcomeMiss}
		body, err := (wire.PeerLookup{Task: wire.Task(task), Desc: desc}).Marshal()
		if err != nil {
			return nil, miss, 0
		}
		reply, err := pl.roundTrip(ctx, wire.Message{Type: wire.MsgPeerLookup, Body: body}, time.Now().Add(peerTimeout))
		if err != nil || reply.Type != wire.MsgPeerReply {
			return nil, miss, 0
		}
		pr, err := wire.UnmarshalPeerReply(reply.Body)
		if err != nil || pr.Outcome == wire.ProbeMiss {
			return nil, miss, 0
		}
		return pr.Result, cache.LookupResult{
			Outcome:  probeToOutcome(pr.Outcome),
			Distance: pr.Distance,
		}, 0
	}
}

// insertPeer builds the publish path to one peer: a MsgPeerInsert posted
// on the peer link — written and forgotten, its ack dropped by the read
// loop. The write runs on its own goroutine, keeping replication off the
// client's miss reply path (the result is already cached locally; the
// client must not wait out a peer dial or a shaped transfer), and is
// deliberately detached from the requesting context — the request that
// computed the value may be long gone. Publish failures are dropped
// silently — replication is best-effort.
func (s *EdgeServer) insertPeer(pl *link) cache.PeerInsert {
	return func(desc feature.Descriptor, value []byte, cost float64) {
		body, err := (wire.PeerInsert{Desc: desc, Cost: cost, Value: value}).Marshal()
		if err != nil {
			return
		}
		go pl.post(wire.Message{Type: wire.MsgPeerInsert, Body: body}, time.Now().Add(peerTimeout))
	}
}

// Serve accepts client connections until the listener is closed.
func (s *EdgeServer) Serve(ln net.Listener) error {
	return s.ServeContext(context.Background(), ln)
}

// ServeContext accepts client connections until the listener closes or
// ctx is cancelled; cancellation drains in-flight requests before
// returning nil (graceful shutdown). With gossip configured
// (SetupGossip) it also runs the membership protocol and the migration
// worker, and on cancellation performs the graceful decommission —
// drain home keys to ring successors, broadcast member-leave — before
// returning, so a SIGTERMed edge exits without losing the fleet's keys.
func (s *EdgeServer) ServeContext(ctx context.Context, ln net.Listener) error {
	if g := s.gossip; g != nil {
		gctx, gcancel := context.WithCancel(context.Background())
		defer gcancel()
		go g.agent.Run(gctx)
		go s.migrateLoop(gctx)
		// Decommission runs after serveLoop has drained in-flight work
		// but before gcancel (LIFO), while outbound transports still work.
		defer func() {
			if ctx.Err() != nil {
				s.Decommission()
			}
		}()
	}
	return serveLoop(ctx, ln, s.WrapClient, s.handle)
}

// roundTripCloud forwards one message upstream over the multiplexed
// cloud link and awaits its reply. One deadline of FetchTimeout covers
// the whole fetch — waiting for an upstream slot, dialing, and the round
// trip itself — so the caller (and any coalesced group behind it) is
// never wedged longer than the configured timeout; on expiry the link
// retires its connection, failing every other pending fetch fast too,
// and the next miss re-dials. There is no automatic retry. ctx aborts
// the fetch early: for a coalesced miss it is the flight context, which
// dies only when the last interested waiter departs
// (last-waiter-cancels), and its death withdraws the fetch and forwards
// the cancellation upstream. tenant is who the slot wait is charged to:
// the flight leader's tenant for coalesced misses, so the gate's fair
// share follows whoever's quota paid for the fetch.
func (s *EdgeServer) roundTripCloud(ctx context.Context, tenant string, msg wire.Message) (wire.Message, error) {
	s.mu.Lock()
	if s.cloud == nil {
		limit := s.MaxUpstream
		if limit <= 0 {
			limit = DefaultWorkers + DefaultQueueDepth
		}
		// The gate caps concurrent round trips so the edge never exceeds
		// the cloud's per-connection admission budget (which would surface
		// as hard overload errors to coalesced waiters), and partitions
		// the slots across tenants by weighted share — the upstream link
		// is the one bottleneck every tenant's misses meet, and the
		// per-connection scheduler cannot see across connections.
		s.gate = newUpstreamGate(limit, s.Tenants)
		s.cloud = &link{
			addr: s.CloudAddr, name: "cloud", wrap: s.WrapCloud, hello: edgeHello,
			dialCap: cloudDialTimeout, redial: true,
		}
	}
	gate, cloud := s.gate, s.cloud
	s.mu.Unlock()
	s.cloudFetches.Add(1)

	timeout := s.fetchTimeout()
	deadline := time.Now().Add(timeout)
	slotTimer := time.NewTimer(timeout)
	defer slotTimer.Stop()
	if err := gate.acquire(ctx, tenant, slotTimer.C); err != nil {
		if errors.Is(err, errUpstreamSaturated) {
			return wire.Message{}, fmt.Errorf("core: upstream saturated for %v (%d fetches in flight)", timeout, gate.slots)
		}
		return wire.Message{}, err
	}
	defer gate.release(tenant)
	return cloud.roundTrip(ctx, msg, deadline)
}

func (s *EdgeServer) handle(ctx context.Context, conn net.Conn) {
	connPipeline(ctx, conn, s.Workers, s.QueueDepth, s.Tenants, s.dispatch, s.batchPlan(), s.sched.hooks(), s.Obs, s.sceneRegistry())
}

// sceneRegistry lazily builds the edge's shared-scene room registry —
// every client connection shares one, which is what makes rooms span
// connections.
func (s *EdgeServer) sceneRegistry() *scene.Registry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.scenes == nil {
		s.scenes = scene.NewRegistry()
	}
	return s.scenes
}

// SceneStats reports the edge's live scene rooms and members plus the
// publish total, for the stats surface and the metrics bridges.
func (s *EdgeServer) SceneStats() (rooms, members int, publishes uint64) {
	s.mu.Lock()
	reg := s.scenes
	s.mu.Unlock()
	if reg == nil {
		return 0, 0, 0
	}
	return reg.Stats()
}

// Batches reports how many multi-request batches this server executed;
// BatchedRequests reports how many requests those batches carried.
func (s *EdgeServer) Batches() uint64 { return s.sched.batches.Load() }
func (s *EdgeServer) BatchedRequests() uint64 {
	return s.sched.batched.Load()
}

// edgeError carries a protocol error code through the in-flight table so
// every coalesced waiter replies with the leader's true failure.
type edgeError struct {
	code uint16
	msg  string
}

func (e *edgeError) Error() string { return e.msg }

// fetchCoalesced resolves a cache miss: concurrent misses on the same (or
// similar, for vector descriptors) descriptor share one cloud round trip
// through the edge's in-flight table. The leader inserts the result into
// the cache and reports SourceCloud; waiters that joined its flight
// report SourceEdge (the edge held the result for them). A failed fetch
// propagates its error to every waiter and leaves the descriptor clean
// for the next attempt. The fetch runs under the flight context: it
// survives any individual waiter's departure (ctx here only detaches the
// caller) and aborts — withdrawing the upstream round trip — when the
// last waiter is gone.
func (s *EdgeServer) fetchCoalesced(ctx context.Context, tenant string, desc feature.Descriptor, msg wire.Message, want wire.MsgType, extract func(wire.Message) ([]byte, error)) ([]byte, uint8, error) {
	start := time.Now()
	defer func() { s.Obs.observeCloudFetch(time.Since(start)) }()
	val, leader, err := s.Edge.Inflight().Do(ctx, desc, func(fctx context.Context) ([]byte, error) {
		reply, err := s.roundTripCloud(fctx, tenant, msg)
		if err != nil {
			if isCanceled(err) {
				return nil, err
			}
			return nil, &edgeError{code: wire.CodeUnavailable, msg: fmt.Sprintf("cloud: %v", err)}
		}
		if reply.Type == wire.MsgError {
			if er, uerr := wire.UnmarshalErrorReply(reply.Body); uerr == nil {
				return nil, &edgeError{code: er.Code, msg: er.Msg}
			}
			return nil, &edgeError{code: wire.CodeInternal, msg: "malformed cloud error reply"}
		}
		if reply.Type != want {
			return nil, &edgeError{code: wire.CodeInternal, msg: fmt.Sprintf("cloud replied %v, want %v", reply.Type, want)}
		}
		data, err := extract(reply)
		if err != nil {
			return nil, &edgeError{code: wire.CodeInternal, msg: fmt.Sprintf("corrupt cloud reply: %v", err)}
		}
		// The flight's leader inserts on behalf of its own tenant: the
		// fetch was charged to that tenant's quota, so the resident bytes
		// land on its cache share too.
		s.Edge.InsertTenant(tenant, desc, data, 1)
		return data, nil
	})
	src := wire.SourceCloud
	if !leader {
		src = wire.SourceEdge
	}
	return val, src, err
}

func (s *EdgeServer) dispatch(ctx context.Context, msg wire.Message, mode Mode, tenant string) wire.Message {
	fail := func(code uint16, format string, args ...any) wire.Message {
		body, _ := (wire.ErrorReply{Code: code, Msg: fmt.Sprintf(format, args...)}).Marshal()
		return wire.Message{Type: wire.MsgError, RequestID: msg.RequestID, Body: body}
	}
	failErr := func(err error) wire.Message {
		if isCanceled(err) {
			return canceledReply(msg.RequestID)
		}
		var ee *edgeError
		if errors.As(err, &ee) {
			return fail(ee.code, "%s", ee.msg)
		}
		return fail(wire.CodeUnavailable, "cloud: %v", err)
	}
	// forward is the origin-mode path: a plain upstream round trip with
	// no cache interaction and no coalescing (origin requests carry no
	// meaningful descriptor to coalesce on).
	forward := func() wire.Message {
		reply, err := s.roundTripCloud(ctx, tenant, msg)
		if err != nil {
			return failErr(err)
		}
		reply.RequestID = msg.RequestID
		return reply
	}

	switch msg.Type {
	case wire.MsgExec:
		decodeStart := time.Now()
		req, err := wire.UnmarshalExecRequest(msg.Body)
		s.Obs.observeDecode(time.Since(decodeStart))
		if err != nil {
			return fail(wire.CodeBadRequest, "bad exec: %v", err)
		}
		if mode != ModeCoIC {
			return forward()
		}
		lookupStart := time.Now()
		lr := s.Edge.LookupTenant(ctx, tenant, req.Task, req.Desc)
		s.Obs.observeCacheLookup(time.Since(lookupStart))
		if lr.Hit() {
			body, _ := (wire.ExecReply{Source: wire.SourceEdge, Result: lr.Value}).Marshal()
			return wire.Message{Type: wire.MsgExecReply, RequestID: msg.RequestID, Body: body}
		}
		result, src, err := s.fetchCoalesced(ctx, tenant, req.Desc, msg, wire.MsgExecReply, func(r wire.Message) ([]byte, error) {
			er, err := wire.UnmarshalExecReply(r.Body)
			if err != nil {
				return nil, err
			}
			return er.Result, nil
		})
		if err != nil {
			return failErr(err)
		}
		body, _ := (wire.ExecReply{Source: src, Result: result}).Marshal()
		return wire.Message{Type: wire.MsgExecReply, RequestID: msg.RequestID, Body: body}

	case wire.MsgModelFetch:
		decodeStart := time.Now()
		req, err := wire.UnmarshalModelFetch(msg.Body)
		s.Obs.observeDecode(time.Since(decodeStart))
		if err != nil {
			return fail(wire.CodeBadRequest, "bad model fetch: %v", err)
		}
		if mode != ModeCoIC {
			return forward()
		}
		desc := ModelDescriptor(req.ModelID)
		lookupStart := time.Now()
		lr := s.Edge.LookupTenant(ctx, tenant, wire.TaskRender, desc)
		s.Obs.observeCacheLookup(time.Since(lookupStart))
		if lr.Hit() {
			body, _ := (wire.ModelReply{Format: wire.FormatCMF, Source: wire.SourceEdge, Data: lr.Value}).Marshal()
			return wire.Message{Type: wire.MsgModelReply, RequestID: msg.RequestID, Body: body}
		}
		data, src, err := s.fetchCoalesced(ctx, tenant, desc, msg, wire.MsgModelReply, func(r wire.Message) ([]byte, error) {
			mr, err := wire.UnmarshalModelReply(r.Body)
			if err != nil {
				return nil, err
			}
			return mr.Data, nil
		})
		if err != nil {
			return failErr(err)
		}
		body, _ := (wire.ModelReply{Format: wire.FormatCMF, Source: src, Data: data}).Marshal()
		return wire.Message{Type: wire.MsgModelReply, RequestID: msg.RequestID, Body: body}

	case wire.MsgPanoFetch:
		decodeStart := time.Now()
		req, err := wire.UnmarshalPanoFetch(msg.Body)
		s.Obs.observeDecode(time.Since(decodeStart))
		if err != nil {
			return fail(wire.CodeBadRequest, "bad pano fetch: %v", err)
		}
		if mode != ModeCoIC {
			return forward()
		}
		desc := PanoDescriptor(req.VideoID, int(req.FrameIndex))
		lookupStart := time.Now()
		lr := s.Edge.LookupTenant(ctx, tenant, wire.TaskPano, desc)
		s.Obs.observeCacheLookup(time.Since(lookupStart))
		if lr.Hit() {
			body, _ := (wire.PanoReply{Source: wire.SourceEdge, Data: lr.Value}).Marshal()
			return wire.Message{Type: wire.MsgPanoReply, RequestID: msg.RequestID, Body: body}
		}
		data, src, err := s.fetchCoalesced(ctx, tenant, desc, msg, wire.MsgPanoReply, func(r wire.Message) ([]byte, error) {
			pr, err := wire.UnmarshalPanoReply(r.Body)
			if err != nil {
				return nil, err
			}
			return pr.Data, nil
		})
		if err != nil {
			return failErr(err)
		}
		body, _ := (wire.PanoReply{Source: src, Data: data}).Marshal()
		return wire.Message{Type: wire.MsgPanoReply, RequestID: msg.RequestID, Body: body}

	case wire.MsgPeerLookup:
		// A federated peer probing this edge: answer from the local cache
		// only — never our own peers, never the cloud — so federated
		// lookups stay single-hop and cannot loop.
		req, err := wire.UnmarshalPeerLookup(msg.Body)
		if err != nil {
			return fail(wire.CodeBadRequest, "bad peer lookup: %v", err)
		}
		v, res := s.Edge.PeerProbe(-1, req.Desc)
		body, _ := (wire.PeerReply{
			Outcome:  outcomeToProbe(res.Outcome),
			Distance: res.Distance,
			Result:   v,
		}).Marshal()
		return wire.Message{Type: wire.MsgPeerReply, RequestID: msg.RequestID, Body: body}

	case wire.MsgPeerInsert:
		// A federated peer publishing a result whose consistent-hash home
		// is this edge. The ack is an empty PeerReply.
		req, err := wire.UnmarshalPeerInsert(msg.Body)
		if err != nil {
			return fail(wire.CodeBadRequest, "bad peer insert: %v", err)
		}
		s.Edge.AdoptRemote(req.Desc, req.Value, req.Cost)
		body, _ := (wire.PeerReply{Outcome: wire.ProbeMiss}).Marshal()
		return wire.Message{Type: wire.MsgPeerReply, RequestID: msg.RequestID, Body: body}

	case wire.MsgMemberPing, wire.MsgMemberGossip, wire.MsgMemberLeave:
		// A fleet member gossiping its view (the kinds differ only in
		// intent — a leave is just the sender marked dead). Merge it and
		// ack with ours: every exchange is bidirectional anti-entropy.
		g := s.gossip
		if g == nil {
			return fail(wire.CodeBadRequest, "membership gossip not enabled on this edge")
		}
		req, err := wire.UnmarshalMembership(msg.Body)
		if err != nil {
			return fail(wire.CodeBadRequest, "bad membership frame: %v", err)
		}
		ack := g.agent.HandleDigest(digestFromWire(req))
		body, err := digestToWire(ack).Marshal()
		if err != nil {
			return fail(wire.CodeInternal, "membership ack: %v", err)
		}
		return wire.Message{Type: wire.MsgMemberAck, RequestID: msg.RequestID, Body: body}

	default:
		return fail(wire.CodeBadRequest, "edge cannot handle %v", msg.Type)
	}
}
