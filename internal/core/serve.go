package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/edge-immersion/coic/internal/scene"
	"github.com/edge-immersion/coic/internal/wire"
)

// The serving files run the same CoIC protocol over real TCP sockets: the
// deployment mode of the cmd/ daemons, where tc-style shaping comes from
// netsim.Shaper and latency is wall-clock. The virtual-time Session is
// for experiments; these servers are for running the system. This file is
// what a cloud and an edge share (ServerCore); conn.go serves one
// connection, pipelined; cloud_server.go and edge_server.go are the two
// tiers' dispatchers; upstream.go is the edge's outbound links.
//
// Concurrent cache misses on the same (or similar) descriptor coalesce
// into one upstream fetch via the edge's in-flight table, and the
// upstream connection itself is multiplexed, so a burst of distinct
// misses overlaps its cloud round trips instead of serialising them.
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
// fails its coalesced waiters instead of wedging them. DefaultBatchSlack
// is the ServerCore.BatchSlack every server built by the root package
// runs with.
const (
	DefaultWorkers      = 8
	DefaultQueueDepth   = 32
	DefaultFetchTimeout = 15 * time.Second
	DefaultBatchSlack   = 2 * time.Millisecond
)

// ConnWrapper optionally wraps accepted/dialed connections (e.g. with a
// netsim.Shaper); nil means unwrapped.
type ConnWrapper func(net.Conn) net.Conn

// isCanceled reports whether err is a context cancellation/expiry.
func isCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// errorReply builds the error frame that takes request reqID's place in
// the connection's reply order. The text can echo request input (a model
// ID may be 65535 bytes by itself), so it is cut to what ErrorReply's u16
// length prefix can carry: the code is what peers act on, and a reply the
// encoder refused would reach them as an empty, malformed error body.
func errorReply(reqID uint64, code uint16, format string, args ...any) wire.Message {
	text := fmt.Sprintf(format, args...)
	if len(text) > math.MaxUint16 {
		text = text[:math.MaxUint16]
	}
	body, _ := (wire.ErrorReply{Code: code, Msg: text}).Marshal() // cannot fail: text fits its prefix
	return wire.Message{Type: wire.MsgError, RequestID: reqID, Body: body}
}

// tier is what differs between the two servers behind the shared core:
// how one admitted request is answered, and how a drained batch of live
// exec requests is (one reply per job, in order). mode and tenant are the
// connection's, as of the request's admission.
type tier interface {
	dispatch(ctx context.Context, msg wire.Message, mode Mode, tenant string) reply
	runBatch(jobs []schedJob) []reply
}

// ServerCore is what CloudServer and EdgeServer have in common: the
// per-connection serving configuration, the accept loop, and the one
// ledger of admission decisions that both Stats and /metrics read.
type ServerCore struct {
	// Workers / QueueDepth bound per-connection concurrency (defaults
	// DefaultWorkers / DefaultQueueDepth); see conn. Cloud-side, one edge
	// funnels all its misses over a single multiplexed connection, so
	// Workers is the knob that lets those fetches actually execute in
	// parallel.
	Workers    int
	QueueDepth int
	// Batch, when > 1, lets a worker drain up to Batch compatible exec
	// requests from the scheduler and run them as one batch — cloud-side
	// one batched DNN pass; edge-side the members run concurrently so
	// identical descriptors coalesce and misses burst upstream together.
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

	// frames observes the pooled request frames of this server's
	// connections, replyBodies the pooled reply bodies.
	frames, replyBodies frameHooks

	// The ledger: this server's scheduler decisions across every
	// connection it runs, read by Stats through the accessors below and
	// by /metrics through scrape-time bridges.
	admitted  [wire.NumQoSClasses]atomic.Uint64
	sheds     atomic.Uint64
	overloads atomic.Uint64
	quota     atomic.Uint64
	// batches counts multi-request batches executed; batched counts the
	// requests that rode them (size-1 batch-path dispatches count in
	// neither — they are serial work that found no companions).
	batches atomic.Uint64
	batched atomic.Uint64

	// Per-tenant ledger: one mutex acquisition plus a map hit per count.
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

// tenantLedger returns tenant's counters, creating — and bridging to the
// metrics plane — them at first sight.
func (s *ServerCore) tenantLedger(tenant string) *tenantCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	tc := s.tenants[tenant]
	if tc == nil {
		if s.tenants == nil {
			s.tenants = make(map[string]*tenantCounters)
		}
		tc = &tenantCounters{}
		s.tenants[tenant] = tc
		s.Obs.bridgeTenant(tenant, tc)
	}
	return tc
}

func (s *ServerCore) countAdmit(tenant string, q wire.QoS) {
	s.admitted[classIndex(q)].Add(1)
	s.tenantLedger(tenant).admitted[classIndex(q)].Add(1)
}

func (s *ServerCore) countQuota(tenant string) {
	s.quota.Add(1)
	s.tenantLedger(tenant).quota.Add(1)
}

// DeadlineSheds reports how many queued requests this server dropped —
// unexecuted, no worker and no upstream fetch consumed — because their
// wall-clock deadline passed in the queue.
func (s *ServerCore) DeadlineSheds() uint64 { return s.sheds.Load() }

// Overloads reports how many requests admission control rejected with
// CodeOverloaded.
func (s *ServerCore) Overloads() uint64 { return s.overloads.Load() }

// Admitted reports how many requests entered the scheduler in the given
// service class.
func (s *ServerCore) Admitted(q wire.QoS) uint64 { return s.admitted[classIndex(q)].Load() }

// QuotaRejections reports how many requests per-tenant admission control
// rejected with CodeQuotaExceeded.
func (s *ServerCore) QuotaRejections() uint64 { return s.quota.Load() }

// Batches reports how many multi-request batches this server executed;
// BatchedRequests reports how many requests those batches carried.
func (s *ServerCore) Batches() uint64         { return s.batches.Load() }
func (s *ServerCore) BatchedRequests() uint64 { return s.batched.Load() }

// TenantCounts snapshots the per-tenant admission ledger: every tenant
// that has had a request admitted or quota-rejected.
func (s *ServerCore) TenantCounts() map[string]TenantCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]TenantCounters, len(s.tenants))
	for t, tc := range s.tenants {
		var tv TenantCounters
		for i := range tv.Admitted {
			tv.Admitted[i] = tc.admitted[i].Load()
		}
		tv.QuotaRejections = tc.quota.Load()
		if tv != (TenantCounters{}) { // the default tenant is bridged before its first request
			out[t] = tv
		}
	}
	return out
}

// serve accepts connections until ln closes or ctx is cancelled, serving
// each through t (and scenes, when this server hosts any); on shutdown it
// waits for every active connection to drain before returning.
func (s *ServerCore) serve(ctx context.Context, ln net.Listener, wrap ConnWrapper, t tier, scenes *scene.Registry) error {
	// Tenantless deployments expose every metric family from the first
	// scrape, not the first request.
	s.tenantLedger(DefaultTenant)
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()
	var conns sync.WaitGroup
	defer conns.Wait()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if wrap != nil {
			nc = wrap(nc)
		}
		conns.Add(1)
		go func() {
			defer conns.Done()
			s.newConn(nc, t, scenes).serve(ctx)
		}()
	}
}
