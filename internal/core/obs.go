package core

import (
	"sync"
	"time"

	"github.com/edge-immersion/coic/internal/obs"
	"github.com/edge-immersion/coic/internal/wire"
)

// Pipeline stages instrumented with latency histograms. Each maps to one
// coic_stage_duration_seconds{stage=...} series.
const (
	StageDecode      = "decode"       // request body unmarshal
	StageCacheLookup = "cache_lookup" // edge cache probe (local + peers)
	StageSchedWait   = "sched_wait"   // admission to worker pickup
	StageExec        = "exec"         // worker dispatch end to end
	StageCloudFetch  = "cloud_fetch"  // upstream round trip (incl. coalesced wait)
	StageReplyWrite  = "reply_write"  // frame write back to the client
	StageSceneFanout = "scene_fanout" // scene publish to push frame on a member's socket
)

// Request outcomes counted in coic_requests_total{tenant,class,outcome}.
const (
	outcomeOK = iota
	outcomeError
	outcomeCanceled
	outcomeDeadline
	outcomeOverloaded
	outcomeQuota
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "error", "canceled", "deadline", "overloaded", "quota"}

// ServerObs is one server's live instrumentation: per-stage latency
// histograms, per-class request outcome counters, connection gauges and
// the slow-request ring. All methods are nil-safe — a server built
// without an observability registry pays only a nil check per call site,
// which is what keeps the serving hot path benchmark-neutral.
type ServerObs struct {
	decode      *obs.Histogram
	cacheLookup *obs.Histogram
	schedWait   *obs.Histogram
	exec        *obs.Histogram
	cloudFetch  *obs.Histogram
	replyWrite  *obs.Histogram
	sceneFanout *obs.Histogram

	// Per-tenant counter sets, registered lazily on a tenant's first
	// request (tenants arrive at runtime via the hello handshake, so the
	// full label space is not knowable at construction). DefaultTenant is
	// pre-registered so tenantless deployments expose every family from
	// the first scrape. reg is retained only for this lazy registration.
	reg      *obs.Registry
	tenantMu sync.RWMutex
	byTenant map[string]*tenantObs

	connsActive *obs.Gauge
	connsTotal  *obs.Counter

	reqLog *obs.RequestLog
}

// tenantObs is one tenant's request outcome counters. Its scheduler
// admissions and quota rejections are not counted here: bridgeTenant
// exposes the server ledger's own counters.
type tenantObs struct {
	requests [wire.NumQoSClasses][numOutcomes]*obs.Counter
}

// NewServerObs registers the serving-path metric families on reg and
// returns the handle the pipeline observes through. rlog may be nil to
// skip slow-request recording.
func NewServerObs(reg *obs.Registry, rlog *obs.RequestLog) *ServerObs {
	o := &ServerObs{reqLog: rlog}
	stage := func(name string) *obs.Histogram {
		return reg.Histogram("coic_stage_duration_seconds",
			"Serving-pipeline stage latency in seconds.", nil, obs.L("stage", name))
	}
	o.decode = stage(StageDecode)
	o.cacheLookup = stage(StageCacheLookup)
	o.schedWait = stage(StageSchedWait)
	o.exec = stage(StageExec)
	o.cloudFetch = stage(StageCloudFetch)
	o.replyWrite = stage(StageReplyWrite)
	o.sceneFanout = stage(StageSceneFanout)
	o.reg = reg
	o.byTenant = map[string]*tenantObs{}
	o.registerTenant(DefaultTenant)
	o.connsActive = reg.Gauge("coic_connections_active",
		"Client connections currently being served.")
	o.connsTotal = reg.Counter("coic_connections_total",
		"Client connections accepted since start.")
	return o
}

// registerTenant builds (and registers) tenant's counter set. Callers
// must not hold tenantMu; racing registrations converge because the
// registry itself is find-or-create.
func (o *ServerObs) registerTenant(tenant string) *tenantObs {
	t := &tenantObs{}
	for c := 0; c < wire.NumQoSClasses; c++ {
		for i, name := range outcomeNames {
			t.requests[c][i] = o.reg.Counter("coic_requests_total",
				"Requests completed, by tenant, service class and outcome.",
				obs.L("tenant", tenant), obs.L("class", wire.QoS(c).String()), obs.L("outcome", name))
		}
	}
	o.tenantMu.Lock()
	defer o.tenantMu.Unlock()
	if existing := o.byTenant[tenant]; existing != nil {
		return existing
	}
	o.byTenant[tenant] = t
	return t
}

// tenant returns tenant's counter set, registering it on first sight.
func (o *ServerObs) tenant(tenant string) *tenantObs {
	o.tenantMu.RLock()
	t := o.byTenant[tenant]
	o.tenantMu.RUnlock()
	if t != nil {
		return t
	}
	return o.registerTenant(tenant)
}

// bridgeTenant exposes one tenant's ledger counters as scrape-time
// series: they are read on demand rather than double counted on the hot
// path, so /metrics and Stats cannot disagree.
func (o *ServerObs) bridgeTenant(tenant string, tc *tenantCounters) {
	if o == nil {
		return
	}
	for c := range tc.admitted {
		admitted := &tc.admitted[c]
		o.reg.CounterFunc("coic_tenant_admitted_total",
			"Requests admitted to the scheduler, by tenant and service class.",
			func() float64 { return float64(admitted.Load()) },
			obs.L("tenant", tenant), obs.L("class", wire.QoS(c).String()))
	}
	o.reg.CounterFunc("coic_tenant_quota_rejections_total",
		"Requests rejected by per-tenant admission quota, by tenant.",
		func() float64 { return float64(tc.quota.Load()) },
		obs.L("tenant", tenant))
}

func (o *ServerObs) connOpened() {
	if o == nil {
		return
	}
	o.connsActive.Inc()
	o.connsTotal.Inc()
}

func (o *ServerObs) connClosed() {
	if o == nil {
		return
	}
	o.connsActive.Dec()
}

func (o *ServerObs) observeDecode(d time.Duration) {
	if o != nil {
		o.decode.Observe(d)
	}
}

func (o *ServerObs) observeCacheLookup(d time.Duration) {
	if o != nil {
		o.cacheLookup.Observe(d)
	}
}

func (o *ServerObs) observeSchedWait(d time.Duration) {
	if o != nil {
		o.schedWait.Observe(d)
	}
}

func (o *ServerObs) observeExec(d time.Duration) {
	if o != nil {
		o.exec.Observe(d)
	}
}

func (o *ServerObs) observeCloudFetch(d time.Duration) {
	if o != nil {
		o.cloudFetch.Observe(d)
	}
}

func (o *ServerObs) observeReplyWrite(d time.Duration) {
	if o != nil {
		o.replyWrite.Observe(d)
	}
}

// observeSceneFanout records one pushed scene event's fan-out delay: the
// time from the publisher's worker handing the event to a member's
// outbox until the frame is on that member's socket.
func (o *ServerObs) observeSceneFanout(d time.Duration) {
	if o != nil {
		o.sceneFanout.Observe(d)
	}
}

// outcomeOf classifies a reply frame: non-error replies are ok, error
// replies map by code. Unmarshal runs only on the (rare) error path.
func outcomeOf(m wire.Message) int {
	if m.Type != wire.MsgError {
		return outcomeOK
	}
	er, err := wire.UnmarshalErrorReply(m.Body)
	if err != nil {
		return outcomeError
	}
	switch er.Code {
	case wire.CodeCanceled:
		return outcomeCanceled
	case wire.CodeDeadlineExceeded:
		return outcomeDeadline
	case wire.CodeOverloaded:
		return outcomeOverloaded
	case wire.CodeQuotaExceeded:
		return outcomeQuota
	default:
		return outcomeError
	}
}

// request accounts one finished request: outcome counter plus the
// slow-request ring (which itself decides whether the event qualifies).
// It is called wherever a reply takes a request's slot — the worker for
// dispatched work, the reader for sheds and overload rejections.
func (o *ServerObs) request(tenant string, class wire.QoS, msg wire.Message, trace uint64, reply wire.Message, dur time.Duration) {
	if o == nil {
		return
	}
	out := outcomeOf(reply)
	o.tenant(tenant).requests[classIndex(class)][out].Inc()
	if o.reqLog != nil {
		o.reqLog.Record(obs.RequestEvent{
			TraceID:  trace,
			ReqID:    msg.RequestID,
			Type:     msg.Type.String(),
			Tenant:   tenant,
			Class:    class.String(),
			Outcome:  outcomeNames[out],
			Duration: dur,
		})
	}
}
