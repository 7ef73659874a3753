package coic

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/edge-immersion/coic/internal/core"
	"github.com/edge-immersion/coic/internal/obs"
)

// This file is the v2 deployment surface: edge and cloud servers built
// from functional options and driven by a context —
// NewEdgeServer(opts...).Serve(ctx) — replacing the positional
// ServeEdgeWith/ServeEdgeFederated/ServeCloudWith sprawl. Cancelling the
// serve context shuts the server down gracefully: the listener closes,
// in-flight requests drain, replies flush, connections close, Serve
// returns nil.

// ServerOption configures a Server built by NewEdgeServer or
// NewCloudServer.
type ServerOption func(*serverConfig) error

type serverConfig struct {
	listener net.Listener
	params   Params

	cloudAddr    string
	cloudShape   ShapeSpec
	self         string
	peers        []string
	gossip       bool
	seeds        []string
	replication  int
	workers      int
	queueDepth   int
	fetchTimeout time.Duration
	maxUpstream  int

	slowThreshold time.Duration
	tenants       map[string]TenantConfig

	// edgeOnly names edge-specific options applied to a cloud server, an
	// error surfaced at Serve.
	edgeOnly []string
}

func (c *serverConfig) markEdgeOnly(name string) { c.edgeOnly = append(c.edgeOnly, name) }

// WithListener is the listener the server serves on; Serve fails
// without one. The caller binds it, so it holds the port before serving.
func WithListener(ln net.Listener) ServerOption {
	return func(c *serverConfig) error { c.listener = ln; return nil }
}

// WithServeParams overrides the reproduction parameters the server runs
// with (DefaultParams() otherwise).
func WithServeParams(p Params) ServerOption {
	return func(c *serverConfig) error { c.params = p; return nil }
}

// WithCloud points an edge at the cloud tier it forwards misses to
// (default "localhost:9090"). Edge servers only.
func WithCloud(addr string) ServerOption {
	return func(c *serverConfig) error { c.markEdgeOnly("WithCloud"); c.cloudAddr = addr; return nil }
}

// WithCloudShape conditions the edge→cloud uplink with a tc-style spec
// (the B_E→C knob). Edge servers only; the spec is validated at Serve.
func WithCloudShape(spec ShapeSpec) ServerOption {
	return func(c *serverConfig) error { c.markEdgeOnly("WithCloudShape"); c.cloudShape = spec; return nil }
}

// WithFederation joins the edge to a cache federation: self is this
// edge's advertised, dialable address — its federation identity, which
// must appear verbatim in every peer's peer list — and peers are the
// other members. Edge servers only.
func WithFederation(self string, peers ...string) ServerOption {
	return func(c *serverConfig) error {
		c.markEdgeOnly("WithFederation")
		c.self = self
		c.peers = append([]string(nil), peers...)
		return nil
	}
}

// WithGossip joins the edge to a dynamically-membered federation: self
// is this edge's advertised, dialable address — its gossip identity and
// ring position — and seeds are addresses contacted for the initial join
// (any live member works; listing self is fine, it is skipped). Unlike
// WithFederation the fleet is discovered, not declared: members learn of
// joins, failures and graceful leaves via gossip, rebuild the
// consistent-hash ring on every change, and migrate cached keys whose
// ownership moved. A seed node boots with no seeds and waits to be
// found. Mutually exclusive with WithFederation. Edge servers only.
func WithGossip(self string, seeds ...string) ServerOption {
	return func(c *serverConfig) error {
		c.markEdgeOnly("WithGossip")
		c.self = self
		c.gossip = true
		c.seeds = append([]string(nil), seeds...)
		return nil
	}
}

// WithReplication sets the federation's replication factor: every
// published cache entry is copied to the first rf owners on the ring, so
// one member's failure leaves rf-1 live replicas (reads fall over to
// them, and read-repair restores the home once it changes). 0 or 1 is
// home-only. Applies to both WithFederation and WithGossip topologies.
// Edge servers only.
func WithReplication(rf int) ServerOption {
	return func(c *serverConfig) error {
		c.markEdgeOnly("WithReplication")
		c.replication = rf
		return nil
	}
}

// WithWorkers bounds concurrent request processing per connection
// (core.DefaultWorkers when unset).
func WithWorkers(n int) ServerOption {
	return func(c *serverConfig) error { c.workers = n; return nil }
}

// WithQueueDepth bounds requests buffered awaiting a worker before the
// server sheds load with an overloaded error (core.DefaultQueueDepth
// when unset).
func WithQueueDepth(n int) ServerOption {
	return func(c *serverConfig) error { c.queueDepth = n; return nil }
}

// WithFetchTimeout bounds one edge→cloud fetch end to end, failing any
// coalesced waiters fast when the cloud hangs. Edge servers only.
func WithFetchTimeout(d time.Duration) ServerOption {
	return func(c *serverConfig) error { c.markEdgeOnly("WithFetchTimeout"); c.fetchTimeout = d; return nil }
}

// WithMaxUpstream caps concurrent fetches on the edge's multiplexed
// cloud connection; raise it in lockstep with the cloud's workers/queue.
// Edge servers only.
func WithMaxUpstream(n int) ServerOption {
	return func(c *serverConfig) error { c.markEdgeOnly("WithMaxUpstream"); c.maxUpstream = n; return nil }
}

// DefaultTenant is the tenant identity of every connection that does
// not authenticate an explicit one, such as tenantless NewClient dials.
// Per-tenant maps (ServerStats, SystemStats, metric labels) file their
// traffic under this name.
const DefaultTenant = core.DefaultTenant

// TenantConfig describes one tenant's share of a server for
// WithTenantQuota. The zero value means "no limits" — no token
// required, unlimited admission, weight 1, unbounded cache share —
// which is exactly what tenants without any configuration get, so
// rationing one tenant never locks the others out.
type TenantConfig struct {
	// Token, when nonempty, is the shared secret the tenant's clients
	// must present via WithTenant. Tenants without a token authenticate
	// by name alone.
	Token string
	// Rate is the sustained admission rate in requests per second; 0
	// leaves the tenant unmetered.
	Rate float64
	// Burst is the token-bucket capacity in requests; 0 with a nonzero
	// Rate defaults to the larger of 1 and one second's worth of Rate.
	Burst int
	// Weight is the tenant's fair-share weight within each service
	// class: under contention a weight-4 tenant drains four queued
	// requests for every one of a weight-1 tenant. <= 0 means 1.
	Weight int
	// CacheBytes bounds the tenant's resident bytes in the edge cache;
	// 0 shares the global capacity unbounded. Edge servers only (the
	// cloud has no IC cache); ignored on clouds.
	CacheBytes int64
	// SceneMembers caps how many shared-scene members (joined
	// connections, summed across the tenant's rooms) the tenant may hold
	// at once; 0 means unlimited. Scene publish rates need no extra knob
	// — every publish spends a token from the same bucket as any other
	// request (Rate/Burst). Edge servers only; ignored on clouds.
	SceneMembers int
}

// WithTenantQuota installs (or replaces) tenant's limits: admission
// rate, fair-share weight, cache share, and optionally a token its
// clients must present. An empty tenant names the default tenant, which
// is where tenantless and legacy clients land. Tenants never named by
// any option run unlimited.
func WithTenantQuota(tenant string, cfg TenantConfig) ServerOption {
	return func(c *serverConfig) error {
		if c.tenants == nil {
			c.tenants = make(map[string]TenantConfig)
		}
		c.tenants[tenant] = cfg
		return nil
	}
}

// WithSlowRequestThreshold sets the latency above which a successful
// request is captured in the /debug/requests ring and logged as a `slow
// request` warning through slog.Default() (failed requests always are).
// The default is 1s; zero or negative keeps successes out entirely.
func WithSlowRequestThreshold(d time.Duration) ServerOption {
	return func(c *serverConfig) error { c.slowThreshold = d; return nil }
}

// Server is a CoIC tier (edge or cloud) assembled from options. Build it
// with NewEdgeServer or NewCloudServer and run it with Serve; option
// errors are deferred to Serve so construction chains.
type Server struct {
	role string // "edge" or "cloud"
	cfg  serverConfig
	err  error

	reg  *obs.Registry
	rlog *obs.RequestLog

	// core is the running tier's shared serving core (set by Serve); edge
	// is additionally set when that tier is an edge.
	mu   sync.Mutex
	ln   net.Listener
	core *core.ServerCore
	edge *core.EdgeServer
}

// NewEdgeServer assembles the mobile-edge tier: the IC cache plus miss
// forwarding to the cloud, optionally federated with peer edges.
func NewEdgeServer(opts ...ServerOption) *Server {
	cfg := defaultServerConfig()
	cfg.cloudAddr = "localhost:9090"
	s := &Server{role: "edge", cfg: cfg}
	s.apply(opts)
	s.cfg.edgeOnly = nil // every edge-only option is legal here
	s.initObs()
	return s
}

// NewCloudServer assembles the cloud tier: the full recognition DNN, the
// 3D model repository and the VR panorama source.
func NewCloudServer(opts ...ServerOption) *Server {
	s := &Server{role: "cloud", cfg: defaultServerConfig()}
	s.apply(opts)
	if s.err == nil && len(s.cfg.edgeOnly) > 0 {
		s.err = fmt.Errorf("coic: %v are edge-only options, not valid for a cloud server", s.cfg.edgeOnly)
	}
	s.initObs()
	return s
}

// defaultServerConfig is what both tiers run with before options apply.
func defaultServerConfig() serverConfig {
	return serverConfig{params: DefaultParams(), slowThreshold: time.Second}
}

// initObs builds the live metrics registry and the slow-request ring.
// Both exist from construction so OpsHandler works before Serve (the
// scrape just reports an idle server).
func (s *Server) initObs() {
	s.reg = obs.NewRegistry()
	s.rlog = obs.NewRequestLog(128, s.cfg.slowThreshold, slog.Default())
}

// tenantPolicy builds the admission policy from WithTenantQuota options,
// or nil — the open single-tenant policy — when none were given, keeping
// untenanted servers on the exact pre-tenant fast path.
func (s *Server) tenantPolicy() *core.TenantPolicy {
	if len(s.cfg.tenants) == 0 {
		return nil
	}
	p := core.NewTenantPolicy(nil)
	for t, cfg := range s.cfg.tenants {
		p.Set(t, core.TenantLimit{
			Token:        cfg.Token,
			Rate:         cfg.Rate,
			Burst:        cfg.Burst,
			Weight:       cfg.Weight,
			CacheBytes:   cfg.CacheBytes,
			SceneMembers: cfg.SceneMembers,
		})
	}
	return p
}

func (s *Server) apply(opts []ServerOption) {
	for _, opt := range opts {
		if err := opt(&s.cfg); err != nil && s.err == nil {
			s.err = err
		}
	}
}

// Addr reports the listen address while Serve is running (nil before
// and after).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// ServerStats counts a server's admission and scheduling decisions plus
// (edges only) its upstream traffic.
type ServerStats struct {
	// CloudFetches is how many upstream round trips the edge issued —
	// the denominator of coalescing. Zero for cloud servers.
	CloudFetches uint64
	// Overloads is how many requests admission control rejected with an
	// overloaded error (the queue was full of live work).
	Overloads uint64
	// DeadlineSheds is how many queued requests were dropped unexecuted
	// because their wall-clock deadline passed in the queue — no worker
	// time and no upstream fetch was spent on them.
	DeadlineSheds uint64
	// AdmittedInteractive / AdmittedBestEffort count requests entering
	// the scheduler per service class.
	AdmittedInteractive uint64
	AdmittedBestEffort  uint64
	// QuotaRejections is how many requests per-tenant admission quotas
	// rejected, summed over tenants. Zero unless WithTenantQuota set a
	// rate for some tenant.
	QuotaRejections uint64
	// SceneRooms / SceneMembers are the live shared-scene rooms hosted on
	// the edge and their joined members; ScenePublishes counts scene
	// writes applied since start. All zero for cloud servers (scenes are
	// edge-hosted).
	SceneRooms     int
	SceneMembers   int
	ScenePublishes uint64
	// RingVersion is the federation ring's node-local version (0 when
	// standalone); MembersAlive counts fleet members this
	// edge believes alive, itself included (a declared static federation
	// reports its full ring; a standalone edge reports 1); MigratedKeys
	// counts cached keys re-homed by migration sweeps and the
	// decommission drain (gossip topologies only). All zero for cloud
	// servers.
	RingVersion  uint64
	MembersAlive int
	MigratedKeys uint64
	// Tenants breaks admissions and quota rejections down by tenant.
	// Tenantless deployments see a single "default" entry.
	Tenants map[string]TenantStats
}

// TenantStats is one tenant's slice of a server's admission ledger.
type TenantStats struct {
	AdmittedInteractive uint64
	AdmittedBestEffort  uint64
	QuotaRejections     uint64
}

// tenantStats converts the scheduler's per-tenant ledger to the public
// shape.
func tenantStats(counts map[string]core.TenantCounters) map[string]TenantStats {
	out := make(map[string]TenantStats, len(counts))
	for t, tc := range counts {
		out[t] = TenantStats{
			AdmittedInteractive: tc.Admitted[int(QoSInteractive)],
			AdmittedBestEffort:  tc.Admitted[int(QoSBestEffort)],
			QuotaRejections:     tc.QuotaRejections,
		}
	}
	return out
}

// Stats snapshots the server's counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	sc, es := s.core, s.edge
	s.mu.Unlock()
	if sc == nil {
		return ServerStats{}
	}
	st := ServerStats{
		Overloads:           sc.Overloads(),
		DeadlineSheds:       sc.DeadlineSheds(),
		AdmittedInteractive: sc.Admitted(QoSInteractive),
		AdmittedBestEffort:  sc.Admitted(QoSBestEffort),
		QuotaRejections:     sc.QuotaRejections(),
		Tenants:             tenantStats(sc.TenantCounts()),
	}
	if es != nil {
		st.CloudFetches = es.CloudFetches()
		st.SceneRooms, st.SceneMembers, st.ScenePublishes = es.SceneStats()
		st.RingVersion = es.RingVersion()
		st.MembersAlive, _, _ = es.MemberCounts()
		st.MigratedKeys = es.MigratedKeys()
	}
	return st
}

// Serve serves on the WithListener listener until ctx is cancelled or the
// listener fails. Cancellation is graceful shutdown: in-flight requests
// drain and Serve returns nil. Serve may be called once per Server.
func (s *Server) Serve(ctx context.Context) error {
	if s.err != nil {
		return s.err
	}
	p, ln := s.cfg.params, s.cfg.listener
	if ln == nil {
		return fmt.Errorf("coic: %s server: no listener; pass WithListener", s.role)
	}
	defer func() {
		// The listener is the readiness signal; with Serve gone the
		// server must probe not-ready again.
		s.mu.Lock()
		s.ln = nil
		s.mu.Unlock()
	}()

	if s.role == "cloud" {
		srv := &core.CloudServer{Cloud: core.NewCloud(p)}
		s.configureCore(&srv.ServerCore)
		s.mu.Lock()
		s.ln = ln
		s.core = &srv.ServerCore
		s.mu.Unlock()
		return srv.ServeContext(ctx, ln)
	}

	wrap, err := s.cfg.cloudShape.wrapper()
	if err != nil {
		return err
	}
	srv := &core.EdgeServer{
		Edge:         core.NewEdge(p),
		CloudAddr:    s.cfg.cloudAddr,
		WrapCloud:    wrap,
		FetchTimeout: s.cfg.fetchTimeout,
		MaxUpstream:  s.cfg.maxUpstream,
	}
	s.configureCore(&srv.ServerCore)
	for t, capBytes := range srv.Tenants.CacheShares() {
		srv.Edge.Cache.SetTenantCap(t, capBytes)
	}
	srv.Replication = s.cfg.replication
	if s.cfg.gossip && len(s.cfg.peers) > 0 {
		return fmt.Errorf("coic: WithFederation and WithGossip are mutually exclusive — declare the fleet or discover it, not both")
	}
	if s.cfg.gossip {
		if err := srv.SetupGossip(s.cfg.self, s.cfg.seeds); err != nil {
			return err
		}
	} else if len(s.cfg.peers) > 0 {
		if err := srv.SetupFederation(s.cfg.self, s.cfg.peers); err != nil {
			return err
		}
	}
	s.reg.CounterFunc("coic_cloud_fetches_total",
		"Upstream edge-to-cloud round trips issued (after coalescing).",
		func() float64 { return float64(srv.CloudFetches()) })
	s.reg.GaugeFunc("coic_cache_entries",
		"Entries resident in the edge IC cache.",
		func() float64 { return float64(srv.Edge.Cache.StatsSnapshot().Store.Entries) })
	s.reg.GaugeFunc("coic_cache_bytes",
		"Value bytes charged against the edge IC cache's byte budget; descriptors, index vectors and bookkeeping are not charged, so the cache's heap is larger.",
		func() float64 { return float64(srv.Edge.Cache.StatsSnapshot().Store.BytesUsed) })
	s.reg.GaugeFunc("coic_scene_members",
		"Connections currently joined to shared scenes on this edge.",
		func() float64 { _, members, _ := srv.SceneStats(); return float64(members) })
	s.reg.GaugeFunc("coic_scene_rooms",
		"Shared-scene rooms currently live on this edge.",
		func() float64 { rooms, _, _ := srv.SceneStats(); return float64(rooms) })
	s.reg.CounterFunc("coic_scene_publish_total",
		"Shared-scene writes applied and fanned out since start.",
		func() float64 { _, _, publishes := srv.SceneStats(); return float64(publishes) })
	s.reg.GaugeFunc("coic_ring_version",
		"Version of the federation consistent-hash ring. Node-local and monotonic; 0 when standalone.",
		func() float64 { return float64(srv.RingVersion()) })
	s.reg.GaugeFunc("coic_member_alive",
		"Federation members this edge believes alive (itself included).",
		func() float64 { alive, _, _ := srv.MemberCounts(); return float64(alive) })
	s.reg.GaugeFunc("coic_member_suspect",
		"Federation members this edge suspects failed (awaiting refutation or expiry).",
		func() float64 { _, suspect, _ := srv.MemberCounts(); return float64(suspect) })
	s.reg.GaugeFunc("coic_member_dead",
		"Federation members this edge has declared dead.",
		func() float64 { _, _, dead := srv.MemberCounts(); return float64(dead) })
	s.reg.CounterFunc("coic_migration_keys_total",
		"Cached keys re-homed by migration sweeps and the decommission drain.",
		func() float64 { return float64(srv.MigratedKeys()) })
	for t := range s.cfg.tenants {
		name := t
		if name == "" {
			name = core.DefaultTenant
		}
		s.reg.GaugeFunc("coic_tenant_cache_bytes",
			"Bytes resident in the edge IC cache attributed to the tenant.",
			func() float64 { return float64(srv.Edge.Cache.StatsSnapshot().Tenants[name].Bytes) },
			obs.L("tenant", name))
	}
	s.mu.Lock()
	s.ln = ln
	s.core, s.edge = &srv.ServerCore, srv
	s.mu.Unlock()
	return srv.ServeContext(ctx, ln)
}

// configureCore applies the options both tiers share to the tier's
// serving core (in place: the core holds its counters and must not be
// copied) and bridges its ledger to the metrics registry.
func (s *Server) configureCore(sc *core.ServerCore) {
	sc.Workers = s.cfg.workers
	sc.QueueDepth = s.cfg.queueDepth
	sc.Tenants = s.tenantPolicy()
	sc.Obs = core.NewServerObs(s.reg, s.rlog)
	s.registerSchedBridges(sc)
}

// registerSchedBridges exposes the scheduler's existing counters as
// scrape-time metrics. They are read on demand rather than double
// counted on the hot path.
func (s *Server) registerSchedBridges(sc *core.ServerCore) {
	for _, class := range []QoS{QoSBestEffort, QoSInteractive} {
		class := class
		s.reg.CounterFunc("coic_sched_admitted_total",
			"Requests admitted into the per-connection scheduler by service class.",
			func() float64 { return float64(sc.Admitted(class)) },
			obs.L("class", class.String()))
	}
	s.reg.CounterFunc("coic_sched_deadline_sheds_total",
		"Queued requests dropped unexecuted because their deadline passed.",
		func() float64 { return float64(sc.DeadlineSheds()) })
	s.reg.CounterFunc("coic_sched_overloads_total",
		"Requests rejected by admission control with an overloaded error.",
		func() float64 { return float64(sc.Overloads()) })
}

// OpsHandler returns the live operations plane: Prometheus text metrics
// at /metrics, liveness at /healthz, readiness at /readyz (see Ready),
// the slow/failed request ring at /debug/requests, and net/http/pprof
// under /debug/pprof/. Mount it on a sidecar HTTP listener — the CoIC
// wire protocol and the ops plane never share a port.
func (s *Server) OpsHandler() http.Handler {
	return obs.Handler(s.reg, s.Ready, s.rlog)
}

// Ready reports whether the server can usefully take traffic: the wire
// listener must be up, and an edge must additionally be able to reach
// its cloud tier (a TCP dial bounded by ctx). A cloud server is ready as
// soon as it listens.
func (s *Server) Ready(ctx context.Context) error {
	s.mu.Lock()
	ln, role, cloudAddr := s.ln, s.role, s.cfg.cloudAddr
	s.mu.Unlock()
	if ln == nil {
		return fmt.Errorf("%s server not serving", role)
	}
	if role != "edge" || cloudAddr == "" {
		return nil
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", cloudAddr)
	if err != nil {
		return fmt.Errorf("cloud link down: %w", err)
	}
	conn.Close()
	return nil
}
