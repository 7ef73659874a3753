package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/edge-immersion/coic/internal/clock"
)

// DefaultTenant is the identity of every connection that does not
// authenticate an explicit tenant: tenantless dials of the client, and
// the edge's own upstream/peer connections. It exists so single-tenant deployments run
// the exact pre-tenant fast path — one bucket, one DRR ring entry —
// while still showing up under a tenant label in metrics and stats.
const DefaultTenant = "default"

// TenantLimit configures one tenant's share of a server. The zero value
// means "no limits": no token required, unlimited admission, weight 1,
// unbounded cache share — exactly what unknown tenants get, so adding a
// limit for one tenant never locks the others out.
type TenantLimit struct {
	// Token, when nonempty, is the shared secret the tenant's hello must
	// present. Tenants without a configured token authenticate by name
	// alone (quotas without secrets — fine inside one trust domain).
	Token string
	// Rate is the sustained admission rate in requests per second; 0
	// disables the token bucket for this tenant.
	Rate float64
	// Burst is the bucket capacity in requests. 0 with a nonzero Rate
	// defaults to the larger of 1 and one second's worth of Rate.
	Burst int
	// Weight is the tenant's deficit-round-robin share within each QoS
	// class; <= 0 means 1. A tenant with weight 4 drains four queued
	// requests for every one of a weight-1 tenant under contention.
	Weight int
	// CacheBytes bounds the tenant's resident bytes in the edge cache;
	// 0 means unbounded (shares the global capacity like before).
	CacheBytes int64
	// SceneMembers caps how many scene members (joined connections,
	// summed across the tenant's rooms) the tenant may hold at once; 0
	// means unlimited. Publish rates need no extra knob — every
	// MsgScenePublish spends a token from the same bucket as any other
	// request.
	SceneMembers int
}

// TenantPolicy authenticates tenants and meters their admission. All
// methods are safe on a nil receiver, which behaves as the open policy:
// every tenant authenticates, nothing is rate-limited, every weight is 1
// — so servers built without tenant options pay one nil check.
type TenantPolicy struct {
	clk clock.Clock

	mu      sync.Mutex
	limits  map[string]TenantLimit
	buckets map[string]*tokenBucket
}

// NewTenantPolicy builds an empty policy metering time with clk
// (clock.Real{} when nil; tests pass a clock.Virtual for deterministic
// refill).
func NewTenantPolicy(clk clock.Clock) *TenantPolicy {
	if clk == nil {
		clk = clock.Real{}
	}
	return &TenantPolicy{
		clk:     clk,
		limits:  make(map[string]TenantLimit),
		buckets: make(map[string]*tokenBucket),
	}
}

// Set installs (or replaces) a tenant's limit. An empty tenant names the
// default tenant. Replacing a limit resets the tenant's bucket so a new
// rate takes effect immediately.
func (p *TenantPolicy) Set(tenant string, lim TenantLimit) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.limits[tenant] = lim
	delete(p.buckets, tenant)
}

// Authenticate resolves a hello's tenant claim to the tenant identity
// the connection runs as, or rejects it. Empty claims resolve to
// DefaultTenant; tenants with no configured limit are accepted openly
// (rationing is opt-in per tenant); a tenant configured with a Token
// must present exactly that token.
func (p *TenantPolicy) Authenticate(tenant, token string) (string, error) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	if p == nil {
		return tenant, nil
	}
	p.mu.Lock()
	lim, ok := p.limits[tenant]
	p.mu.Unlock()
	if ok && lim.Token != "" && lim.Token != token {
		return "", fmt.Errorf("tenant %q: bad token", tenant)
	}
	return tenant, nil
}

// Admit spends one token from the tenant's bucket, reporting whether the
// request may enter the scheduler. Tenants without a configured rate are
// always admitted.
func (p *TenantPolicy) Admit(tenant string) bool {
	if p == nil {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	lim, ok := p.limits[tenant]
	if !ok || lim.Rate <= 0 {
		return true
	}
	b, ok := p.buckets[tenant]
	if !ok {
		burst := float64(lim.Burst)
		if burst <= 0 {
			burst = max(1, lim.Rate)
		}
		b = &tokenBucket{rate: lim.Rate, burst: burst, tokens: burst, last: p.clk.Now()}
		p.buckets[tenant] = b
	}
	return b.take(p.clk.Now())
}

// Weight reports the tenant's DRR weight (>= 1).
func (p *TenantPolicy) Weight(tenant string) int {
	if p == nil {
		return 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if lim, ok := p.limits[tenant]; ok && lim.Weight > 0 {
		return lim.Weight
	}
	return 1
}

// SlotCap reports how many of slots concurrent upstream fetches the
// tenant may hold: its ceiling-rounded weighted share of the total
// configured weight, never below 1 (every tenant can always make
// progress) and never above slots. Tenants outside the policy count as
// weight 1 against the configured total. The cap is standing — it does
// not grow while other tenants are idle — because upstream isolation
// must already be in place when a latency-sensitive tenant's next
// request arrives, not rebuilt after it is stuck behind a flood. A nil
// policy (or one with nothing configured) returns slots: single-tenant
// deployments keep the whole budget.
func (p *TenantPolicy) SlotCap(tenant string, slots int) int {
	if p == nil {
		return slots
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.limits) == 0 {
		return slots
	}
	total := 0
	for _, lim := range p.limits {
		total += max(1, lim.Weight)
	}
	w := 1
	if lim, ok := p.limits[tenant]; ok {
		w = max(1, lim.Weight)
	} else {
		total++
	}
	cap := (slots*w + total - 1) / total
	return min(max(cap, 1), slots)
}

// SceneMemberCap reports the tenant's cap on concurrently joined scene
// members across all of its rooms (0 = unlimited).
func (p *TenantPolicy) SceneMemberCap(tenant string) int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if lim, ok := p.limits[tenant]; ok {
		return lim.SceneMembers
	}
	return 0
}

// CacheShares returns the configured per-tenant cache byte bounds
// (tenants with CacheBytes == 0 are omitted — unbounded needs no entry).
func (p *TenantPolicy) CacheShares() map[string]int64 {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	shares := make(map[string]int64)
	for t, lim := range p.limits {
		if lim.CacheBytes > 0 {
			shares[t] = lim.CacheBytes
		}
	}
	return shares
}

// tokenBucket is the standard leaky-bucket-as-meter: tokens refill at
// rate per second up to burst, and each admission spends one. Callers
// hold the policy mutex; time comes in from outside so a clock.Virtual
// drives refill deterministically in tests.
type tokenBucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func (b *tokenBucket) take(now time.Time) bool {
	if dt := now.Sub(b.last); dt > 0 {
		b.tokens = min(b.burst, b.tokens+b.rate*dt.Seconds())
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}
