package coic

// Option configures a System built by New (coic.go).
type Option func(*config) error

// WithParams overrides the calibrated reproduction parameters.
func WithParams(p Params) Option {
	return func(c *config) error { c.params = p; return nil }
}

// WithCondition selects the (B_M→E, B_E→C) network condition.
func WithCondition(cond Condition) Option {
	return func(c *config) error { c.condition = cond; return nil }
}

// WithCachePolicy selects eviction: "lru" (default), "lfu", "fifo" or
// "gdsf". Unknown names surface as an error from New.
func WithCachePolicy(policy string) Option {
	return func(c *config) error { c.cachePolicy = policy; return nil }
}

// WithIndex selects the descriptor matcher: "linear" (default) or "lsh".
func WithIndex(index string) Option {
	return func(c *config) error { c.index = index; return nil }
}

// WithClients attaches n mobile clients (default 1).
func WithClients(n int) Option {
	return func(c *config) error { c.clients = n; return nil }
}

// WithPrivacyK enables the k-anonymity sharing gate: cached results are
// only shared with strangers once k distinct users have requested them.
func WithPrivacyK(k int) Option {
	return func(c *config) error { c.privacyK = k; return nil }
}
