package obs

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"sync"
	"time"
)

// RequestEvent is one request's outcome as recorded by the serving path:
// enough to correlate a slow frame across client, edge and cloud logs by
// trace ID without a tracing backend.
type RequestEvent struct {
	// Time is when the request finished.
	Time time.Time `json:"time"`
	// TraceID is the client-minted trace identifier (zero when the client
	// sent none). Rendered as hex in JSON to match log output.
	TraceID uint64 `json:"-"`
	// ReqID is the per-connection wire request ID.
	ReqID uint64 `json:"req_id"`
	// Type is the wire message type name ("exec", "model_fetch", ...).
	Type string `json:"type"`
	// Tenant is the connection's authenticated tenant (empty when the
	// server runs tenantless instrumentation).
	Tenant string `json:"tenant,omitempty"`
	// Class is the QoS class name ("interactive", "best_effort").
	Class string `json:"class"`
	// Outcome is the terminal state: ok, error, canceled, deadline,
	// overloaded, quota.
	Outcome string `json:"outcome"`
	// Duration is queue wait plus execution, as measured by the server.
	Duration time.Duration `json:"-"`
}

// requestEventJSON is the wire shape of a RequestEvent at /debug/requests.
type requestEventJSON struct {
	RequestEvent
	TraceID    string  `json:"trace_id"`
	DurationMS float64 `json:"duration_ms"`
}

// RequestLog keeps the most recent events that crossed the slow threshold
// (or failed), in a fixed-capacity ring, and optionally emits them as
// structured slog records. The ring makes "what was slow in the last
// minute" answerable from /debug/requests without log aggregation.
type RequestLog struct {
	slow   time.Duration
	logger *slog.Logger

	mu   sync.Mutex
	ring []RequestEvent
	next int
	full bool
}

// NewRequestLog builds a log holding up to capacity events. Events with
// Outcome "ok" or "canceled" are recorded only when Duration >= slow
// (slow <= 0 keeps them out entirely); admission refusals ("overloaded",
// "quota") are never recorded; every other outcome always is. logger may
// be nil to keep the ring without emitting log lines.
func NewRequestLog(capacity int, slow time.Duration, logger *slog.Logger) *RequestLog {
	if capacity <= 0 {
		capacity = 64
	}
	return &RequestLog{slow: slow, logger: logger, ring: make([]RequestEvent, capacity)}
}

// Record files one event if it qualifies (failed, or slower than the
// threshold). An admission refusal does not qualify: a tenant flooding
// past its quota would otherwise log one line per refused request and
// evict every useful entry from the ring, and coic_requests_total already
// counts refusals by outcome. A client's cancel is not a server fault, so
// it qualifies only past the threshold, as a success does: a stream
// closed with a full window in flight would otherwise log one line per
// request it abandoned. Safe for concurrent use.
func (l *RequestLog) Record(ev RequestEvent) {
	if l == nil {
		return
	}
	switch ev.Outcome {
	case "overloaded", "quota":
		return
	case "ok", "canceled":
		if l.slow <= 0 || ev.Duration < l.slow {
			return
		}
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	l.mu.Lock()
	l.ring[l.next] = ev
	l.next++
	if l.next == len(l.ring) {
		l.next = 0
		l.full = true
	}
	l.mu.Unlock()
	if l.logger != nil {
		l.logger.Warn("slow request",
			slog.String("trace_id", fmt.Sprintf("%016x", ev.TraceID)),
			slog.Uint64("req_id", ev.ReqID),
			slog.String("type", ev.Type),
			slog.String("tenant", ev.Tenant),
			slog.String("class", ev.Class),
			slog.String("outcome", ev.Outcome),
			slog.Duration("duration", ev.Duration),
		)
	}
}

// Recent returns the retained events, oldest first.
func (l *RequestLog) Recent() []RequestEvent {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []RequestEvent
	if l.full {
		out = append(out, l.ring[l.next:]...)
	}
	out = append(out, l.ring[:l.next]...)
	return out
}

// MarshalJSON renders the retained events for /debug/requests.
func (l *RequestLog) MarshalJSON() ([]byte, error) {
	evs := l.Recent()
	out := make([]requestEventJSON, len(evs))
	for i, ev := range evs {
		out[i] = requestEventJSON{
			RequestEvent: ev,
			TraceID:      fmt.Sprintf("%016x", ev.TraceID),
			DurationMS:   float64(ev.Duration) / float64(time.Millisecond),
		}
	}
	return json.Marshal(out)
}
