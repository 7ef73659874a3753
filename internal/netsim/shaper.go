package netsim

import (
	"net"
	"sync"
	"time"

	"github.com/edge-immersion/coic/internal/clock"
)

// Shaper paces writes on a real net.Conn with a token bucket, emulating
// tc-tbf for the cmd/ daemons. Reads pass through untouched (shape each
// direction at its sender). An optional per-write latency models one-way
// propagation delay at message granularity: the wire protocol writes each
// frame with a single Write call, so the delay applies once per message,
// which is the granularity the analytic links use too.
type Shaper struct {
	net.Conn
	mu      sync.Mutex
	rateBPS int64
	burst   int64 // bucket depth in bytes
	tokens  float64
	last    time.Time
	delay   time.Duration
	clk     clock.Clock
}

// NewShaper wraps conn with a rate limit (bits/s) and a per-message
// delay. rateBPS <= 0 means unshaped. The default burst is 64KB.
func NewShaper(conn net.Conn, rateBPS int64, delay time.Duration) *Shaper {
	return &Shaper{
		Conn:    conn,
		rateBPS: rateBPS,
		burst:   64 << 10,
		tokens:  float64(64 << 10),
		last:    time.Now(),
		delay:   delay,
		clk:     clock.Real{},
	}
}

// Write paces p onto the wire. Large writes are split so a multi-megabyte
// model cannot burst through in one bucket refill.
func (s *Shaper) Write(p []byte) (int, error) {
	if s.delay > 0 {
		s.clk.Sleep(s.delay)
	}
	if s.rateBPS <= 0 {
		return s.Conn.Write(p)
	}
	written := 0
	for written < len(p) {
		chunk := len(p) - written
		if chunk > int(s.burst) {
			chunk = int(s.burst)
		}
		s.waitFor(int64(chunk))
		n, err := s.Conn.Write(p[written : written+chunk])
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// waitFor blocks until `bytes` tokens are available, then consumes them.
func (s *Shaper) waitFor(bytes int64) {
	for {
		s.mu.Lock()
		now := s.clk.Now()
		elapsed := now.Sub(s.last).Seconds()
		s.last = now
		s.tokens += elapsed * float64(s.rateBPS) / 8
		if s.tokens > float64(s.burst) {
			s.tokens = float64(s.burst)
		}
		if s.tokens >= float64(bytes) {
			s.tokens -= float64(bytes)
			s.mu.Unlock()
			return
		}
		deficit := float64(bytes) - s.tokens
		wait := time.Duration(deficit * 8 / float64(s.rateBPS) * float64(time.Second))
		s.mu.Unlock()
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		s.clk.Sleep(wait)
	}
}
