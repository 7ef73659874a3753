package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/edge-immersion/coic/internal/wire"
)

// ErrConnClosed reports a request whose connection died before its reply
// arrived.
var ErrConnClosed = errors.New("core: connection closed")

// link is the one RequestID-demultiplexed connection every hop shares:
// client→edge (MuxClient), edge→cloud and edge↔edge. Any number of calls
// ride one TCP stream concurrently; a read loop per connection
// generation matches replies to waiters by RequestID. A generation opens
// with a HelloFlagUnordered hello — matching by ID, the link must never
// have a finished reply held behind an earlier slow one — whose ack is
// awaited and whose rejection is the dial error.
//
// Failure policy: a call that times out retires the whole generation (a
// hung far end must not wedge the calls queued behind it — they all fail
// fast and the next call re-dials), while a call abandoned by its own
// context says nothing about the connection's health — its reply slot is
// forgotten, a best-effort MsgCancel tells the far end to skip the work,
// and the socket survives.
//
// The three users differ only in the constants below, fixed where the
// link is built.
type link struct {
	addr  string
	name  string // the far end, for error text: "cloud", "peer <addr>", "edge"
	wrap  ConnWrapper
	hello wire.Hello

	dialCap time.Duration // bounds connect plus the hello exchange
	backoff time.Duration // fail-fast window after a failed dial or a timed-out call
	redial  bool          // false: the first generation is the only one

	mu      sync.Mutex
	seq     uint64
	cur     *linkGen
	dialing chan struct{} // non-nil while a dial is in flight; closed when it ends
	dead    bool          // no generation will ever follow: closed, or !redial and lost
	downTil time.Time
	downErr error
	onPush  func(wire.Message)
	onClose func()
}

// linkGen is one generation of the connection with its in-flight table.
type linkGen struct {
	conn net.Conn
	wmu  sync.Mutex // serialises frame writes

	// pending is guarded by link.mu; nil once the generation is retired.
	pending map[uint64]chan wire.Message
}

// setHandlers installs the receiver of server-pushed frames
// (MsgSceneEvent, which answer no request and never reach a pending
// slot) and a callback run each time a generation is retired, after its
// pending calls have failed. Both run on the read loop and must not
// block.
func (l *link) setHandlers(onPush func(wire.Message), onClose func()) {
	l.mu.Lock()
	l.onPush, l.onClose = onPush, onClose
	l.mu.Unlock()
}

// dial opens one generation: connect, hello, await the ack — all inside
// the tighter of dialCap, deadline (when nonzero) and ctx, so dialing can
// never extend a call past its budget.
func (l *link) dial(ctx context.Context, deadline time.Time) (*linkGen, error) {
	limit := time.Now().Add(l.dialCap)
	if !deadline.IsZero() && deadline.Before(limit) {
		limit = deadline
	}
	if d, ok := ctx.Deadline(); ok && d.Before(limit) {
		limit = d
	}
	body, err := l.hello.Marshal()
	if err != nil {
		return nil, fmt.Errorf("core: hello: %w", err)
	}
	d := net.Dialer{Deadline: limit}
	conn, err := d.DialContext(ctx, "tcp", l.addr)
	if err != nil {
		return nil, fmt.Errorf("core: cannot reach %s: %w", l.name, err)
	}
	if l.wrap != nil {
		conn = l.wrap(conn)
	}
	conn.SetDeadline(limit)
	// ctx dying mid-handshake yanks the deadline so the blocking exchange
	// returns at once instead of waiting out limit.
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
	err = wire.WriteMessage(conn, wire.Message{Type: wire.MsgHello, Body: body})
	var ack wire.Message
	if err == nil {
		ack, err = wire.ReadMessage(conn)
	}
	if !stop() {
		conn.Close()
		return nil, ctx.Err()
	}
	if err == nil {
		// A refused handshake (bad token, malformed hello) is answered
		// with the reason before the far end hangs up; surface it.
		err = ReplyError(ack)
	} else {
		err = fmt.Errorf("core: %s hello: %w", l.name, err)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	return &linkGen{conn: conn, pending: map[uint64]chan wire.Message{}}, nil
}

// connect brings up the next generation, or waits for the dial another
// caller already has in flight; a nil return means "look again". Called
// with l.mu held, returns with it released.
func (l *link) connect(ctx context.Context, deadline time.Time) error {
	switch {
	case l.dead:
		l.mu.Unlock()
		return ErrConnClosed
	case time.Now().Before(l.downTil):
		err := l.downErr
		l.mu.Unlock()
		return fmt.Errorf("core: %s backing off: %w", l.name, err)
	case l.dialing != nil:
		wait := l.dialing
		l.mu.Unlock()
		var expire <-chan time.Time
		if !deadline.IsZero() {
			expire = time.After(time.Until(deadline))
		}
		select {
		case <-wait:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-expire:
			return fmt.Errorf("core: %s timed out awaiting the connection", l.name)
		}
	}
	done := make(chan struct{})
	l.dialing = done
	l.mu.Unlock()
	g, err := l.dial(ctx, deadline)
	l.mu.Lock()
	l.dialing = nil
	switch {
	case err == nil && l.dead: // closed while dialing
		g.conn.Close()
		err = ErrConnClosed
	case err == nil:
		l.cur = g
		go l.readLoop(g)
	case ctx.Err() == nil:
		// The far end failed us, not our own caller's departure.
		l.dead = l.dead || !l.redial
		l.downTil, l.downErr = time.Now().Add(l.backoff), err
	}
	l.mu.Unlock()
	close(done)
	return err
}

func (l *link) readLoop(g *linkGen) {
	rd := wire.NewReader(g.conn)
	for {
		m, err := rd.ReadMessage()
		if err != nil {
			l.drop(g, nil)
			return
		}
		l.mu.Lock()
		if m.Type == wire.MsgSceneEvent {
			onPush := l.onPush
			l.mu.Unlock()
			if onPush != nil {
				onPush(m)
			}
			continue
		}
		ch := g.pending[m.RequestID]
		delete(g.pending, m.RequestID)
		l.mu.Unlock()
		if ch != nil {
			ch <- m // buffered; never blocks the read loop
		}
		// Replies nobody waits for — forgotten calls, posted frames'
		// acks, cancel acks — are dropped.
	}
}

// drop retires a generation: the socket closes and every pending call
// fails fast (closed channel). A non-nil cause — the far end stopped
// answering — also opens the fail-fast window.
func (l *link) drop(g *linkGen, cause error) {
	l.mu.Lock()
	pending := g.pending
	g.pending = nil
	if l.cur == g {
		l.cur = nil
		l.dead = l.dead || !l.redial
	}
	if cause != nil {
		l.downTil, l.downErr = time.Now().Add(l.backoff), cause
	}
	onClose := l.onClose
	l.mu.Unlock()
	if pending == nil {
		return // already retired
	}
	g.conn.Close()
	for _, ch := range pending {
		close(ch)
	}
	if onClose != nil {
		onClose()
	}
}

// close retires the live generation for good.
func (l *link) close() {
	l.mu.Lock()
	l.dead = true
	g := l.cur
	l.mu.Unlock()
	if g != nil {
		l.drop(g, nil)
	}
}

// start assigns msg a RequestID, registers ch (when non-nil) for its
// reply — exactly one message, or a close if the generation is lost —
// and writes the frame, dialing first when no generation is live.
// deadline (zero = none) bounds the dial and the write.
func (l *link) start(ctx context.Context, msg wire.Message, ch chan wire.Message, deadline time.Time) (*linkGen, uint64, error) {
	for {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			// Out of budget before anything was sent (a long upstream-slot
			// wait, a slow dial): that is this call's failure alone.
			return nil, 0, fmt.Errorf("core: %s timed out", l.name)
		}
		l.mu.Lock()
		g := l.cur
		if g == nil {
			if err := l.connect(ctx, deadline); err != nil {
				return nil, 0, err
			}
			continue
		}
		l.seq++
		msg.RequestID = l.seq
		if ch != nil {
			g.pending[msg.RequestID] = ch
		}
		l.mu.Unlock()

		g.wmu.Lock()
		g.conn.SetWriteDeadline(deadline)
		err := wire.WriteMessage(g.conn, msg)
		g.wmu.Unlock()
		if err != nil {
			// A broken write poisons the framing; fail everything.
			l.drop(g, nil)
			return nil, 0, fmt.Errorf("core: %s write: %w", l.name, err)
		}
		return g, msg.RequestID, nil
	}
}

// forget withdraws interest in a reply on the live generation,
// reporting whether it was still outstanding; the read loop drops it on
// arrival.
func (l *link) forget(id uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil {
		return false
	}
	_, outstanding := l.cur.pending[id]
	delete(l.cur.pending, id)
	return outstanding
}

// sendCancel asks the far end to abort the named in-flight request. The
// target still answers in its own reply slot (CodeCanceled, or its
// result if the cancel lost the race); the cancel's ack is dropped by
// the read loop.
func (l *link) sendCancel(target uint64) error {
	body, err := (wire.CancelRequest{TargetID: target}).Marshal()
	if err != nil {
		return err
	}
	l.mu.Lock()
	g := l.cur
	l.seq++
	id := l.seq
	l.mu.Unlock()
	if g == nil {
		return ErrConnClosed
	}
	g.wmu.Lock()
	defer g.wmu.Unlock()
	// A fresh bound: the last call's write deadline may be long past.
	g.conn.SetWriteDeadline(time.Now().Add(l.dialCap))
	return wire.WriteMessage(g.conn, wire.Message{Type: wire.MsgCancel, RequestID: id, Body: body})
}

// roundTrip ships msg and awaits its reply. deadline (zero = none) covers
// dialing, the write and the wait; when it passes the generation is
// retired. ctx aborts just this call.
func (l *link) roundTrip(ctx context.Context, msg wire.Message, deadline time.Time) (wire.Message, error) {
	if err := ctx.Err(); err != nil {
		return wire.Message{}, err
	}
	ch := make(chan wire.Message, 1)
	g, id, err := l.start(ctx, msg, ch, deadline)
	if err != nil {
		return wire.Message{}, err
	}
	var expire <-chan time.Time
	if !deadline.IsZero() {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		expire = timer.C
	}
	select {
	case reply, ok := <-ch:
		if !ok {
			return wire.Message{}, fmt.Errorf("core: %s: %w mid-request", l.name, ErrConnClosed)
		}
		return reply, nil
	case <-ctx.Done():
		if l.forget(id) {
			l.sendCancel(id)
		}
		return wire.Message{}, ctx.Err()
	case <-expire:
		err := fmt.Errorf("core: %s timed out", l.name)
		l.drop(g, err)
		return wire.Message{}, err
	}
}

// post ships msg without awaiting its reply: the frame is written (after
// a dial bounded by deadline, if the link is down) and its ack is left
// for the read loop to drop. Failures are the caller's to ignore: a post
// is best-effort by construction.
func (l *link) post(msg wire.Message, deadline time.Time) {
	l.start(context.Background(), msg, nil, deadline)
}
