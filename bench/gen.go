package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"github.com/edge-immersion/coic/internal/wire"
)

// The load generator. It is deliberately thin — it shares the machine's
// cores with the servers it measures: frames are pre-encoded, a send
// patches the request ID and writes, and one reader goroutine per
// connection reads each reply into a reused buffer, timestamps it on
// arrival and validates it. It is a closed loop because the system's
// clients are windowed streams (Stream.Submit blocks on a full window): a
// connection keeps `window` requests outstanding and sends the next only
// when a reply frees a slot.

const (
	// maxWindow bounds a connection's outstanding requests: a request ID
	// is its sequence number times maxWindow plus its slot index.
	maxWindow = 16
	// requestTimeout fails a request whose reply has not arrived this long
	// after it was sent, or arrives later than that.
	requestTimeout = 10 * time.Second
)

// epoch anchors the generator's monotonic timestamps.
var epoch = time.Now()

func nowNanos() int64 { return int64(time.Since(epoch)) }

// slot tracks one outstanding request. The sender fills it before the
// write and the reader reads it after the reply; the only ordering
// between the two is the TCP round trip, which the race detector cannot
// see, hence the atomics.
type slot struct {
	id   atomic.Uint64
	sent atomic.Int64
	want atomic.Int64
}

// genSpan is one generator-side interval of the traced live pass — a
// request's write on the sender, or its reply's read (header in to body
// in) on the reader — kept compact because a pano pass records hundreds
// of thousands.
type genSpan struct {
	req        uint64
	start, end int64
}

// conn is one client connection: a sender (whoever calls run) and a
// reader goroutine that lives as long as the connection.
type conn struct {
	nc     net.Conn
	st     *stream
	index  int // which of the stream's staggered cursors this connection follows
	cursor int // requests sent so far
	seq    uint64
	// timeout is requestTimeout; a field so that the package test need not
	// wait 10 s for it.
	timeout time.Duration
	head    []byte // sender scratch: the request head with the ID patched
	slots   [maxWindow]slot
	// freed returns slot indices from the reader to the sender; its
	// capacity is maxWindow so the reader never blocks on it.
	freed chan int
	// dead is closed by the reader when the connection fails; err says why.
	dead chan struct{}
	err  error

	// Reader-owned until the sender has collected every slot of a phase.
	lat []int64        // latencies of validated replies, ns
	why map[string]int // failure reason -> count

	// trace, set between phases, makes both sides record generator spans.
	trace  bool
	wspans []genSpan // writes, sender-owned
	rspans []genSpan // reads, reader-owned
}

// dial connects to the edge, says hello with completion-order replies (the
// generator matches replies by request ID) and starts the reader.
func dial(addr string, mode uint8, st *stream, index int) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, requestTimeout)
	if err != nil {
		return nil, fmt.Errorf("dial edge: %w", err)
	}
	body, err := (wire.Hello{Version: wire.HelloVersion, Mode: mode, Flags: wire.HelloFlagUnordered}).Marshal()
	if err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetDeadline(time.Now().Add(requestTimeout))
	if err := wire.WriteMessage(nc, wire.Message{Type: wire.MsgHello, Body: body}); err != nil {
		nc.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	ack, err := wire.ReadMessage(nc)
	if err != nil || ack.Type != wire.MsgHello {
		nc.Close()
		return nil, fmt.Errorf("hello ack: type %v, err %v", ack.Type, err)
	}
	nc.SetDeadline(time.Time{})
	c := &conn{
		nc: nc, st: st, index: index, timeout: requestTimeout,
		freed: make(chan int, maxWindow),
		dead:  make(chan struct{}),
		why:   map[string]int{},
	}
	go c.read()
	return c, nil
}

func (c *conn) close() { c.nc.Close() }

// abort closes a failed connection and waits for its reader to exit, so
// that the reader's tallies can be read.
func (c *conn) abort() {
	c.nc.Close()
	<-c.dead
}

// read is the connection's reader goroutine: it exits when the connection
// closes or a frame is malformed.
func (c *conn) read() {
	defer close(c.dead)
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var hdr [wire.HeaderSize]byte
	var body []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			c.err = err
			return
		}
		headAt := nowNanos()
		n := binary.LittleEndian.Uint32(hdr[12:])
		if binary.LittleEndian.Uint16(hdr[0:]) != wire.Magic || hdr[2] != wire.Version || n > wire.MaxBody {
			c.err = fmt.Errorf("malformed reply header % x", hdr)
			return
		}
		if int(n) > cap(body) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			c.err = err
			return
		}
		arrived := nowNanos()
		id := binary.LittleEndian.Uint64(hdr[4:])
		s := &c.slots[id%maxWindow]
		if s.id.Load() != id {
			c.err = fmt.Errorf("reply for unknown request %d", id)
			return
		}
		lat := arrived - s.sent.Load()
		if reason := c.st.check(wire.MsgType(hdr[3]), body, int(s.want.Load())); reason != "" {
			c.why[reason]++
		} else if lat > int64(c.timeout) {
			c.why["timeout"]++
		} else {
			c.lat = append(c.lat, lat)
		}
		if c.trace {
			c.rspans = append(c.rspans, genSpan{id, headAt, arrived})
		}
		c.freed <- int(id % maxWindow)
	}
}

// check validates one reply against the reference result — the same
// bytes for a panorama, the same label for a recognition — returning the
// failure reason or "".
func (s *stream) check(t wire.MsgType, body []byte, want int) string {
	if t == wire.MsgError {
		if er, err := wire.UnmarshalErrorReply(body); err == nil {
			return fmt.Sprintf("error %d", er.Code)
		}
		return "error (malformed)"
	}
	if t != s.replyType {
		return "wrong type " + t.String()
	}
	// Exec and pano replies share a layout: source u8 | len u32 | result.
	// Parsed in place: UnmarshalPanoReply would copy 41 KB per reply on
	// the generator's side of the cores.
	if len(body) < 5 || int(binary.LittleEndian.Uint32(body[1:])) != len(body)-5 {
		return "malformed reply"
	}
	got := body[5:]
	if s.labels == nil {
		if !bytes.Equal(got, s.results[want]) {
			return "wrong result"
		}
		return ""
	}
	// A similar hit serves the result computed for another view of the
	// same object, so confidence may differ; the label may not.
	rr, err := wire.UnmarshalRecognitionResult(got)
	if err != nil {
		return "malformed result"
	}
	if rr.Label != s.labels[want] {
		return "wrong label"
	}
	return ""
}

// phase is what one connection did in one stretch of sending.
type phase struct {
	attempted int
	succeeded int
	failed    int // error frames, wrong type, failed validation and timeouts
	lat       []int64
	why       map[string]int
	start     int64 // nowNanos at the first send
	end       int64 // nowNanos when the last reply was in
}

// run keeps window requests outstanding until d has passed or limit
// requests were sent (limit 0 = no limit), then waits for the replies.
func (c *conn) run(window int, d time.Duration, limit int) phase {
	free := make([]int, window)
	for i := range free {
		free[i] = i
	}
	var busy [maxWindow]bool // slots with a request outstanding
	c.lat = c.lat[:0]
	clear(c.why)
	p := phase{start: nowNanos(), why: map[string]int{}}
	deadline := p.start + int64(d)
	// The timer is armed for the oldest outstanding request, but only when
	// it fires: nothing sent after it was armed can be due before it.
	timeout := time.NewTimer(c.timeout)
	defer timeout.Stop()

	outstanding := 0
	// wait blocks for one reply; false means the phase is over — the
	// connection died or a request timed out.
	wait := func() bool {
		for {
			select {
			case s := <-c.freed:
				free = append(free, s)
				busy[s] = false
				outstanding--
				return true
			case <-c.dead:
				p.why[fmt.Sprintf("connection lost: %v", c.err)] += outstanding
				return false
			case <-timeout.C:
				oldest := nowNanos()
				for s := range busy {
					if busy[s] {
						oldest = min(oldest, c.slots[s].sent.Load())
					}
				}
				if left := oldest + int64(c.timeout) - nowNanos(); left > 0 {
					timeout.Reset(time.Duration(left))
					continue
				}
				p.why["timeout"] += outstanding
				c.abort() // the late replies have no slot to land in
				return false
			}
		}
	}
	alive := true
	for alive && nowNanos() < deadline && (limit == 0 || p.attempted < limit) {
		if len(free) == 0 {
			alive = wait()
			continue
		}
		s := free[len(free)-1]
		free = free[:len(free)-1]
		p.attempted++
		if err := c.send(s); err != nil {
			p.why[fmt.Sprintf("write: %v", err)] += outstanding + 1
			c.abort()
			alive = false
			break
		}
		busy[s] = true
		outstanding++
	}
	for alive && outstanding > 0 {
		alive = wait()
	}
	p.end = nowNanos()
	// Every slot is back (or the reader has exited): its tallies are ours.
	p.succeeded = len(c.lat)
	p.failed = p.attempted - p.succeeded
	p.lat = append([]int64(nil), c.lat...)
	for reason, n := range c.why {
		p.why[reason] += n
	}
	return p
}

// send writes the connection's next request under slot s.
func (c *conn) send(s int) error {
	r := c.st.at(c.index, c.cursor)
	c.cursor++
	c.seq++
	id := c.seq*maxWindow + uint64(s)
	c.head = append(c.head[:0], r.head...)
	binary.LittleEndian.PutUint64(c.head[4:], id)
	sl := &c.slots[s]
	sl.id.Store(id)
	sl.want.Store(int64(r.want))
	start := nowNanos()
	sl.sent.Store(start)
	var err error
	if r.payload == nil {
		_, err = c.nc.Write(c.head)
	} else {
		// One writev: the shared payload is never copied in user space.
		bufs := net.Buffers{c.head, r.payload}
		_, err = bufs.WriteTo(c.nc)
	}
	if c.trace {
		c.wspans = append(c.wspans, genSpan{id, start, nowNanos()})
	}
	return err
}
