package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/edge-immersion/coic/internal/feature"
)

// The field codec. Every body type states its layout exactly once, as a
// fields method that names its fields in wire order through the
// primitives below; the cursor's mode decides what walking that
// description does. Marshal walks it twice (size, then encode into one
// exactly-sized buffer), Unmarshal walks it once, and PeekQoS/PeekTrace
// walk it in skip mode to reach the trailer without materialising
// anything on the way. Bounds are checked in one place (take) and the
// first failure sticks: after it every primitive is a no-op, so a
// description never tests for errors between fields.
//
// Buffer ownership. Decoded []byte fields alias the body they were decoded
// from; strings, descriptors and lists are copies. ReadMessage allocates a
// fresh body for every frame and nothing reuses it, so a body belongs to
// whatever was decoded from it — a caller that decodes from a buffer it
// will overwrite must copy the blobs it keeps. Aliased fields have their
// capacity clipped, so appending to one reallocates instead of writing
// over the rest of the body.

// mode is what a cursor does with each field it walks.
type mode uint8

const (
	sizing   mode = iota // count the field's encoded bytes (the zero cursor)
	encoding             // append the field to buf
	decoding             // take the field from buf and store it
	skipping             // take the field from buf, storing only fixed-width values
)

// cursor is one walk over one body.
type cursor struct {
	mode mode
	name string // decoding: the body's name, for error text
	buf  []byte // encoding: the body so far; decoding, skipping: the bytes not yet taken
	n    int    // sizing: the bytes counted so far
	err  error  // the first failure; wraps ErrBadMessage

	seen peeked // the trailer the walk ended on
}

// peeked is what PeekQoS and PeekTrace want from a skipping walk: the
// scheduling trailer it ended on.
type peeked struct {
	class    QoS
	deadline int64
	trace    uint64
}

// trailerSeen is the result of a skipping walk: the trailer, or zeros
// (best-effort, no deadline, no trace) if the body was malformed.
func (c *cursor) trailerSeen() peeked {
	if c.err != nil {
		return peeked{}
	}
	return c.seen
}

// encoder turns a finished sizing walk into the encoding walk over a
// buffer of exactly the size counted. A failed walk stays a sizing one:
// walking it again is harmless and bytes reports the failure.
func (c *cursor) encoder() *cursor {
	if c.err == nil {
		c.buf, c.mode = make([]byte, 0, c.n), encoding
	}
	return c
}

// bytes is the result of an encoding walk.
func (c *cursor) bytes() ([]byte, error) {
	if c.err != nil {
		return nil, c.err
	}
	return c.buf, nil
}

// decoder starts a decoding walk over a body of the named type.
func decoder(name string, body []byte) cursor {
	return cursor{mode: decoding, name: name, buf: body}
}

// skipper starts a skipping walk over body.
func skipper(body []byte) cursor {
	return cursor{mode: skipping, buf: body}
}

// end is the result of a decoding walk: its first failure, or a failure
// if the description did not account for every byte of the body.
func (c *cursor) end() error {
	if c.err == nil && len(c.buf) != 0 {
		c.fail("%d trailing bytes", len(c.buf))
	}
	return c.err
}

// fail records the walk's first failure.
func (c *cursor) fail(format string, args ...any) {
	if c.err != nil {
		return
	}
	what := ""
	if c.name != "" {
		what = c.name + ": "
	}
	c.err = fmt.Errorf("%w: %s%s", ErrBadMessage, what, fmt.Sprintf(format, args...))
}

// need reports whether a body being decoded or skipped still holds n
// more bytes, failing the walk if not. It is the package's one bounds
// check: every field read goes through it.
func (c *cursor) need(n int) bool {
	if c.err == nil && uint(n) <= uint(len(c.buf)) {
		return true
	}
	c.short(n)
	return false
}

// short fails the walk for want of n more bytes; it is apart from need so
// that need stays small enough to inline into every primitive.
//
//go:noinline
func (c *cursor) short(n int) {
	c.fail("need %d bytes, %d left", n, len(c.buf))
}

// take removes the next n bytes from a body being decoded or skipped.
func (c *cursor) take(n int) []byte {
	if !c.need(n) {
		return nil
	}
	b := c.buf[:n:n]
	c.buf = c.buf[n:]
	return b
}

func (c *cursor) u8(p *uint8) {
	switch c.mode {
	case sizing:
		c.n++
	case encoding:
		c.buf = append(c.buf, *p)
	default:
		if c.need(1) {
			*p, c.buf = c.buf[0], c.buf[1:]
		}
	}
}

func (c *cursor) u16(p *uint16) {
	switch c.mode {
	case sizing:
		c.n += 2
	case encoding:
		c.buf = binary.LittleEndian.AppendUint16(c.buf, *p)
	default:
		if c.need(2) {
			*p, c.buf = binary.LittleEndian.Uint16(c.buf), c.buf[2:]
		}
	}
}

func (c *cursor) u32(p *uint32) {
	switch c.mode {
	case sizing:
		c.n += 4
	case encoding:
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *p)
	default:
		if c.need(4) {
			*p, c.buf = binary.LittleEndian.Uint32(c.buf), c.buf[4:]
		}
	}
}

func (c *cursor) u64(p *uint64) {
	switch c.mode {
	case sizing:
		c.n += 8
	case encoding:
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *p)
	default:
		if c.need(8) {
			*p, c.buf = binary.LittleEndian.Uint64(c.buf), c.buf[8:]
		}
	}
}

// Signed and floating-point fields travel as the unsigned integer with
// the same bits.
func (c *cursor) i32(p *int32)   { u := uint32(*p); c.u32(&u); *p = int32(u) }
func (c *cursor) i64(p *int64)   { u := uint64(*p); c.u64(&u); *p = int64(u) }
func (c *cursor) f32(p *float32) { u := math.Float32bits(*p); c.u32(&u); *p = math.Float32frombits(u) }
func (c *cursor) f64(p *float64) { u := math.Float64bits(*p); c.u64(&u); *p = math.Float64frombits(u) }

// length walks the width-byte prefix (1, 2 or 4) of a variable-length
// field that holds n bytes (or, for a list, n elements) and returns the
// count to walk: n when writing, the prefix's value when reading.
func (c *cursor) length(width, n int) int {
	if c.mode <= encoding && uint64(n) > 1<<(8*width)-1 {
		c.fail("%d-byte field overflows its u%d length prefix", n, 8*width)
	}
	switch width {
	case 1:
		v := uint8(n)
		c.u8(&v)
		return int(v)
	case 2:
		v := uint16(n)
		c.u16(&v)
		return int(v)
	default:
		v := uint32(n)
		c.u32(&v)
		return int(v)
	}
}

// str walks a string behind a width-byte length prefix. Decoding copies.
func (c *cursor) str(width int, p *string) {
	n := c.length(width, len(*p))
	switch c.mode {
	case sizing:
		c.n += n
	case encoding:
		c.buf = append(c.buf, *p...)
	case decoding:
		*p = string(c.take(n))
	case skipping:
		c.take(n)
	}
}

func (c *cursor) str8(p *string)  { c.str(1, p) }
func (c *cursor) str16(p *string) { c.str(2, p) }

// blob walks a byte slice behind a u32 length prefix. Decoding aliases
// the body (see the ownership rule above); an empty blob decodes as nil.
func (c *cursor) blob(p *[]byte) {
	n := c.length(4, len(*p))
	switch c.mode {
	case sizing:
		c.n += n
	case encoding:
		c.buf = append(c.buf, *p...)
	default:
		if b := c.take(n); len(b) > 0 {
			*p = b
		}
	}
}

// desc walks a descriptor behind a u32 length prefix. Skipping steps over
// it unparsed.
func (c *cursor) desc(p *feature.Descriptor) {
	var b []byte
	switch c.mode {
	case sizing:
		c.n += 4 + p.SizeBytes()
	case encoding:
		var err error
		if b, err = p.Marshal(); err != nil {
			c.fail("%v", err)
		}
		c.blob(&b)
	default:
		c.blob(&b)
		if c.mode == decoding && c.err == nil {
			d, err := feature.Unmarshal(b)
			if err != nil {
				c.fail("%v", err)
				return
			}
			*p = d
		}
	}
}

// repeat walks the width-byte count prefix of a list and returns the
// elements for the description to walk in turn: the list itself when
// writing, n fresh elements when reading. Each element encodes to at
// least minSize bytes, so a count the rest of the body cannot hold is
// rejected before anything is allocated.
func repeat[T any](c *cursor, width int, p *[]T, minSize int) []T {
	n := c.length(width, len(*p))
	if c.mode >= decoding {
		if c.err == nil && n > len(c.buf)/minSize {
			c.fail("count %d exceeds the %d bytes left", n, len(c.buf))
		}
		if c.err != nil || n == 0 {
			return nil
		}
		*p = make([]T, n)
	}
	return *p
}

// The optional scheduling trailer ends seven bodies — the requests the
// scheduler orders (exec, model-fetch, pano-fetch, scene-join, -publish,
// -leave) and the pushed scene-event — and comes in two encoded sizes:
//
//	qosTrailerLen:   class u8 | deadline u64 (unix microseconds UTC, 0 = none)
//	traceTrailerLen: class u8 | deadline u64 | trace u64
//
// The long form adds the client-minted trace ID; a request with no trace
// marshals to the short form, and one that also has the default class and
// no deadline to no trailer at all, so servers that predate either form
// keep accepting frames from upgraded clients that don't use the feature.
const (
	qosTrailerLen   = 9
	traceTrailerLen = 17
)

// trailer walks the scheduling trailer, which must be the last thing in
// the body: when reading, whatever is left is the trailer, and anything
// but 0, 9 or 17 bytes is malformed.
func (c *cursor) trailer(class *QoS, deadline *int64, trace *uint64) {
	present, traced := *class != QoSBestEffort || *deadline != 0 || *trace != 0, *trace != 0
	if c.mode >= decoding {
		switch left := len(c.buf); {
		case c.err != nil:
			return
		case left != 0 && left != qosTrailerLen && left != traceTrailerLen:
			c.fail("trailing %d bytes are not a QoS trailer", left)
			return
		default:
			present, traced = left != 0, left == traceTrailerLen
		}
	}
	if present {
		c.u8((*uint8)(class))
		c.i64(deadline)
		if traced {
			c.u64(trace)
		}
	}
	c.seen = peeked{*class, *deadline, *trace}
}
