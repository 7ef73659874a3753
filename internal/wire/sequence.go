package wire

import "fmt"

// Pipelined serving: a CoIC server reads many requests off one connection
// before the first reply is written, processes them on a worker pool, and
// must still write replies in arrival order — the protocol's framing has
// no out-of-order delivery, so a client that pipelines K requests reads
// exactly K replies back in the order it sent them. Each request is
// tagged with a per-connection sequence number at read time; workers
// finish in any order; the ReplyBuffer reorders completions back into the
// sequence before they touch the socket.

// ReplyBuffer reorders out-of-sequence replies of type T (a Message, or
// a caller's type that carries one). It is a pure data structure (no I/O,
// no locking): one writer goroutine owns it and calls Add with each
// completed reply, writing whatever ready prefix comes back.
type ReplyBuffer[T any] struct {
	next    uint64
	pending map[uint64]T
	ready   []T
}

// NewReplyBuffer expects sequences starting at start (the first request
// read off a connection is tagged 1 by convention).
func NewReplyBuffer[T any](start uint64) *ReplyBuffer[T] {
	return &ReplyBuffer[T]{next: start, pending: map[uint64]T{}}
}

// Add accepts the reply for seq and returns the in-order run of replies
// now ready to write (empty if seq is ahead of a still-outstanding one).
// The run is the buffer's own scratch, valid until the next Add.
// Sequences must be unique and never precede the buffer's start; both
// indicate a server bug, not a peer-controlled condition, so they panic.
func (b *ReplyBuffer[T]) Add(seq uint64, m T) []T {
	if seq < b.next {
		panic(fmt.Sprintf("wire: reply sequence %d already flushed (next %d)", seq, b.next))
	}
	if _, dup := b.pending[seq]; dup {
		panic(fmt.Sprintf("wire: duplicate reply sequence %d", seq))
	}
	if seq != b.next {
		b.pending[seq] = m
		return nil
	}
	clear(b.ready) // drop the last run's references before reusing its array
	b.ready = append(b.ready[:0], m)
	b.next++
	for {
		nm, ok := b.pending[b.next]
		if !ok {
			return b.ready
		}
		delete(b.pending, b.next)
		b.ready = append(b.ready, nm)
		b.next++
	}
}

// Pending reports how many replies are parked waiting for earlier
// sequences.
func (b *ReplyBuffer[T]) Pending() int { return len(b.pending) }
