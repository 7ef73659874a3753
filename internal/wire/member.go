package wire

// Membership bodies. All four membership frames (member-ping, member-ack,
// member-gossip, member-leave) carry the same body: the sender's full
// epoch-versioned member list. SWIM-style dissemination usually piggybacks
// deltas; edge fleets are small (tens of nodes), so full-state exchange
// keeps the protocol trivially convergent — any frame in either direction
// is a complete anti-entropy round. The frame type, not the body, says
// what the sender wants: ping expects an ack, gossip/leave are
// fire-and-forget announcements (the receiver still acks with its own
// view, which the sender merges for free).
//
// Member status values on the wire. Never reorder.
const (
	MemberAlive   uint8 = 0
	MemberSuspect uint8 = 1
	MemberDead    uint8 = 2
)

// MemberEntry is one row of a gossiped member list. ID is the member's
// dialable edge address — the same string the federation ring partitions
// on. Incarnation is the member's self-asserted liveness generation: only
// the member itself bumps it (to refute a suspicion), and a higher
// incarnation always supersedes a lower one regardless of status.
type MemberEntry struct {
	ID          string
	Incarnation uint64
	Status      uint8
}

// Membership is the body of every membership frame: who is speaking, the
// epoch of their view, and everything they believe about the fleet.
type Membership struct {
	From    string // sender's member ID
	Epoch   uint64 // sender's view epoch (monotonic per sender)
	Members []MemberEntry
}

// minMemberEntry is the encoded size of an entry with an empty ID:
// idLen u16 | incarnation u64 | status u8.
const minMemberEntry = 2 + 8 + 1

func (m *Membership) fields(c *cursor) {
	c.str16(&m.From)
	c.u64(&m.Epoch)
	members := repeat(c, 2, &m.Members, minMemberEntry)
	for i := range members {
		e := &members[i]
		c.str16(&e.ID)
		c.u64(&e.Incarnation)
		c.u8(&e.Status)
		if e.Status > MemberDead {
			c.fail("bad member status %d", e.Status)
		}
	}
}

// Marshal encodes the body.
func (m Membership) Marshal() ([]byte, error) {
	var c cursor
	m.fields(&c)
	m.fields(c.encoder())
	return c.bytes()
}

// UnmarshalMembership decodes a membership body.
func UnmarshalMembership(body []byte) (m Membership, err error) {
	c := decoder("membership", body)
	m.fields(&c)
	return m, c.end()
}
