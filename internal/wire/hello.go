package wire

// HelloVersion is the current structured hello version. Version 0 is
// refused: it names the retired 0–2 byte [mode[, flags]] form.
const HelloVersion uint8 = 1

// Hello mode bytes (the execution mode the connection runs under). The
// values match internal/core.Mode and are on the wire; never reorder.
const (
	HelloModeOrigin uint8 = 0 // bypass the cache — the paper's baseline
	HelloModeCoIC   uint8 = 1 // full CoIC protocol
)

// Hello is the structured connection preamble carried in a MsgHello body,
// the first frame of every connection. Besides the execution mode and
// connection flags it authenticates a tenant onto the connection
// (per-tenant admission quotas, fair-share scheduling and cache shares
// all key off it). An empty Tenant means the implicit "default" tenant —
// the server, not the codec, applies that mapping.
type Hello struct {
	// Version must be at least 1; a version-0 hello neither encodes nor
	// decodes.
	Version uint8
	Mode    uint8 // HelloModeOrigin or HelloModeCoIC
	Flags   uint8 // HelloFlagUnordered, ...
	Tenant  string
	Token   string
}

// The structured (version >= 1) form. Tenant and Token are limited to
// 255 bytes by their u8 length prefixes.
func (h *Hello) fields(c *cursor) {
	c.u8(&h.Version)
	if h.Version == 0 {
		c.fail("structured hello with version 0")
	}
	c.u8(&h.Mode)
	c.u8(&h.Flags)
	c.str8(&h.Tenant)
	c.str8(&h.Token)
}

// Marshal encodes the hello body.
func (h Hello) Marshal() ([]byte, error) {
	var c cursor
	h.fields(&c)
	h.fields(c.encoder())
	return c.bytes()
}

// UnmarshalHello decodes a MsgHello body. A body shorter than the
// structured form's 5 bytes, or one naming version 0, fails with
// ErrBadMessage.
func UnmarshalHello(body []byte) (h Hello, err error) {
	c := decoder("hello", body)
	h.fields(&c)
	return h, c.end()
}
