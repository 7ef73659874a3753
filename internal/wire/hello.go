package wire

import "fmt"

// HelloVersion is the current structured hello version. Version 0 is the
// legacy ad-hoc form: a 0–2 byte body of [mode[, flags]] with no tenant.
const HelloVersion uint8 = 1

// Hello mode bytes (the execution mode the connection runs under). The
// values match internal/core.Mode and are on the wire; never reorder.
const (
	HelloModeOrigin uint8 = 0 // bypass the cache — the paper's baseline
	HelloModeCoIC   uint8 = 1 // full CoIC protocol
)

// Hello is the structured connection preamble carried in a MsgHello body.
// It replaces the legacy role+flags byte pair: besides the execution mode
// and connection flags it authenticates a tenant onto the connection
// (per-tenant admission quotas, fair-share scheduling and cache shares
// all key off it). An empty Tenant means the implicit "default" tenant —
// the server, not the codec, applies that mapping.
type Hello struct {
	// Version selects the encoding: 0 emits the legacy 1–2 byte form
	// (Tenant and Token must be empty), >=1 the structured form below.
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

// Marshal encodes the hello body. Version 0 is the legacy form: [mode]
// when Flags is zero, [mode, flags] otherwise — byte-identical to what
// pre-tenant clients send.
func (h Hello) Marshal() ([]byte, error) {
	if h.Version == 0 {
		if h.Tenant != "" || h.Token != "" {
			return nil, fmt.Errorf("%w: legacy (version 0) hello cannot carry a tenant", ErrBadMessage)
		}
		if h.Flags != 0 {
			return []byte{h.Mode, h.Flags}, nil
		}
		return []byte{h.Mode}, nil
	}
	var c cursor
	h.fields(&c)
	h.fields(c.encoder())
	return c.bytes()
}

// UnmarshalHello decodes a MsgHello body, accepting both forms. Bodies of
// 0–2 bytes are the legacy version-0 preamble ([mode[, flags]]; empty
// means CoIC) — a structured hello is always >= 5 bytes, and its first
// byte (version >= 1) can never collide with a legacy length: the only
// 1-byte legacy bodies are a bare mode byte, which decode as version 0
// here, never as a truncated structured frame.
func UnmarshalHello(body []byte) (h Hello, err error) {
	if len(body) <= 2 {
		h = Hello{Version: 0, Mode: HelloModeCoIC}
		if len(body) >= 1 {
			h.Mode = body[0]
		}
		if len(body) == 2 {
			h.Flags = body[1]
		}
		return h, nil
	}
	c := decoder("hello", body)
	h.fields(&c)
	return h, c.end()
}
