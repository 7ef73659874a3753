// Package wire defines the CoIC protocol: framed, CRC-protected messages
// between mobile clients, edges and the cloud — and, in a federation,
// between edges. The same encoding runs over real TCP (the cmd/ daemons)
// and is byte-counted by the analytic network simulation, so experiment
// transfer sizes are the true encoded sizes, not estimates.
//
// # Frame layout (little-endian)
//
//	magic  u16  0x4943 ("IC")
//	ver    u8
//	type   u8
//	reqID  u64
//	len    u32  body length
//	crc    u32  IEEE CRC-32 of the body
//	body   len bytes
//
// # Message catalogue
//
// The frame-type table in frame.go (frameTypes) is the list of all 22
// types; AllMsgTypes and MsgType.String read it. By conversation:
//
//   - client ↔ edge ↔ cloud, the paper's Figure 1 protocol: MsgProbe /
//     MsgProbeReply (descriptor-only cache probe), MsgExec / MsgExecReply
//     (full IC task execution), MsgModelFetch / MsgModelReply (3D models),
//     MsgPanoFetch / MsgPanoReply (VR panorama frames), plus MsgError,
//     MsgHello (connection preamble) and MsgCancel;
//   - edge ↔ edge, the cache federation: MsgPeerLookup / MsgPeerReply (one
//     edge probing another's cache on a local miss — answered from the
//     local cache only, which bounds federated lookups at a single hop)
//     and MsgPeerInsert (publishing a result to the descriptor's
//     consistent-hash home edge);
//   - client ↔ edge, shared scenes: MsgSceneJoin, MsgScenePublish,
//     MsgSceneLeave, and MsgSceneEvent, the protocol's only server push;
//   - edge ↔ edge, gossip membership: MsgMemberPing, MsgMemberAck,
//     MsgMemberGossip, MsgMemberLeave, all carrying a Membership body.
//
// # Bodies
//
// Each body type states its layout once, as a fields method over the
// field codec in codec.go; Marshal, Unmarshal*, PeekQoS and PeekTrace are
// walks of that one description, and decoded []byte fields alias the
// frame body (codec.go has the ownership rule). docs/PROTOCOL.md documents
// every body layout byte by byte, and testdata/golden_bodies.txt pins one
// encoded value of each.
package wire
