package wire

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadMessage feeds arbitrary bytes to the frame decoder. The
// invariants: never panic, never allocate past MaxBody, and any frame
// that decodes re-encodes to exactly the bytes the reader consumed (the
// frame format has one canonical encoding). Each input is also read
// through ReadMessageInto with a dirty, oversized buffer, which must
// give the same type, ID, body and error: no stale byte ever shows.
func FuzzReadMessage(f *testing.F) {
	joinBody, err := (SceneJoin{Scene: "gallery", QoS: QoSInteractive, TraceID: 0xAB}).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	publishBody, err := (ScenePublish{Scene: "gallery", Key: "pose/a", Value: []byte{1, 2}, TraceID: 0xCD}).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	eventBody, err := (SceneEvent{Scene: "gallery", Key: "pose/a", Value: []byte{1, 2}, Seq: 3, Version: 3, TraceID: 0xCD}).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	leaveBody, err := (SceneLeave{Scene: "gallery"}).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	memberBody, err := (Membership{
		From:  "edge-a:1",
		Epoch: 5,
		Members: []MemberEntry{
			{ID: "edge-a:1", Incarnation: 2, Status: MemberAlive},
			{ID: "edge-b:1", Incarnation: 1, Status: MemberSuspect},
			{ID: "edge-c:1", Incarnation: 4, Status: MemberDead},
		},
	}).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range []Message{
		{Type: MsgHello, RequestID: 1, Body: []byte{0}},
		{Type: MsgExec, RequestID: 42, Body: []byte("payload")},
		{Type: MsgError, RequestID: 7, Body: nil},
		{Type: MsgSceneJoin, RequestID: 2, Body: joinBody},
		{Type: MsgScenePublish, RequestID: 3, Body: publishBody},
		{Type: MsgSceneEvent, RequestID: 0, Body: eventBody},
		{Type: MsgSceneLeave, RequestID: 4, Body: leaveBody},
		{Type: MsgMemberPing, RequestID: 5, Body: memberBody},
		{Type: MsgMemberAck, RequestID: 5, Body: memberBody},
		{Type: MsgMemberGossip, RequestID: 6, Body: memberBody},
		{Type: MsgMemberLeave, RequestID: 7, Body: memberBody},
	} {
		enc, err := m.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{0x43, 0x49, 1, 3}) // magic + version, truncated header
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		m, err := ReadMessage(r)
		dirty := bytes.Repeat([]byte{0xEE}, len(data)+HeaderSize)
		pm, perr := ReadMessageInto(bytes.NewReader(data), func(MsgType, int) []byte { return dirty })
		if fmt.Sprint(perr) != fmt.Sprint(err) {
			t.Fatalf("pooled read error %v, fresh read error %v", perr, err)
		}
		if pm.Type != m.Type || pm.RequestID != m.RequestID || !bytes.Equal(pm.Body, m.Body) || cap(pm.Body) != len(pm.Body) {
			t.Fatalf("pooled read %v/%d/%d bytes (cap %d), fresh read %v/%d/%d bytes",
				pm.Type, pm.RequestID, len(pm.Body), cap(pm.Body), m.Type, m.RequestID, len(m.Body))
		}
		if err != nil {
			return
		}
		if len(m.Body) > MaxBody {
			t.Fatalf("decoded body of %d bytes exceeds MaxBody", len(m.Body))
		}
		consumed := len(data) - r.Len()
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("decoded frame fails to re-encode: %v", err)
		}
		if !bytes.Equal(enc, data[:consumed]) {
			t.Fatalf("re-encode diverges from the %d consumed bytes", consumed)
		}
	})
}

// FuzzBodyRoundTrip feeds arbitrary bytes to every body decoder: kind
// picks a goldenCase (so every body type, and through TestGoldenBodies
// every frame type, is covered) and body is decoded as that type. The
// invariants: the decoder and the trailer peekers never panic; a rejected
// body is rejected with ErrBadMessage; an accepted one decodes to a value
// no bigger than a small multiple of the body (a hostile count cannot
// make the decoder allocate), whose canonical re-encoding is a fixed
// point of decode∘encode; and for the types that carry the scheduling
// trailer, PeekQoS/PeekTrace agree with the decoder on both the input and
// the canonical form.
//
// The seeds are the golden bodies; testdata/fuzz/FuzzBodyRoundTrip also
// holds the corpus of the exec-only target this one replaced.
func FuzzBodyRoundTrip(f *testing.F) {
	bodies := loadGoldenBodies(f)
	for i, gc := range goldenCases {
		f.Add(uint8(i), bodies[gc.name].bytes)
		f.Add(uint8(i), []byte{})
	}
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		gc := goldenCases[int(kind)%len(goldenCases)]
		frame, _, _ := strings.Cut(gc.name, "/")
		var mt MsgType // stays 0 for the bodies that are not frames
		for _, candidate := range AllMsgTypes() {
			if candidate.String() == frame {
				mt = candidate
			}
		}
		agree := func(stage string, b []byte, v any) {
			rv := reflect.ValueOf(v)
			class, deadline := PeekQoS(mt, b)
			trace := PeekTrace(mt, b)
			if frameTypes[mt].peek == nil {
				if class != QoSBestEffort || deadline != 0 || trace != 0 {
					t.Fatalf("%s: %s: peeked (%v, %d, %x) from a type with no trailer", gc.name, stage, class, deadline, trace)
				}
				return
			}
			if want := QoS(rv.FieldByName("QoS").Uint()); class != want {
				t.Fatalf("%s: %s: PeekQoS class = %v, decoder says %v", gc.name, stage, class, want)
			}
			if f := rv.FieldByName("Deadline"); f.IsValid() && deadline != f.Int() {
				t.Fatalf("%s: %s: PeekQoS deadline = %d, decoder says %d", gc.name, stage, deadline, f.Int())
			}
			if want := rv.FieldByName("TraceID").Uint(); trace != want {
				t.Fatalf("%s: %s: PeekTrace = %x, decoder says %x", gc.name, stage, trace, want)
			}
		}

		PeekQoS(mt, body) // must not panic, whatever the decoder says
		PeekTrace(mt, body)
		v, err := gc.decode(body)
		if err != nil {
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("%s: rejected with %v, want an ErrBadMessage", gc.name, err)
			}
			return
		}
		if got, limit := footprint(reflect.ValueOf(v)), 8*len(body)+256; got > limit {
			t.Fatalf("%s: a %d-byte body decoded to a %d-byte value (limit %d)", gc.name, len(body), got, limit)
		}
		agree("input", body, v)

		canon, err := v.(interface{ Marshal() ([]byte, error) }).Marshal()
		if err != nil {
			t.Fatalf("%s: decoded value fails to marshal: %v", gc.name, err)
		}
		v2, err := gc.decode(canon)
		if err != nil {
			t.Fatalf("%s: canonical form fails to decode: %v", gc.name, err)
		}
		agree("canonical form", canon, v2)
		canon2, err := v2.(interface{ Marshal() ([]byte, error) }).Marshal()
		if err != nil || !bytes.Equal(canon, canon2) {
			t.Fatalf("%s: decode∘encode is not a fixed point (%v)\n first %x\nsecond %x", gc.name, err, canon, canon2)
		}
	})
}

// footprint is the memory a decoded value holds: its own size plus
// everything its strings and slices point at.
func footprint(v reflect.Value) int {
	n := int(v.Type().Size())
	switch v.Kind() {
	case reflect.String:
		n += v.Len()
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			n += footprint(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += footprint(v.Field(i)) - int(v.Field(i).Type().Size())
		}
	}
	return n
}
