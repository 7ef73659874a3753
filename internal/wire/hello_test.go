package wire

import (
	"errors"
	"strings"
	"testing"
)

func TestHelloRoundTrip(t *testing.T) {
	cases := []Hello{
		{Version: HelloVersion, Mode: HelloModeCoIC},
		{Version: HelloVersion, Mode: HelloModeOrigin, Flags: HelloFlagUnordered},
		{Version: HelloVersion, Mode: HelloModeCoIC, Tenant: "ar-app"},
		{Version: HelloVersion, Mode: HelloModeCoIC, Flags: HelloFlagUnordered,
			Tenant: "vr-suite", Token: "s3cret-token"},
		{Version: HelloVersion, Mode: HelloModeCoIC,
			Tenant: strings.Repeat("t", 255), Token: strings.Repeat("k", 255)},
	}
	for _, h := range cases {
		body, err := h.Marshal()
		if err != nil {
			t.Fatalf("%+v: marshal: %v", h, err)
		}
		got, err := UnmarshalHello(body)
		if err != nil {
			t.Fatalf("%+v: unmarshal: %v", h, err)
		}
		if got != h {
			t.Errorf("round trip: got %+v, want %+v", got, h)
		}
	}
}

func TestHelloMarshalRejectsOversize(t *testing.T) {
	if _, err := (Hello{Version: 1, Tenant: strings.Repeat("t", 256)}).Marshal(); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("oversize tenant: err = %v, want ErrBadMessage", err)
	}
	if _, err := (Hello{Version: 1, Token: strings.Repeat("k", 256)}).Marshal(); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("oversize token: err = %v, want ErrBadMessage", err)
	}
}

func TestUnmarshalHelloMalformed(t *testing.T) {
	cases := [][]byte{
		{},                        // the retired version-0 forms: empty,
		{HelloModeOrigin},         // [mode]
		{HelloModeCoIC, 1},        // and [mode, flags]
		{0, 1, 0, 0, 0},           // structured framing with version 0
		{1, 1, 0},                 // too short for a structured hello
		{1, 1, 0, 0},              // missing token length
		{1, 1, 0, 9, 'a', 0},      // tenant length overruns the body
		{1, 1, 0, 1, 'a', 5},      // token length overruns the body
		{1, 1, 0, 0, 0, 'x'},      // trailing garbage past the token
		{1, 1, 0, 1, 'a', 0, 'x'}, // trailing garbage, nonempty tenant
	}
	for _, body := range cases {
		if _, err := UnmarshalHello(body); !errors.Is(err, ErrBadMessage) {
			t.Errorf("body %v: err = %v, want ErrBadMessage", body, err)
		}
	}
	if _, err := (Hello{Mode: HelloModeCoIC}).Marshal(); !errors.Is(err, ErrBadMessage) {
		t.Errorf("version-0 marshal: err = %v, want ErrBadMessage", err)
	}
}
