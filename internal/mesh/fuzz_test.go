package mesh

import (
	"testing"
	"testing/quick"

	"github.com/edge-immersion/coic/internal/xrand"
)

// The decoders face bytes from the network; arbitrary and mutated inputs
// must produce errors, never panics or runaway allocations.

func TestDecodeCMFFuzzNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = DecodeCMF(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeOBJXFuzzNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = DecodeOBJX(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeCMFMutatedValidInput(t *testing.T) {
	// Mutations of a valid encoding must decode to a valid mesh (CRC
	// collision — astronomically unlikely) or error out; the decoder must
	// never return a mesh that fails validation.
	m := Generate(Spec{Name: "fz", Segments: 5, TextureSize: 8, TextureCount: 1, Seed: 1})
	data, err := EncodeCMF(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(99)
	for i := 0; i < 500; i++ {
		mut := append([]byte(nil), data...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		}
		got, err := DecodeCMF(mut)
		if err == nil {
			if verr := got.Validate(); verr != nil {
				t.Fatalf("decoder returned invalid mesh: %v", verr)
			}
		}
	}
}

// TestDecodeOBJXContinuationOnly feeds lines that are nothing but a
// continuation backslash: once glued they are empty, and the decoder
// must return an error or a mesh, never panic.
func TestDecodeOBJXContinuationOnly(t *testing.T) {
	for _, in := range []string{"\\", "\\\n", "v 1 2 3\n\\\n \n"} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("DecodeOBJX(%q) panicked: %v", in, r)
				}
			}()
			_, _ = DecodeOBJX([]byte(in))
		}()
	}
}
