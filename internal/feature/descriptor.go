package feature

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Kind discriminates descriptor types on the wire.
type Kind uint8

// Descriptor kinds. Values are part of the wire format.
const (
	KindVector Kind = 1 // DNN feature vector (recognition)
	KindHash   Kind = 2 // content hash (3D model, panorama)
)

// Descriptor is the cache key a CoIC client attaches to a request.
type Descriptor struct {
	Kind Kind
	// Vec is set when Kind == KindVector. It should be L2-normalised;
	// NewVector enforces this.
	Vec []float32
	// Sum is set when Kind == KindHash.
	Sum [32]byte
}

// NewVector builds a vector descriptor, normalising a copy of v to unit
// L2 norm so distances are scale-free.
func NewVector(v []float32) Descriptor {
	c := make([]float32, len(v))
	copy(c, v)
	var n float64
	for _, x := range c {
		n += float64(float64(x) * float64(x)) // rounded apart: no FMA on any GOARCH
	}
	if n > 0 {
		inv := float32(1 / math.Sqrt(n))
		for i := range c {
			c[i] *= inv
		}
	}
	return Descriptor{Kind: KindVector, Vec: c}
}

// NewHash builds a hash descriptor over content.
func NewHash(content []byte) Descriptor {
	return Descriptor{Kind: KindHash, Sum: sha256.Sum256(content)}
}

// Key returns a compact string form usable as an exact-match map key.
// Vector descriptors hash their exact bit pattern — exact duplicates
// short-circuit without a similarity search.
func (d Descriptor) Key() string {
	switch d.Kind {
	case KindHash:
		return string(d.Sum[:])
	case KindVector:
		h := sha256.New()
		var b [4]byte
		for _, f := range d.Vec {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(f))
			h.Write(b[:])
		}
		return string(h.Sum(nil))
	default:
		return ""
	}
}

// L2Distance returns the Euclidean distance between two equal-length
// vectors. For unit vectors it is monotone in cosine distance:
// ‖a−b‖² = 2(1−cosθ).
func L2Distance(a, b []float32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("feature: dimension mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += float64(d * d)
	}
	return math.Sqrt(s)
}

// Wire encoding: kind u8 | (vector: dim u32, float32 LE ...) or
// (hash: 32 bytes).

// ErrBadDescriptor is returned for malformed descriptor encodings.
var ErrBadDescriptor = errors.New("feature: malformed descriptor")

// Marshal encodes the descriptor for the CoIC probe message.
func (d Descriptor) Marshal() ([]byte, error) {
	switch d.Kind {
	case KindVector:
		out := make([]byte, 1+4+4*len(d.Vec))
		out[0] = byte(KindVector)
		binary.LittleEndian.PutUint32(out[1:], uint32(len(d.Vec)))
		for i, f := range d.Vec {
			binary.LittleEndian.PutUint32(out[5+4*i:], math.Float32bits(f))
		}
		return out, nil
	case KindHash:
		out := make([]byte, 1+32)
		out[0] = byte(KindHash)
		copy(out[1:], d.Sum[:])
		return out, nil
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrBadDescriptor, d.Kind)
	}
}

// Unmarshal decodes a descriptor produced by Marshal.
func Unmarshal(data []byte) (Descriptor, error) {
	if len(data) < 1 {
		return Descriptor{}, fmt.Errorf("%w: empty", ErrBadDescriptor)
	}
	switch Kind(data[0]) {
	case KindVector:
		if len(data) < 5 {
			return Descriptor{}, fmt.Errorf("%w: truncated vector header", ErrBadDescriptor)
		}
		dim := binary.LittleEndian.Uint32(data[1:])
		if dim > 1<<20 {
			return Descriptor{}, fmt.Errorf("%w: absurd dimension %d", ErrBadDescriptor, dim)
		}
		if len(data) != 5+4*int(dim) {
			return Descriptor{}, fmt.Errorf("%w: vector length %d != header %d", ErrBadDescriptor, len(data), dim)
		}
		v := make([]float32, dim)
		for i := range v {
			v[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[5+4*i:]))
		}
		return Descriptor{Kind: KindVector, Vec: v}, nil
	case KindHash:
		if len(data) != 33 {
			return Descriptor{}, fmt.Errorf("%w: hash length %d", ErrBadDescriptor, len(data))
		}
		var d Descriptor
		d.Kind = KindHash
		copy(d.Sum[:], data[1:])
		return d, nil
	default:
		return Descriptor{}, fmt.Errorf("%w: unknown kind %d", ErrBadDescriptor, data[0])
	}
}

// SizeBytes reports the marshalled size, the number CoIC charges to the
// uplink when a client sends a probe.
func (d Descriptor) SizeBytes() int {
	switch d.Kind {
	case KindVector:
		return 5 + 4*len(d.Vec)
	case KindHash:
		return 33
	default:
		return 1
	}
}
