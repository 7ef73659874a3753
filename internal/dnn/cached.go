package dnn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"

	"github.com/edge-immersion/coic/internal/tensor"
)

// CachedRunner executes a network while memoising per-layer outputs keyed
// by the hash of each layer's input. This is the paper's "ongoing work":
// identifying reusable IC workload fine-grained, at the granularity of "the
// result of a specific DNN layer", instead of whole-task results. When two
// requests share a prefix of identical activations — same frame uploaded by
// co-located users, same pre-processed crop — every shared layer is a hit
// and only the divergent suffix is recomputed.
//
// Concurrency contract: a CachedRunner is safe for concurrent use by
// multiple goroutines. The contract rests on two invariants guarded by
// TestCachedRunnerConcurrencyContract:
//
//   - every access to entries/hits/misses happens inside a single
//     critical section per layer step, so a concurrent Reset can never
//     interleave between a lookup and its counter update;
//   - memoised tensors are write-once — inserted as private clones and
//     never mutated after — which is what makes cloning a fetched entry
//     *outside* the lock sound.
//
// A CachedRunner must not be copied after first use (it would share the
// mutex but fork the map); go vet's copylocks check enforces this via the
// embedded sync.Mutex.
type CachedRunner struct {
	Net *Network

	mu      sync.Mutex
	entries map[layerKey]*tensor.Tensor
	maxEnts int

	hits   uint64
	misses uint64
}

type layerKey struct {
	layer int
	hash  uint64
}

// NewCachedRunner wraps net with a per-layer memo bounded to maxEntries
// cached activations (0 means a generous default).
func NewCachedRunner(net *Network, maxEntries int) *CachedRunner {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	return &CachedRunner{
		Net:     net,
		entries: make(map[layerKey]*tensor.Tensor),
		maxEnts: maxEntries,
	}
}

// hashTensor digests a tensor's shape and exact bit pattern.
func hashTensor(t *tensor.Tensor) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, d := range t.Shape() {
		binary.LittleEndian.PutUint32(b[:], uint32(d))
		h.Write(b[:])
	}
	for _, f := range t.Data {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(f))
		h.Write(b[:])
	}
	return h.Sum64()
}

// Forward runs the network, reusing memoised layer outputs where the layer
// input hash matches. Returned tensors are never aliased into the cache:
// hits are cloned out.
func (c *CachedRunner) Forward(in *tensor.Tensor) *tensor.Tensor {
	x := in
	for i, l := range c.Net.Layers {
		x = c.step(i, l, x)
	}
	return x
}

// step advances one layer: a hit returns a clone of the memo entry, a
// miss computes, memoises a private clone and returns the freshly
// computed tensor. The lookup and its counter update share one critical
// section; the layer compute and the hit clone deliberately run outside
// the lock (entries are write-once, so the pointer stays valid across
// Reset).
func (c *CachedRunner) step(layer int, l Layer, x *tensor.Tensor) *tensor.Tensor {
	key := layerKey{layer: layer, hash: hashTensor(x)}
	c.mu.Lock()
	if cached, ok := c.entries[key]; ok {
		c.hits++
		c.mu.Unlock()
		return cached.Clone()
	}
	c.mu.Unlock()
	out := l.Forward(x)
	c.mu.Lock()
	c.misses++
	if len(c.entries) < c.maxEnts {
		if _, dup := c.entries[key]; !dup {
			c.entries[key] = out.Clone()
		}
	}
	c.mu.Unlock()
	return out
}

// Stats reports cumulative layer-level hits and misses.
func (c *CachedRunner) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Reset drops all memoised activations and zeroes the counters.
func (c *CachedRunner) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[layerKey]*tensor.Tensor)
	c.hits, c.misses = 0, 0
}

// Entries reports how many activations are currently memoised.
func (c *CachedRunner) Entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
