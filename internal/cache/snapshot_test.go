package cache

import (
	"bytes"
	"testing"

	"github.com/edge-immersion/coic/internal/feature"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	src := newSim(1<<20, 0.12)
	descs := []feature.Descriptor{
		feature.NewHash([]byte("model-1")),
		feature.NewHash([]byte("pano-7")),
		feature.NewVector([]float32{1, 0, 0}),
		feature.NewVector([]float32{0, 1, 0}),
	}
	for i, d := range descs {
		if err := src.Insert(d, []byte{byte(i), byte(i + 1)}, float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	dst := newSim(1<<20, 0.12)
	n, err := dst.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(descs) {
		t.Fatalf("restored %d of %d", n, len(descs))
	}
	// Exact and similarity lookups both work on the restored cache.
	for i, d := range descs {
		v, res := dst.Lookup(d)
		if res.Outcome != OutcomeExact || v[0] != byte(i) {
			t.Fatalf("entry %d: %v %v", i, res.Outcome, v)
		}
	}
	if _, res := dst.Lookup(feature.NewVector([]float32{0.999, 0.03, 0})); res.Outcome != OutcomeSimilar {
		t.Fatalf("similarity lost across snapshot: %v", res.Outcome)
	}
	if dst.IndexLen() != 2 {
		t.Fatalf("index holds %d vectors, want 2", dst.IndexLen())
	}
}

func TestSnapshotSurvivesEvictionChurn(t *testing.T) {
	src := newSim(64, 0.1) // tiny: only the most recent entries stay
	for i := 0; i < 20; i++ {
		src.Insert(feature.NewHash([]byte{byte(i)}), val(16), 1)
	}
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst := newSim(64, 0.1)
	n, err := dst.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != src.StatsSnapshot().Store.Entries {
		t.Fatalf("restored %d, source holds %d", n, src.StatsSnapshot().Store.Entries)
	}
}

func TestRestoreIntoSmallerCacheSkips(t *testing.T) {
	src := newSim(1<<20, 0.1)
	src.Insert(feature.NewHash([]byte("big")), val(1000), 1)
	src.Insert(feature.NewHash([]byte("small")), val(10), 1)
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst := newSim(100, 0.1) // big entry cannot fit
	n, err := dst.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d, want 1 (oversized entry skipped)", n)
	}
}

func TestRestoreRejectsCorruption(t *testing.T) {
	src := newSim(1<<20, 0.1)
	src.Insert(feature.NewHash([]byte("x")), []byte("v"), 1)
	var buf bytes.Buffer
	src.Snapshot(&buf)
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":     {},
		"truncated": good[:len(good)-3],
		"bit flip":  flipByte(good, 8),
		"bad magic": flipByte(good, 0),
	}
	for name, data := range cases {
		dst := newSim(1<<20, 0.1)
		if _, err := dst.Restore(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if dst.StatsSnapshot().Store.Entries != 0 {
			t.Errorf("%s: corrupt snapshot partially applied", name)
		}
	}
}

func flipByte(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0xFF
	return c
}

func TestSnapshotEmptyCache(t *testing.T) {
	src := newSim(1024, 0.1)
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst := newSim(1024, 0.1)
	n, err := dst.Restore(&buf)
	if err != nil || n != 0 {
		t.Fatalf("empty snapshot: n=%d err=%v", n, err)
	}
}
