package cache

import (
	"context"
	"testing"
	"time"

	"github.com/edge-immersion/coic/internal/feature"
)

func migratorCache(t *testing.T, n int) *SimilarityCache {
	t.Helper()
	sc := NewSimilarity(SimilarityConfig{Capacity: 1 << 20})
	for i := 0; i < n; i++ {
		if err := sc.Insert(descForTest(i), []byte{byte(i)}, 1); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	return sc
}

func TestForEachResidentVisitsAll(t *testing.T) {
	sc := migratorCache(t, 16)
	seen := map[string]bool{}
	last := ""
	sc.ForEachResident(func(desc feature.Descriptor, value []byte, cost float64) bool {
		if len(value) != 1 || cost != 1 {
			t.Fatalf("entry %q: value %v cost %v", desc.Key(), value, cost)
		}
		// Key order, not map order: migration must replay identically.
		if desc.Key() <= last {
			t.Fatalf("visited %q after %q: walk is not in key order", desc.Key(), last)
		}
		last = desc.Key()
		seen[desc.Key()] = true
		return true
	})
	if len(seen) != 16 {
		t.Fatalf("visited %d entries, want 16", len(seen))
	}
	// Early stop honoured.
	visits := 0
	sc.ForEachResident(func(feature.Descriptor, []byte, float64) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Fatalf("early stop visited %d", visits)
	}
}

// A join sweep must push exactly the keys whose owner set gained the new
// node, and nothing else.
func TestMigratorSweepPushesMovedKeys(t *testing.T) {
	sc := migratorCache(t, 64)
	prev := NewRingVersion([]string{"self", "a"}, 0, 1)
	next := NewRingVersion([]string{"self", "a", "b"}, 0, 2)
	fed := NewFederation("self", next)
	pa, pb := &fakePeer{}, &fakePeer{}
	fed.AddPeer("a", pa.peer())
	fed.AddPeer("b", pb.peer())

	want := 0
	for i := 0; i < 64; i++ {
		if next.Owner(descForTest(i).Key()) == "b" {
			want++
		}
	}
	if want == 0 {
		t.Fatal("degenerate sweep: no key moved to the joiner")
	}

	m := NewMigrator(sc, fed, 0)
	moved := m.Sweep(context.Background(), prev)
	if moved != want {
		t.Fatalf("sweep moved %d keys, want %d", moved, want)
	}
	if pb.inserts != want {
		t.Fatalf("joiner received %d inserts, want %d", pb.inserts, want)
	}
	if pa.inserts != 0 {
		t.Fatalf("unchanged owner received %d inserts", pa.inserts)
	}
	if m.Migrated() != uint64(want) {
		t.Fatalf("Migrated = %d, want %d", m.Migrated(), want)
	}

	// A second sweep against the now-current ring moves nothing.
	if again := m.Sweep(context.Background(), next); again != 0 {
		t.Fatalf("idempotent sweep moved %d keys", again)
	}
}

// Drain pushes co-owned keys to the successors promoted by our
// departure; keys we neither own nor replicate stay put.
func TestMigratorDrainPromotesSuccessors(t *testing.T) {
	sc := migratorCache(t, 64)
	ring := NewRingVersion([]string{"self", "a", "b"}, 0, 1)
	fed := NewFederation("self", ring)
	fed.SetReplication(2)
	pa, pb := &fakePeer{}, &fakePeer{}
	fed.AddPeer("a", pa.peer())
	fed.AddPeer("b", pb.peer())

	next := ring.Without("self")
	want := 0
	for i := 0; i < 64; i++ {
		key := descForTest(i).Key()
		owners := ring.OwnersFor(key, 2)
		if !containsOwner(owners, "self") {
			continue
		}
		if len(ownerDiff(next.OwnersFor(key, 2), owners)) > 0 {
			want++
		}
	}
	if want == 0 {
		t.Fatal("degenerate drain: no key needs promotion")
	}

	m := NewMigrator(sc, fed, 0)
	if moved := m.Drain(context.Background()); moved != want {
		t.Fatalf("drain moved %d keys, want %d", moved, want)
	}
	if pa.inserts+pb.inserts != want {
		t.Fatalf("survivors received %d inserts, want %d", pa.inserts+pb.inserts, want)
	}
}

// The rate limit must pace pushes, and a dead context must stop the walk.
func TestMigratorRateLimitAndCancel(t *testing.T) {
	sc := migratorCache(t, 32)
	ring := NewRingVersion([]string{"self", "a"}, 0, 2)
	fed := NewFederation("self", ring)
	pa := &fakePeer{}
	fed.AddPeer("a", pa.peer())

	// Unthrottled baseline: everything owned by "a" moves.
	baseline := NewMigrator(sc, fed, 0).Sweep(context.Background(), nil)
	if baseline < 2 {
		t.Fatalf("baseline sweep moved %d keys; fixture too small", baseline)
	}

	// 10 keys/s with the baseline's key count cannot finish inside 50ms.
	m := NewMigrator(sc, fed, 10)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	moved := m.Sweep(ctx, nil)
	if moved >= baseline {
		t.Fatalf("rate-limited sweep moved all %d keys within %v", moved, time.Since(start))
	}

	// Pre-cancelled context moves nothing.
	dead, kill := context.WithCancel(context.Background())
	kill()
	if moved := NewMigrator(sc, fed, 0).Sweep(dead, nil); moved != 0 {
		t.Fatalf("cancelled sweep moved %d keys", moved)
	}
}
