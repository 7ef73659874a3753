package cache

import (
	"context"
	"testing"
	"time"

	"github.com/edge-immersion/coic/internal/feature"
)

// fakePeer records probes and serves a canned answer.
type fakePeer struct {
	probes  int
	inserts int
	value   []byte // nil = always miss
}

func (f *fakePeer) peer() Peer {
	return Peer{
		Probe: func(_ context.Context, requester int, task uint8, desc feature.Descriptor) ([]byte, LookupResult, time.Duration) {
			f.probes++
			if f.value == nil {
				return nil, LookupResult{Outcome: OutcomeMiss}, time.Millisecond
			}
			return f.value, LookupResult{Outcome: OutcomeExact, Key: desc.Key()}, time.Millisecond
		},
		Insert: func(desc feature.Descriptor, value []byte, cost float64) {
			f.inserts++
		},
	}
}

// ownedBy finds a descriptor whose ring home is the wanted node.
func ownedBy(t *testing.T, r *Ring, want string) feature.Descriptor {
	t.Helper()
	for i := 0; i < 10000; i++ {
		d := descForTest(i)
		if r.Owner(d.Key()) == want {
			return d
		}
	}
	t.Fatalf("no key owned by %s in 10000 tries", want)
	return feature.Descriptor{}
}

func TestFederationPartitionedProbesOnlyOwner(t *testing.T) {
	ring := NewRing([]string{"self", "a", "b"}, 0)
	fed := NewFederation("self", ring)
	pa, pb := &fakePeer{value: []byte("va")}, &fakePeer{value: []byte("vb")}
	fed.AddPeer("a", pa.peer())
	fed.AddPeer("b", pb.peer())

	desc := ownedBy(t, ring, "a")
	v, res, peer, cost, ok := fed.Lookup(context.Background(), -1, 0, desc.Key(), desc)
	if !ok || string(v) != "va" || peer != "a" || !res.Hit() {
		t.Fatalf("lookup = %q from %q ok=%v", v, peer, ok)
	}
	if cost != time.Millisecond {
		t.Fatalf("cost = %v", cost)
	}
	if pa.probes != 1 || pb.probes != 0 {
		t.Fatalf("probes a=%d b=%d, want owner-only routing", pa.probes, pb.probes)
	}

	// Keys homed here must not generate peer traffic at all.
	local := ownedBy(t, ring, "self")
	if _, _, _, _, ok := fed.Lookup(context.Background(), -1, 0, local.Key(), local); ok {
		t.Fatal("self-owned key resolved remotely")
	}
	if pa.probes != 1 || pb.probes != 0 {
		t.Fatalf("self-owned key probed a peer (a=%d b=%d)", pa.probes, pb.probes)
	}
}

func TestFederationReplicaProbesInOrder(t *testing.T) {
	ring := NewRing([]string{"self", "first", "second"}, 0)
	fed := NewFederation("self", ring)
	fed.SetReplication(2)
	miss, hit := &fakePeer{}, &fakePeer{value: []byte("v")}
	fed.AddPeer("first", miss.peer())
	fed.AddPeer("second", hit.peer())

	// A key whose home misses and whose replica hits.
	var d feature.Descriptor
	for i := 0; ; i++ {
		if i == 10000 {
			t.Fatal("no key with owners [first second] in 10000 tries")
		}
		if owners := ring.OwnersFor(descForTest(i).Key(), 2); owners[0] == "first" && owners[1] == "second" {
			d = descForTest(i)
			break
		}
	}
	v, _, peer, cost, ok := fed.Lookup(context.Background(), -1, 0, d.Key(), d)
	if !ok || string(v) != "v" || peer != "second" {
		t.Fatalf("lookup = %q from %q ok=%v", v, peer, ok)
	}
	if miss.probes != 1 || hit.probes != 1 {
		t.Fatalf("probes = %d,%d", miss.probes, hit.probes)
	}
	if cost != 2*time.Millisecond {
		t.Fatalf("cost must accumulate over failed hops, got %v", cost)
	}
	st := fed.Stats()
	if st.Probes != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFederationPublishRoutesToOwner(t *testing.T) {
	ring := NewRing([]string{"self", "a", "b"}, 0)
	fed := NewFederation("self", ring)
	pa, pb := &fakePeer{}, &fakePeer{}
	fed.AddPeer("a", pa.peer())
	fed.AddPeer("b", pb.peer())

	remote := ownedBy(t, ring, "b")
	if sent := fed.Publish(remote, []byte("v"), 1); len(sent) != 1 || sent[0] != "b" {
		t.Fatalf("publish = %v", sent)
	}
	if pb.inserts != 1 || pa.inserts != 0 {
		t.Fatalf("inserts a=%d b=%d", pa.inserts, pb.inserts)
	}

	// rf=1: a self-owned key has no other owner to publish to.
	local := ownedBy(t, ring, "self")
	if sent := fed.Publish(local, []byte("v"), 1); len(sent) != 0 {
		t.Fatalf("self-owned key published to %v at rf=1", sent)
	}
	if got := fed.Stats().Published; got != 1 {
		t.Fatalf("published = %d", got)
	}
}

func TestFederationReplicatedPublishAndProbe(t *testing.T) {
	ring := NewRing([]string{"self", "a", "b"}, 0)
	fed := NewFederation("self", ring)
	fed.SetReplication(2)
	pa, pb := &fakePeer{}, &fakePeer{}
	fed.AddPeer("a", pa.peer())
	fed.AddPeer("b", pb.peer())

	// Find a key whose first two owners are both remote peers.
	var desc feature.Descriptor
	found := false
	for i := 0; i < 10000 && !found; i++ {
		d := descForTest(i)
		owners := ring.OwnersFor(d.Key(), 2)
		if owners[0] == "a" && owners[1] == "b" {
			desc, found = d, true
		}
	}
	if !found {
		t.Fatal("no key with owners [a b] in 10000 tries")
	}

	if sent := fed.Publish(desc, []byte("v"), 1); len(sent) != 2 {
		t.Fatalf("rf=2 publish reached %v, want both owners", sent)
	}
	if pa.inserts != 1 || pb.inserts != 1 {
		t.Fatalf("inserts a=%d b=%d", pa.inserts, pb.inserts)
	}

	// With the home dead (unregistered), the replica still answers.
	fed.RemovePeer("a")
	pb.value = []byte("vb")
	v, _, peer, _, ok := fed.Lookup(context.Background(), -1, 0, desc.Key(), desc)
	if !ok || peer != "b" || string(v) != "vb" {
		t.Fatalf("replica lookup = %q from %q ok=%v", v, peer, ok)
	}

	// Self-owned keys still replicate to their successor at rf=2.
	selfHome := ownedBy(t, ring, "self")
	if sent := fed.Publish(selfHome, []byte("v"), 1); len(sent) != 1 {
		t.Fatalf("self-homed rf=2 publish = %v, want one successor", sent)
	}
}

func TestFederationReadRepair(t *testing.T) {
	ring := NewRing([]string{"self", "a", "b"}, 0)
	fed := NewFederation("self", ring)
	fed.SetReplication(2)
	// Home "a" lost the value (restart); replica "b" still has it.
	pa, pb := &fakePeer{}, &fakePeer{value: []byte("v")}
	fed.AddPeer("a", pa.peer())
	fed.AddPeer("b", pb.peer())

	var desc feature.Descriptor
	found := false
	for i := 0; i < 10000 && !found; i++ {
		d := descForTest(i)
		owners := ring.OwnersFor(d.Key(), 2)
		if owners[0] == "a" && owners[1] == "b" {
			desc, found = d, true
		}
	}
	if !found {
		t.Fatal("no key with owners [a b] in 10000 tries")
	}

	v, _, peer, _, ok := fed.Lookup(context.Background(), -1, 0, desc.Key(), desc)
	if !ok || peer != "b" || string(v) != "v" {
		t.Fatalf("lookup = %q from %q ok=%v", v, peer, ok)
	}
	if pa.inserts != 1 {
		t.Fatalf("home received %d read-repair inserts, want 1", pa.inserts)
	}
	if st := fed.Stats(); st.Repaired != 1 {
		t.Fatalf("Repaired = %d, want 1", st.Repaired)
	}
}

func TestFederationSetRingRedirectsRouting(t *testing.T) {
	ring := NewRing([]string{"self", "a"}, 0)
	fed := NewFederation("self", ring)
	pa, pb := &fakePeer{}, &fakePeer{}
	fed.AddPeer("a", pa.peer())
	fed.AddPeer("b", pb.peer())
	if fed.RingVersion() != 1 {
		t.Fatalf("ring version = %d", fed.RingVersion())
	}

	desc := ownedBy(t, ring, "a")
	fed.Publish(desc, []byte("v"), 1)
	if pa.inserts != 1 {
		t.Fatalf("pre-swap publish went to a=%d b=%d", pa.inserts, pb.inserts)
	}

	// Membership change: "a" left, "b" joined. Publishes must re-route.
	next := NewRingVersion([]string{"self", "b"}, 0, 2)
	fed.SetRing(next)
	fed.RemovePeer("a")
	if fed.RingVersion() != 2 {
		t.Fatalf("ring version after swap = %d", fed.RingVersion())
	}
	moved := ownedBy(t, next, "b")
	fed.Publish(moved, []byte("v"), 1)
	if pb.inserts != 1 || pa.inserts != 1 {
		t.Fatalf("post-swap publish went to a=%d b=%d", pa.inserts, pb.inserts)
	}
}

func TestFederationUnregisteredOwnerDegrades(t *testing.T) {
	// The ring says "a" owns the key, but "a" never registered (down,
	// never connected): the lookup degrades to a local-only miss rather
	// than probing the wrong node.
	ring := NewRing([]string{"self", "a"}, 0)
	fed := NewFederation("self", ring)
	d := ownedBy(t, ring, "a")
	if _, _, _, _, ok := fed.Lookup(context.Background(), -1, 0, d.Key(), d); ok {
		t.Fatal("lookup resolved against an unregistered owner")
	}
	if st := fed.Stats(); st.Probes != 0 {
		t.Fatalf("probes = %d, want 0", st.Probes)
	}
}
