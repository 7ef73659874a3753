package core

import (
	"context"
	"testing"

	"github.com/edge-immersion/coic/internal/wire"
)

func burstRowFor(t *testing.T, rows []BurstRow, users int, dup float64, mode InflightMode) BurstRow {
	t.Helper()
	for _, r := range rows {
		if r.Users == users && r.DupRatio == dup && r.Mode == mode {
			return r
		}
	}
	t.Fatalf("no row users=%d dup=%v mode=%v", users, dup, mode)
	return BurstRow{}
}

// TestRunBurstCoalesces is the virtual-time coalescing acceptance test:
// K users bursting on one uncached descriptor must cost exactly one cloud
// computation under coalescing (K−1 joins), K under the serial baseline —
// and coalescing must win on tail latency.
func TestRunBurstCoalesces(t *testing.T) {
	p := testParams()
	const users = 8
	cloud := NewCloud(p)
	var rows []BurstRow
	for _, dup := range []float64{0, 1} {
		for _, mode := range []InflightMode{InflightSerial, InflightCoalesce} {
			row, err := BurstPoint(p, testCond, cloud, users, dup, mode)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row)
		}
	}
	for _, bad := range []struct {
		users int
		dup   float64
	}{{0, 0}, {users, -0.1}, {users, 1.1}} {
		if _, err := BurstPoint(p, testCond, cloud, bad.users, bad.dup, InflightSerial); err == nil {
			t.Fatalf("BurstPoint accepted users=%d dup=%v", bad.users, bad.dup)
		}
	}

	serial := burstRowFor(t, rows, users, 1, InflightSerial)
	coalesce := burstRowFor(t, rows, users, 1, InflightCoalesce)
	if serial.Errors+coalesce.Errors != 0 {
		t.Fatalf("burst errors: serial=%d coalesce=%d", serial.Errors, coalesce.Errors)
	}
	if serial.CloudFetches != users {
		t.Fatalf("serial cloud fetches = %d, want %d (every duplicate pays its own)", serial.CloudFetches, users)
	}
	if coalesce.CloudFetches != 1 {
		t.Fatalf("coalesced cloud fetches = %d, want exactly 1", coalesce.CloudFetches)
	}
	if coalesce.CoalescedJoins != users-1 {
		t.Fatalf("coalesced joins = %d, want %d", coalesce.CoalescedJoins, users-1)
	}
	if coalesce.SavedFetches() != users-1 {
		t.Fatalf("saved fetches = %d, want %d", coalesce.SavedFetches(), users-1)
	}
	if coalesce.P99 >= serial.P99 {
		t.Fatalf("coalesced p99 %v not better than serial p99 %v", coalesce.P99, serial.P99)
	}

	// With zero duplication there is nothing to coalesce: both modes pay
	// one fetch per user.
	for _, mode := range []InflightMode{InflightSerial, InflightCoalesce} {
		r := burstRowFor(t, rows, users, 0, mode)
		if r.CloudFetches != users || r.CoalescedJoins != 0 {
			t.Fatalf("dup=0 %s: fetches=%d joins=%d, want %d/0", mode, r.CloudFetches, r.CoalescedJoins, users)
		}
	}
}

// TestVirtualInflightModesOnEdge pins the Edge-level semantics the burst
// experiment rides on: a lookup inside the producing fetch's window reads
// as a miss under InflightSerial, a waiting join under InflightCoalesce,
// and an instant hit under the seed default.
func TestVirtualInflightModesOnEdge(t *testing.T) {
	p := testParams()
	desc := PanoDescriptor("window-video", 1)
	value := []byte("rle")

	for _, tc := range []struct {
		mode     InflightMode
		wantHit  bool
		wantJoin bool
		wantWait bool
	}{
		{InflightInstant, true, false, false},
		{InflightSerial, false, false, false},
		{InflightCoalesce, true, true, true},
	} {
		edge := NewEdge(p, WithInflightMode(tc.mode))
		insertAt := epoch
		edge.insertAtAs(1, DefaultTenant, desc, value, 1, insertAt)
		// Look up halfway through the insert's completion window.
		lr := edge.lookupAtAs(context.Background(), 2, DefaultTenant, wire.TaskPano, desc, insertAt.Add(p.EdgeInsertTime/2))
		if lr.Hit() != tc.wantHit {
			t.Fatalf("%s: hit = %v, want %v", tc.mode, lr.Hit(), tc.wantHit)
		}
		if lr.Coalesced != tc.wantJoin {
			t.Fatalf("%s: coalesced = %v, want %v", tc.mode, lr.Coalesced, tc.wantJoin)
		}
		if (lr.Wait > 0) != tc.wantWait {
			t.Fatalf("%s: wait = %v, want wait>0 == %v", tc.mode, lr.Wait, tc.wantWait)
		}
		// Once the window has matured, every mode serves a plain hit.
		lr = edge.lookupAtAs(context.Background(), 3, DefaultTenant, wire.TaskPano, desc, insertAt.Add(2*p.EdgeInsertTime))
		if !lr.Hit() || lr.Coalesced || lr.Wait != 0 {
			t.Fatalf("%s: matured lookup = %+v, want plain hit", tc.mode, lr)
		}
	}
}
