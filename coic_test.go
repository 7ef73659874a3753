package coic

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"
)

// testParams shrinks payloads so public-API tests stay fast (mirrors
// internal/core testParams).
func testParams() Params {
	p := DefaultParams()
	p.CameraW, p.CameraH = 128, 128
	p.DNNInput = 32
	p.PanoWidth = 256
	p.MobileGFLOPS = 28
	return p
}

// do runs one request in virtual time.
func do(sys *System, client int, req Request) (Breakdown, error) {
	res, err := sys.Do(context.Background(), client, req)
	return res.Breakdown, err
}

// recognize runs one CoIC-mode recognition in virtual time.
func recognize(sys *System, client int, class Class, viewSeed uint64) (Breakdown, RecognitionResult, error) {
	res, err := sys.Do(context.Background(), client, RecognizeTask(class, viewSeed))
	if err != nil {
		return res.Breakdown, RecognitionResult{}, err
	}
	return res.Breakdown, *res.Recognition, nil
}

func TestSystemQuickPath(t *testing.T) {
	sys := testSystem(t)
	b1, res1, err := recognize(sys, 0, ClassStopSign, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Label == "" || res1.AnnotationModelID == "" {
		t.Fatalf("empty result %+v", res1)
	}
	sys.Advance(time.Second)
	b2, res2, err := recognize(sys, 0, ClassStopSign, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Label != res1.Label {
		t.Fatal("labels diverge across cache hit")
	}
	if b2.Total() >= b1.Total() {
		t.Fatalf("second request (%v) not faster than first (%v)", b2.Total(), b1.Total())
	}
	st := sys.Stats()
	if st.Queries.HitRatio() <= 0 || st.Store.BytesUsed <= 0 || st.Store.Entries == 0 {
		t.Fatalf("cache stats: %+v", st)
	}
}

func TestSystemRenderAndPano(t *testing.T) {
	sys := testSystem(t)
	if _, err := do(sys, 0, RenderTask(AnnotationModelID(ClassCar))); err != nil {
		t.Fatal(err)
	}
	sys.Advance(time.Second)
	b, err := do(sys, 0, RenderTask(AnnotationModelID(ClassCar)))
	if err != nil {
		t.Fatal(err)
	}
	if b.Outcome.String() != "exact" {
		t.Fatalf("outcome %v", b.Outcome)
	}
	if _, err := do(sys, 0, PanoTask("v", 1, Viewport{FOV: 1.5})); err != nil {
		t.Fatal(err)
	}
}

func TestMultiClientSharing(t *testing.T) {
	sys := testSystem(t, WithClients(3))
	if _, _, err := recognize(sys, 0, ClassDog, 1); err != nil {
		t.Fatal(err)
	}
	sys.Advance(time.Second)
	b, _, err := recognize(sys, 2, ClassDog, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.Outcome.String() == "miss" {
		t.Fatal("user 2 did not benefit from user 0's work")
	}
	if _, _, err := recognize(sys, 9, ClassDog, 3); err == nil {
		t.Fatal("out-of-range client accepted")
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := New(WithCachePolicy("belady")); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := New(WithIndex("faiss")); err == nil {
		t.Fatal("unknown index accepted")
	}
	for _, policy := range []string{"lru", "lfu", "fifo", "gdsf"} {
		if _, err := New(WithParams(testParams()), WithCachePolicy(policy)); err != nil {
			t.Fatalf("policy %s rejected: %v", policy, err)
		}
	}
	if _, err := New(WithParams(testParams()), WithIndex("lsh")); err != nil {
		t.Fatalf("lsh index rejected: %v", err)
	}
}

func TestLSHIndexSystemStillHits(t *testing.T) {
	sys := testSystem(t, WithIndex("lsh"))
	if _, _, err := recognize(sys, 0, ClassTree, 1); err != nil {
		t.Fatal(err)
	}
	sys.Advance(time.Second)
	b, _, err := recognize(sys, 0, ClassTree, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.Outcome.String() == "miss" {
		t.Fatal("LSH-backed cache missed a near-duplicate")
	}
}

func TestServeAndDialPublicAPI(t *testing.T) {
	p := testParams()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cloudLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go NewCloudServer(WithListener(cloudLn), WithServeParams(p)).Serve(ctx)
	edgeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go NewEdgeServer(WithListener(edgeLn), WithServeParams(p), WithCloud(cloudLn.Addr().String())).Serve(ctx)
	edgeAddr := edgeLn.Addr().String()

	cli, err := NewClient(ctx, edgeAddr, WithDialParams(p))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	res, lat, err := cli.Recognize(ClassAvatar, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Label == "" || lat <= 0 {
		t.Fatalf("result %+v lat %v", res, lat)
	}

	// A shaped dial with a bad spec must fail loudly.
	if _, err := NewClient(ctx, edgeAddr, WithDialParams(p), WithDialShape("warp 9")); err == nil {
		t.Fatal("bad shape spec accepted")
	}
}

func TestSceneAndAnnotationIDs(t *testing.T) {
	if AnnotationModelID(ClassCar) != "annotation/car" {
		t.Fatal(AnnotationModelID(ClassCar))
	}
	if SceneModelID(231) != "scene/231kb" {
		t.Fatal(SceneModelID(231))
	}
}

func TestCacheSaveLoadAcrossSystems(t *testing.T) {
	a := testSystem(t)
	// Warm system A's cache with one of everything.
	if _, _, err := recognize(a, 0, ClassBuilding, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := do(a, 0, RenderTask(AnnotationModelID(ClassBuilding))); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := a.SaveCache(&snap); err != nil {
		t.Fatal(err)
	}

	// A fresh system ("restarted edge") starts warm after LoadCache.
	b := testSystem(t)
	n, err := b.LoadCache(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Fatalf("restored %d entries, want >= 2", n)
	}
	bd, _, err := recognize(b, 0, ClassBuilding, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Outcome.String() == "miss" {
		t.Fatal("restored cache did not serve a warm recognition")
	}
	rd, err := do(b, 0, RenderTask(AnnotationModelID(ClassBuilding)))
	if err != nil {
		t.Fatal(err)
	}
	if rd.Outcome.String() != "exact" {
		t.Fatalf("restored cache render outcome: %v", rd.Outcome)
	}
}
