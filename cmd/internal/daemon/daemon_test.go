package daemon

import (
	"testing"

	coic "github.com/edge-immersion/coic"
)

// TestParseTenantQuota covers the daemons' -tenant-quota flag grammar.
func TestParseTenantQuota(t *testing.T) {
	name, cfg, err := parseTenantQuota("acme:token=s3cret,rate=100,burst=20,weight=4,cache=1048576,members=8")
	if err != nil {
		t.Fatal(err)
	}
	want := coic.TenantConfig{Token: "s3cret", Rate: 100, Burst: 20, Weight: 4, CacheBytes: 1 << 20, SceneMembers: 8}
	if name != "acme" || cfg != want {
		t.Fatalf("got %q %+v, want acme %+v", name, cfg, want)
	}

	name, cfg, err = parseTenantQuota("guest")
	if err != nil || name != "guest" || cfg != (coic.TenantConfig{}) {
		t.Fatalf("bare name: got %q %+v, %v", name, cfg, err)
	}

	for _, bad := range []string{"", ":rate=1", "a:rate", "a:rate=x", "a:speed=9"} {
		if _, _, err := parseTenantQuota(bad); err == nil {
			t.Errorf("parseTenantQuota(%q) accepted", bad)
		}
	}
}
