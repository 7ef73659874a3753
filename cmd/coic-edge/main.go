// Command coic-edge runs the CoIC mobile-edge tier: the IC cache plus
// miss forwarding to the cloud, served over TCP. The -cloud-shape flag
// plays the role of the paper's tc conditioning on the edge-cloud link.
//
// With -peers, the edge joins a cache federation: the listed edges and
// this one partition the descriptor keyspace via consistent hashing, a
// local miss probes the key's home edge before paying for the cloud, and
// fresh results are published to their home. Every member must list every
// other member, and -self must be this edge's address exactly as the
// others list it.
//
// With -gossip-seeds, membership is discovered instead of declared: the
// edge joins by contacting any listed seed (a seed node lists itself and
// waits to be found), learns the fleet over SWIM-lite gossip, rebuilds
// the consistent-hash ring on every join, failure or leave, and migrates
// cached keys whose ownership moved. -rf replicates each published key
// across that many ring owners so one member's death loses nothing.
// SIGTERM decommissions gracefully: home keys drain to their successors
// and a member-leave broadcast retires this edge without a suspicion
// phase.
//
// Each client connection is served pipelined by a bounded worker pool
// (-workers / -queue) behind a deadline-aware scheduler: queued requests
// dispatch strictly by QoS class (interactive before best-effort),
// earliest-deadline-first within a class, and a request whose wall-clock
// deadline passed while queued is shed unexecuted — no worker, no cloud
// fetch (admission/shed counters print at shutdown). Concurrent misses
// on the same descriptor coalesce into one cloud fetch, and every fetch
// is bounded by -fetch-timeout so a hung cloud sheds load instead of
// wedging connections. A client's MsgCancel frame (or disconnect)
// cancels its in-flight requests, and a coalesced fetch aborts when its
// last waiter departs.
//
// With -http, the edge also serves a live operations plane on a sidecar
// HTTP listener: Prometheus text metrics at /metrics, liveness at
// /healthz, readiness at /readyz (listener up AND the cloud reachable),
// the slow/failed request ring at /debug/requests, and net/http/pprof
// under /debug/pprof/. The wire protocol and the ops plane never share
// a port.
//
// SIGINT/SIGTERM triggers graceful shutdown: the listener closes,
// in-flight requests drain, replies flush, then the process exits.
//
// Usage:
//
//	coic-edge -listen :9091 -cloud localhost:9090 -cloud-shape "rate 20mbit delay 10ms"
//	coic-edge -listen :9091 -self localhost:9091 -peers localhost:9092,localhost:9093
//	coic-edge -listen :9091 -workers 32 -queue 128 -fetch-timeout 5s
//	coic-edge -listen :9091 -http :9191 -slow 250ms
//
// docs/OPERATIONS.md "Daemon flags" lists every flag with its default.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	coic "github.com/edge-immersion/coic"
	"github.com/edge-immersion/coic/cmd/internal/daemon"
)

// flags are coic-edge's command line: the shared server flags plus the
// edge role's own.
type flags struct {
	*daemon.Flags
	cloud, cloudShape, peers, self, gossipSeeds *string
	rf                                          *int
	fetchTimeout                                *time.Duration
}

func newFlags(fs *flag.FlagSet) *flags {
	return &flags{
		Flags:        daemon.NewFlags(fs, ":9091"),
		cloud:        fs.String("cloud", "localhost:9090", "cloud address to forward misses to"),
		cloudShape:   fs.String("cloud-shape", "", `tc-style spec for the edge->cloud link, e.g. "rate 20mbit delay 10ms"`),
		peers:        fs.String("peers", "", "comma-separated peer edge addresses to federate with (static membership)"),
		self:         fs.String("self", "", "this edge's advertised address in the federation (required with -peers or -gossip-seeds; must be how other members dial this edge)"),
		gossipSeeds:  fs.String("gossip-seeds", "", "comma-separated seed addresses for gossip-discovered federation membership; a seed node lists itself"),
		rf:           fs.Int("rf", 0, "federation replication factor: copies of each published key across ring owners (0 or 1 = home only)"),
		fetchTimeout: fs.Duration("fetch-timeout", 0, "per-fetch cloud timeout (0 = default)"),
	}
}

func main() {
	f := newFlags(flag.CommandLine)
	flag.Parse()

	splitAddrs := func(list string) []string {
		var out []string
		for _, p := range strings.Split(list, ",") {
			if p = strings.TrimSpace(p); p != "" {
				out = append(out, p)
			}
		}
		return out
	}
	peerAddrs := splitAddrs(*f.peers)
	seedAddrs := splitAddrs(*f.gossipSeeds)
	if len(peerAddrs) > 0 && len(seedAddrs) > 0 {
		log.Fatal("coic-edge: -peers and -gossip-seeds are mutually exclusive — declare the fleet or discover it, not both")
	}
	// -self must be explicit: every member hashes the same address
	// strings into the ring, and a defaulted listen address like ":9091"
	// is neither dialable by peers nor equal to how they name this edge —
	// the federation would silently mis-home every key.
	if len(peerAddrs) > 0 && *f.self == "" {
		log.Fatal("coic-edge: -peers requires -self, the dialable address the other members list for this edge")
	}
	if len(seedAddrs) > 0 && *f.self == "" {
		log.Fatal("coic-edge: -gossip-seeds requires -self, the dialable address gossip advertises for this edge")
	}

	detail := fmt.Sprintf(", cloud at %s", *f.cloud)
	opts := []coic.ServerOption{
		coic.WithCloud(*f.cloud),
		coic.WithCloudShape(coic.ShapeSpec(*f.cloudShape)),
		coic.WithFetchTimeout(*f.fetchTimeout),
	}
	switch {
	case len(peerAddrs) > 0:
		detail += fmt.Sprintf(", federated as %s with %v", *f.self, peerAddrs)
		opts = append(opts, coic.WithFederation(*f.self, peerAddrs...))
	case len(seedAddrs) > 0:
		detail += fmt.Sprintf(", gossiping as %s via seeds %v", *f.self, seedAddrs)
		opts = append(opts, coic.WithGossip(*f.self, seedAddrs...))
	}
	if *f.rf > 1 {
		opts = append(opts, coic.WithReplication(*f.rf))
	}
	st, err := f.Run("coic-edge", detail, coic.NewEdgeServer, opts...)
	if err != nil {
		log.Fatalf("coic-edge: %v", err)
	}
	fmt.Printf("coic-edge: served %d interactive + %d best-effort requests, %d cloud fetches, shed %d expired deadlines, %d overloads\n",
		st.AdmittedInteractive, st.AdmittedBestEffort, st.CloudFetches, st.DeadlineSheds, st.Overloads)
	if st.Batches > 0 {
		fmt.Printf("coic-edge: executed %d batches carrying %d requests\n", st.Batches, st.BatchedRequests)
	}
	if len(seedAddrs) > 0 {
		fmt.Printf("coic-edge: decommissioned at ring version %d, %d keys migrated\n", st.RingVersion, st.MigratedKeys)
	}
	fmt.Println("coic-edge: shut down cleanly")
}
