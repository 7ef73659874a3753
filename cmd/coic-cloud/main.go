// Command coic-cloud runs the CoIC cloud tier: the full recognition DNN,
// the 3D model repository, and the VR panorama source, served over TCP.
//
// With -http, the cloud also serves a live operations plane on a sidecar
// HTTP listener: Prometheus text metrics at /metrics, liveness at
// /healthz, readiness at /readyz, the slow/failed request ring at
// /debug/requests, and net/http/pprof under /debug/pprof/.
//
// SIGINT/SIGTERM triggers graceful shutdown: the listener closes,
// in-flight requests drain, replies flush, then the process exits.
//
// Usage:
//
//	coic-cloud -listen :9090
//	coic-cloud -listen :9090 -http :9190 -slow 500ms
//
// docs/OPERATIONS.md "Daemon flags" lists every flag with its default.
package main

import (
	"flag"
	"fmt"
	"log"

	coic "github.com/edge-immersion/coic"
	"github.com/edge-immersion/coic/cmd/internal/daemon"
)

// newFlags registers coic-cloud's command line: the shared server flags
// alone, since the cloud has no role-specific ones.
func newFlags(fs *flag.FlagSet) *daemon.Flags { return daemon.NewFlags(fs, ":9090") }

func main() {
	f := newFlags(flag.CommandLine)
	flag.Parse()

	st, err := f.Run("coic-cloud", "", coic.NewCloudServer)
	if err != nil {
		log.Fatalf("coic-cloud: %v", err)
	}
	// The cloud schedules by the same QoS trailer the edge forwards, so
	// its shed counters show deadline pressure that reached the WAN.
	fmt.Printf("coic-cloud: served %d interactive + %d best-effort requests, shed %d expired deadlines, %d overloads\n",
		st.AdmittedInteractive, st.AdmittedBestEffort, st.DeadlineSheds, st.Overloads)
	fmt.Println("coic-cloud: shut down cleanly")
}
