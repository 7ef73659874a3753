// Package daemon is what coic-edge and coic-cloud share: the flags every
// server takes, the listener, the ops sidecar, SIGINT/SIGTERM handling
// and the serve call. Each daemon's main registers its own role's flags
// beside these and prints its own shutdown summary.
package daemon

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	coic "github.com/edge-immersion/coic"
)

// Flags holds the values of the flags both daemons register.
type Flags struct {
	listen   string
	workers  int
	queue    int
	batch    int
	httpAddr string
	slow     time.Duration
	tenants  []coic.ServerOption
}

// NewFlags registers the shared server flags on fs; listen is the role's
// default -listen address.
func NewFlags(fs *flag.FlagSet, listen string) *Flags {
	f := &Flags{}
	fs.StringVar(&f.listen, "listen", listen, "address to serve on")
	fs.IntVar(&f.workers, "workers", 0, "concurrent requests per connection (0 = default); an edge sends all its misses over one connection, so on the cloud this bounds that edge's fetch parallelism")
	fs.IntVar(&f.queue, "queue", 0, "requests buffered per connection before overload replies (0 = default)")
	fs.IntVar(&f.batch, "batch", 0, "max exec requests one worker runs together: one batched DNN pass on the cloud, coalesced duplicates and a burst of misses on the edge; a best-effort head waits up to 2ms for batchmates (0 or 1 = serial)")
	fs.StringVar(&f.httpAddr, "http", "", "ops sidecar address for /metrics, /healthz, /readyz, /debug (empty = disabled)")
	fs.DurationVar(&f.slow, "slow", time.Second, "latency above which a successful request enters /debug/requests and the log")
	fs.Func("tenant-quota", `tenant limits as "name:key=value,..." with keys token, rate, burst, weight, cache, members (cache and members are edge-only); repeatable`, func(spec string) error {
		name, cfg, err := parseTenantQuota(spec)
		if err != nil {
			return err
		}
		f.tenants = append(f.tenants, coic.WithTenantQuota(name, cfg))
		return nil
	})
	return f
}

// Run serves one daemon named name until SIGINT or SIGTERM. It binds
// -listen and prints "<name>: serving on <addr><detail>", builds the
// server with newServer from the shared flags plus opts, serves the -http
// ops sidecar, and returns the server's stats once shutdown has drained.
func (f *Flags) Run(name, detail string, newServer func(...coic.ServerOption) *coic.Server, opts ...coic.ServerOption) (coic.ServerStats, error) {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", f.listen)
	if err != nil {
		return coic.ServerStats{}, err
	}
	defer ln.Close()
	fmt.Printf("%s: serving on %s%s\n", name, ln.Addr(), detail)
	shared := []coic.ServerOption{
		coic.WithListener(ln),
		coic.WithWorkers(f.workers),
		coic.WithQueueDepth(f.queue),
		coic.WithBatch(f.batch),
		coic.WithSlowRequestThreshold(f.slow),
	}
	srv := newServer(append(append(shared, f.tenants...), opts...)...)
	if f.httpAddr != "" {
		opsLn, err := net.Listen("tcp", f.httpAddr)
		if err != nil {
			return coic.ServerStats{}, fmt.Errorf("ops listener: %w", err)
		}
		ops := &http.Server{Handler: srv.OpsHandler()}
		defer ops.Close()
		go func() {
			if err := ops.Serve(opsLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("%s: ops plane: %v", name, err)
			}
		}()
		fmt.Printf("%s: ops plane on http://%s/metrics\n", name, opsLn.Addr())
	}
	if err := srv.Serve(ctx); err != nil {
		return coic.ServerStats{}, err
	}
	return srv.Stats(), nil
}

// parseTenantQuota parses one -tenant-quota value,
// "name:key=value[,key=value...]", into the tenant's name and config.
// Keys: token (string), rate (requests/sec, float), burst (requests),
// weight (fair-share weight), cache (resident cache bytes), members
// (concurrent scene members). A bare "name" with no colon configures a
// tenant with no limits — useful to require the name to exist without
// rationing it.
//
//	-tenant-quota "acme:token=s3cret,rate=100,burst=20,weight=4"
//	-tenant-quota "guest:rate=5,cache=16777216,members=8"
func parseTenantQuota(spec string) (string, coic.TenantConfig, error) {
	name, args, hasArgs := strings.Cut(spec, ":")
	name = strings.TrimSpace(name)
	if name == "" {
		return "", coic.TenantConfig{}, fmt.Errorf("tenant quota %q: empty tenant name", spec)
	}
	var cfg coic.TenantConfig
	if !hasArgs {
		return name, cfg, nil
	}
	for _, kv := range strings.Split(args, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return "", coic.TenantConfig{}, fmt.Errorf("tenant quota %q: %q is not key=value", spec, kv)
		}
		var err error
		switch key {
		case "token":
			cfg.Token = val
		case "rate":
			cfg.Rate, err = strconv.ParseFloat(val, 64)
		case "burst":
			cfg.Burst, err = strconv.Atoi(val)
		case "weight":
			cfg.Weight, err = strconv.Atoi(val)
		case "cache":
			cfg.CacheBytes, err = strconv.ParseInt(val, 10, 64)
		case "members":
			cfg.SceneMembers, err = strconv.Atoi(val)
		default:
			return "", coic.TenantConfig{}, fmt.Errorf("tenant quota %q: unknown key %q", spec, key)
		}
		if err != nil {
			return "", coic.TenantConfig{}, fmt.Errorf("tenant quota %q: %s: %v", spec, key, err)
		}
	}
	return name, cfg, nil
}

// CheckFlagTable compares the flags fs registers for the daemon called
// name with the "Daemon flags" table of docs/OPERATIONS.md, passed as
// doc. It reports every flag the table lacks, does not list for name, or
// gives another default, and every row that lists name for a flag fs
// lacks or lists no daemon at all. Each daemon's tests run it on the
// FlagSet its main builds, so the table cannot drift from the code.
func CheckFlagTable(fs *flag.FlagSet, name, doc string) []string {
	_, table, _ := strings.Cut(doc, "\n## Daemon flags\n")
	table, _, _ = strings.Cut(table, "\n## ")
	rows := map[string][]string{} // flag name → daemons, default, meaning
	var problems []string
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if !strings.HasPrefix(cells[0], "`-") || len(cells) != 4 {
			continue
		}
		flagName := strings.Trim(cells[0], "`-")
		rows[flagName] = cells[1:]
		if !strings.Contains(cells[1], "coic-edge") && !strings.Contains(cells[1], "coic-cloud") {
			problems = append(problems, fmt.Sprintf("-%s: row lists no daemon", flagName))
		}
		if strings.Contains(cells[1], name) && fs.Lookup(flagName) == nil {
			problems = append(problems, fmt.Sprintf("-%s: row lists %s, which registers no such flag", flagName, name))
		}
	}
	fs.VisitAll(func(fl *flag.Flag) {
		row, ok := rows[fl.Name]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("-%s: %s registers it, the table has no row", fl.Name, name))
		case !strings.Contains(row[0], name):
			problems = append(problems, fmt.Sprintf("-%s: the row does not list %s", fl.Name, name))
		case fl.DefValue != "" && !strings.Contains(row[1], "`"+fl.DefValue+"`"):
			problems = append(problems, fmt.Sprintf("-%s: %s defaults to %q, the row does not say so", fl.Name, name, fl.DefValue))
		}
	})
	return problems
}
