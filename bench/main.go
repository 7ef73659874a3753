// Command bench is the repository's serving benchmark: it boots the real
// cloud and edge in-process on loopback TCP with no shaping, drives them
// with a raw-wire closed-loop load generator, validates every reply and
// prints end-to-end and (with -trace 1) per-layer metrics. See README.md
// in this directory for the metrics, the workloads and how to compare two
// commits; BENCHMARK.json at the repository root is its contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// num is a metric value; a measurement that does not exist (a phase that
// completed nothing, a metrics series the server never exported) prints
// as null rather than failing the encoder or passing for zero.
type num float64

func (n num) MarshalJSON() ([]byte, error) {
	if f := float64(n); math.IsNaN(f) || math.IsInf(f, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(n))
}

// metric is one named measurement. N is the sample count behind a
// percentile or a median of spans, omitted for counts and ratios.
type metric struct {
	Value num    `json:"value"`
	Unit  string `json:"unit"`
	N     int    `json:"n,omitempty"`
}

// header says what produced a report.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"measured_seconds_per_workload"`
	Rounds     int     `json:"rounds"`
	SoloS      float64 `json:"solo_phase_seconds"`
	LoadS      float64 `json:"load_phase_seconds"`
	LoadConns  int     `json:"load_connections"`
	LoadWindow int     `json:"load_window_per_connection"`
	Transport  string  `json:"transport"`
}

// result is the last line of standard output, one per workload run: the
// shape the benchmark driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // not a git checkout
	}
	return strings.TrimSpace(string(out))
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: all, or one of "+workloadNames())
		seed    = flag.Uint64("seed", 1, "workload seed; every input is a pure function of it")
		seconds = flag.Float64("seconds", defaultSeconds, "measured seconds per workload; the benchmark driver passes BENCHMARK.json's run_seconds, which is the default, and a comparison uses no other")
		trace   = flag.Int("trace", 0, "1 adds the traced run: layer probes, the replay and a traced live pass")
		check   = flag.Bool("check", false, "run each workload twice and fail if an end-to-end metric differs by more than its bound")
		out     = flag.String("out", "bench/out", "directory for the span files of a traced run")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)

	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, workloadNames())
		os.Exit(2)
	}

	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *out}
	hdr := cfg.header()
	hdr.Commit = commit()
	fatal := func(what string, err error) {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", what, err)
		os.Exit(1)
	}
	ok := true
	for _, w := range todo {
		rep, err := runWorkload(w, cfg)
		if err != nil {
			fatal(w.name, err)
		}
		if *check {
			again, err := runWorkload(w, cfg)
			if err != nil {
				fatal(w.name+" (second run)", err)
			}
			rep.Check = compare(rep, again)
			ok = ok && again.correct() && len(rep.Check.Exceeded) == 0
		}
		ok = ok && rep.correct()
		doc, err := json.MarshalIndent(struct {
			Header header  `json:"header"`
			Report *report `json:"report"`
		}{hdr, rep}, "", "  ")
		if err != nil {
			fatal(w.name, err)
		}
		line, err := json.Marshal(rep.result(cfg.trace))
		if err != nil {
			fatal(w.name, err)
		}
		fmt.Printf("%s\n%s\n", doc, line)
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return strings.Join(names, ", ")
}
