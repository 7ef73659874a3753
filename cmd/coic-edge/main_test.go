package main

import (
	"bufio"
	"context"
	"flag"
	"net"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	coic "github.com/edge-immersion/coic"
	"github.com/edge-immersion/coic/cmd/internal/daemon"
	"github.com/edge-immersion/coic/internal/core"
	"github.com/edge-immersion/coic/internal/netsim"
)

// TestGracefulShutdownOnSIGINT is the daemon-level shutdown test: it runs
// the real main() in-process against a deliberately slow cloud, puts a
// request in flight, delivers an actual SIGINT to the process, and
// asserts that the request still completes (drained, not dropped), that
// main returns, and that it reports a clean shutdown.
func TestGracefulShutdownOnSIGINT(t *testing.T) {
	p := coic.DefaultParams()

	// A cloud whose link adds 500ms each way: the pano fetch below is in
	// flight for over a second, a wide window to interrupt inside.
	cloud := core.NewCloud(p)
	cloudLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cloudLn.Close()
	go (&core.CloudServer{
		Cloud: cloud,
		Wrap:  func(c net.Conn) net.Conn { return netsim.NewShaper(c, 0, 500*time.Millisecond) },
	}).Serve(cloudLn)

	// Run the real daemon entry point with its own argv, capturing stdout
	// to learn the ephemeral port and to observe the shutdown message.
	oldArgs, oldStdout := os.Args, os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Args = []string{"coic-edge", "-listen", "127.0.0.1:0", "-cloud", cloudLn.Addr().String()}
	os.Stdout = w
	defer func() { os.Args, os.Stdout = oldArgs, oldStdout }()

	lines := make(chan string, 16)
	var scanWg sync.WaitGroup
	scanWg.Add(1)
	go func() {
		defer scanWg.Done()
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()

	mainDone := make(chan struct{})
	go func() {
		defer close(mainDone)
		main()
	}()

	var addr string
	select {
	case line := <-lines:
		const marker = "serving on "
		i := strings.Index(line, marker)
		if i < 0 {
			t.Fatalf("unexpected startup line %q", line)
		}
		addr = line[i+len(marker):]
		if j := strings.Index(addr, ","); j >= 0 {
			addr = addr[:j]
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never announced its listen address")
	}

	cli, err := coic.NewClient(context.Background(), addr, coic.WithDialParams(p))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	panoErr := make(chan error, 1)
	go func() {
		_, err := cli.Pano("shutdown-video", 1, coic.Viewport{Yaw: 0.3, FOV: 1.5})
		panoErr <- err
	}()
	// Give the request time to reach the edge and its cloud fetch to
	// start; the fetch itself then stays in flight for >1s.
	time.Sleep(300 * time.Millisecond)

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-panoErr:
		if err != nil {
			t.Fatalf("in-flight request lost during SIGINT shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("in-flight request never completed after SIGINT")
	}
	select {
	case <-mainDone:
	case <-time.After(15 * time.Second):
		t.Fatal("main did not return after SIGINT")
	}

	// New connections must be refused once shutdown has begun.
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("edge still accepting connections after shutdown")
	}

	w.Close()
	os.Stdout = oldStdout
	sawClean := false
	for line := range lines {
		if strings.Contains(line, "shut down cleanly") {
			sawClean = true
		}
	}
	scanWg.Wait()
	if !sawClean {
		t.Fatal("daemon did not report a clean shutdown")
	}
}

// TestFlagTableMatchesOperationsDoc keeps docs/OPERATIONS.md "Daemon
// flags" in step with the flags main registers.
func TestFlagTableMatchesOperationsDoc(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("coic-edge", flag.ContinueOnError)
	newFlags(fs)
	for _, p := range daemon.CheckFlagTable(fs, "coic-edge", string(doc)) {
		t.Error(p)
	}
}
