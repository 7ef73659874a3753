package main

import (
	"flag"
	"os"
	"testing"

	"github.com/edge-immersion/coic/cmd/internal/daemon"
)

// TestFlagTableMatchesOperationsDoc keeps docs/OPERATIONS.md "Daemon
// flags" in step with the flags main registers.
func TestFlagTableMatchesOperationsDoc(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("coic-cloud", flag.ContinueOnError)
	newFlags(fs)
	for _, p := range daemon.CheckFlagTable(fs, "coic-cloud", string(doc)) {
		t.Error(p)
	}
}
