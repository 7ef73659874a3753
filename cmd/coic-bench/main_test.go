package main

import (
	"slices"
	"strings"
	"testing"

	coic "github.com/edge-immersion/coic"
)

// TestSelectRunners: -experiment picks runners in print order, "all"
// picks every one, and any name no runner has fails the whole list —
// including one mistyped name beside a good one, which used to print the
// good table and exit 0.
func TestSelectRunners(t *testing.T) {
	all := runners(coic.DefaultParams())
	var every []string
	for _, r := range all {
		every = append(every, r.name)
	}
	for _, tc := range []struct {
		experiment string
		want       []string // nil: an error naming bad
		bad        string
	}{
		{experiment: "all", want: every},
		{experiment: "index", want: []string{"index"}},
		{experiment: " qos , fig2a,qos", want: []string{"fig2a", "qos"}},
		{experiment: "scene,all", want: every},
		{experiment: "index,idnex", bad: "idnex"},
		{experiment: "all,nope", bad: "nope"},
		{experiment: "Fig2a", bad: "Fig2a"},
		{experiment: "", bad: `""`},
		{experiment: " , ", bad: `" , "`},
	} {
		got, err := selectRunners(all, tc.experiment)
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), tc.bad) {
				t.Errorf("-experiment %q: err = %v, want one naming %s", tc.experiment, err, tc.bad)
			}
			continue
		}
		if err != nil {
			t.Errorf("-experiment %q: %v", tc.experiment, err)
			continue
		}
		var names []string
		for _, r := range got {
			names = append(names, r.name)
		}
		if !slices.Equal(names, tc.want) {
			t.Errorf("-experiment %q ran %v, want %v", tc.experiment, names, tc.want)
		}
	}
}
