package main

import (
	"strings"
	"testing"

	coic "github.com/edge-immersion/coic"
)

// TestParseRunFlags: -mode, -task and -qos accept exactly their named
// values, and anything else is an error naming the bad value (a mistyped
// -mode once ran the CoIC arm silently).
func TestParseRunFlags(t *testing.T) {
	for _, tc := range []struct {
		mode, task, qos string
		wantMode        coic.Mode
		wantQoS         coic.QoS
		bad             string // "": no error expected
	}{
		{mode: "coic", task: "recognize", qos: "besteffort", wantMode: coic.ModeCoIC, wantQoS: coic.QoSBestEffort},
		{mode: "origin", task: "render", qos: "interactive", wantMode: coic.ModeOrigin, wantQoS: coic.QoSInteractive},
		{mode: "coic", task: "pano", qos: "interactive", wantMode: coic.ModeCoIC, wantQoS: coic.QoSInteractive},
		{mode: "orgin", task: "recognize", qos: "besteffort", bad: `-mode "orgin"`},
		{mode: "", task: "recognize", qos: "besteffort", bad: `-mode ""`},
		{mode: "Origin", task: "recognize", qos: "besteffort", bad: `-mode "Origin"`},
		{mode: "coic", task: "recognise", qos: "besteffort", bad: `-task "recognise"`},
		{mode: "coic", task: "", qos: "besteffort", bad: `-task ""`},
		{mode: "coic", task: "pano", qos: "best-effort", bad: `-qos "best-effort"`},
	} {
		m, q, err := parseRunFlags(tc.mode, tc.task, tc.qos)
		if tc.bad != "" {
			if err == nil || !strings.Contains(err.Error(), tc.bad) {
				t.Errorf("(%q, %q, %q): err = %v, want one naming %s", tc.mode, tc.task, tc.qos, err, tc.bad)
			}
			continue
		}
		if err != nil {
			t.Errorf("(%q, %q, %q): %v", tc.mode, tc.task, tc.qos, err)
			continue
		}
		if m != tc.wantMode || q != tc.wantQoS {
			t.Errorf("(%q, %q, %q) = (%v, %v), want (%v, %v)", tc.mode, tc.task, tc.qos, m, q, tc.wantMode, tc.wantQoS)
		}
	}
}
