package metrics

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Quantile(1) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistogramBasicStats(t *testing.T) {
	var h Histogram
	for _, ms := range []int{10, 20, 30, 40, 50} {
		h.Record(time.Duration(ms) * time.Millisecond)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if got, want := h.Mean(), 30*time.Millisecond; got != want {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
	if got, want := h.Quantile(0), 10*time.Millisecond; got != want {
		t.Fatalf("Quantile(0) = %v, want %v", got, want)
	}
	if got, want := h.Quantile(1), 50*time.Millisecond; got != want {
		t.Fatalf("Quantile(1) = %v, want %v", got, want)
	}
	if got, want := h.Median(), 30*time.Millisecond; got != want {
		t.Fatalf("Median = %v, want %v", got, want)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-time.Second)
	if h.Quantile(0) != 0 || h.Quantile(1) != 0 || h.Mean() != 0 || h.Count() != 1 {
		t.Fatalf("negative sample not clamped: min=%v max=%v mean=%v", h.Quantile(0), h.Quantile(1), h.Mean())
	}
}

func TestQuantileMatchesSortedIndex(t *testing.T) {
	// Property: for any non-empty sample set, Quantile(q) equals the
	// nearest-rank element of the sorted samples, and quantiles are
	// monotone in q.
	f := func(raw []uint16, qa, qb float64) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		vals := make([]time.Duration, len(raw))
		for i, r := range raw {
			vals[i] = time.Duration(r) * time.Microsecond
			h.Record(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		clamp := func(q float64) float64 {
			if q < 0 {
				return 0
			}
			if q > 1 {
				return 1
			}
			return q
		}
		qa, qb = clamp(qa), clamp(qb)
		if qa > qb {
			qa, qb = qb, qa
		}
		return h.Quantile(qa) <= h.Quantile(qb) &&
			h.Quantile(0) == vals[0] && h.Quantile(1) == vals[len(vals)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(time.Second)
	h.Reset()
	if h.Count() != 0 || h.Quantile(1) != 0 || h.Mean() != 0 {
		t.Fatal("Reset left residue")
	}
	h.Record(2 * time.Second)
	if h.Mean() != 2*time.Second {
		t.Fatalf("Mean after Reset+Record = %v: Reset left the old sum", h.Mean())
	}
}

func TestQuantileStableUnderInterleavedReads(t *testing.T) {
	// Reading a quantile sorts samples lazily; later Records must still
	// be reflected by subsequent reads.
	var h Histogram
	rng := rand.New(rand.NewSource(7))
	var max time.Duration
	for i := 0; i < 100; i++ {
		d := time.Duration(rng.Intn(1000)) * time.Microsecond
		if d > max {
			max = d
		}
		h.Record(d)
		_ = h.Median()
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Quantile(1) != max {
		t.Fatalf("Quantile(1)=%v != largest sample %v", h.Quantile(1), max)
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tb := NewTable("Fig X", "mode", "latency(ms)")
	tb.AddRow("origin", 1234.5)
	tb.AddRow("hit", 56.7)
	tb.AddNote("threshold=%.2f", 0.25)
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig X", "mode", "origin", "1234.50", "56.70", "note: threshold=0.25"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header and separator must be equal width for alignment.
	if len(lines) < 3 || len(lines[1]) != len(lines[2]) {
		t.Fatalf("misaligned header/separator:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow(1, "x,y")
	var buf bytes.Buffer
	if err := tb.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"x,y\"\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestTableJSON(t *testing.T) {
	tb := NewTable("A-qos", "mode", "p99_ms")
	tb.AddRow("fifo", 182.3)
	tb.AddRow("qos", 51.0)
	tb.AddNote("budget 120ms")
	var buf bytes.Buffer
	if err := tb.RenderJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got TableJSON
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("RenderJSON emitted invalid JSON: %v\n%s", err, buf.String())
	}
	if got.Title != "A-qos" || len(got.Columns) != 2 || len(got.Rows) != 2 || len(got.Notes) != 1 {
		t.Fatalf("round trip = %+v", got)
	}
	if got.Rows[0][0] != "fifo" || got.Rows[1][1] != "51.00" {
		t.Fatalf("rows = %v", got.Rows)
	}
}

func TestTableRows(t *testing.T) {
	tb := NewTable("t", "a")
	tb.AddRow("v")
	rows := tb.Rows()
	rows[0][0] = "mutated"
	if tb.rows[0][0] != "v" {
		t.Fatal("Rows must return a copy")
	}
}
