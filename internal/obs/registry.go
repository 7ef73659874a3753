package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one name="value" pair on a metric.
type Label struct {
	Name  string
	Value string
}

// L builds a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// metricKind discriminates family types in the exposition output.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metricEntry is one labelled time series inside a family. Exactly one of
// the value fields is set, matching the family's kind.
type metricEntry struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	fn      func() float64 // callback counter/gauge (reads an external counter)
	hist    *Histogram
}

// family is all series sharing one metric name.
type family struct {
	name string
	help string
	kind metricKind

	entries []*metricEntry
	byKey   map[string]*metricEntry
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is synchronised and typically happens
// at wiring time; the returned Counter/Gauge/Histogram handles are then
// used lock-free on hot paths. Families render in registration order,
// series within a family in creation order.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// Counter registers (or finds) the counter series name{labels...}.
// Panics on an invalid name/labels or on a kind/help mismatch with an
// existing family — these are wiring bugs, not runtime conditions.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	e := r.entry(name, help, kindCounter, labels)
	if e.counter == nil {
		e.counter = &Counter{}
	}
	return e.counter
}

// Gauge registers (or finds) the gauge series name{labels...}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	e := r.entry(name, help, kindGauge, labels)
	if e.gauge == nil {
		e.gauge = &Gauge{}
	}
	return e.gauge
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time — the bridge for counters that already live elsewhere
// (cache hit counters, scheduler admissions) without double accounting.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.entry(name, help, kindCounter, labels).fn = fn
}

// GaugeFunc registers a gauge series whose value is read from fn at
// scrape time (resident cache bytes, queue depths).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.entry(name, help, kindGauge, labels).fn = fn
}

// Histogram registers (or finds) the histogram series name{labels...},
// bucketed by DefLatencyBuckets.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	e := r.entry(name, help, kindHistogram, labels)
	if e.hist == nil {
		e.hist = newHistogram()
	}
	return e.hist
}

func (r *Registry) entry(name, help string, kind metricKind, labels []Label) *metricEntry {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabelName(l.Name) {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l.Name, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, byKey: map[string]*metricEntry{}}
		r.byName[name] = f
		r.fams = append(r.fams, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s, was %s", name, kind, f.kind))
	}
	key := labelKey(labels)
	e := f.byKey[key]
	if e == nil {
		e = &metricEntry{labels: append([]Label(nil), labels...)}
		f.byKey[key] = e
		f.entries = append(f.entries, e)
	}
	return e
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4): # HELP and # TYPE lines followed by the series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		f.write(&b)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(b *strings.Builder) {
	if f.help != "" {
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteByte('\n')
	}
	b.WriteString("# TYPE ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(f.kind.String())
	b.WriteByte('\n')
	for _, e := range f.entries {
		switch {
		case e.hist != nil:
			writeHistogram(b, f.name, e)
		case e.fn != nil:
			writeSample(b, f.name, e.labels, formatFloat(e.fn()))
		case e.counter != nil:
			writeSample(b, f.name, e.labels, strconv.FormatUint(e.counter.Value(), 10))
		case e.gauge != nil:
			writeSample(b, f.name, e.labels, strconv.FormatInt(e.gauge.Value(), 10))
		}
	}
}

func writeHistogram(b *strings.Builder, name string, e *metricEntry) {
	cum, _, sum := e.hist.snapshot()
	for i, bound := range e.hist.bounds {
		le := formatFloat(bound)
		writeSample(b, name+"_bucket", append(append([]Label(nil), e.labels...), L("le", le)),
			strconv.FormatUint(cum[i], 10))
	}
	total := cum[len(cum)-1]
	writeSample(b, name+"_bucket", append(append([]Label(nil), e.labels...), L("le", "+Inf")),
		strconv.FormatUint(total, 10))
	writeSample(b, name+"_sum", e.labels, formatFloat(sum.Seconds()))
	writeSample(b, name+"_count", e.labels, strconv.FormatUint(total, 10))
}

func writeSample(b *strings.Builder, name string, labels []Label, value string) {
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabelValue(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// labelKey builds a canonical key for a label set (order-insensitive).
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(';')
	}
	return b.String()
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trippable representation, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslash and newline in HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes backslash, double quote and newline in label
// values.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// validMetricName reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabelName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]* and
// is not reserved (double-underscore prefix).
func validLabelName(name string) bool {
	if name == "" || strings.HasPrefix(name, "__") {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
