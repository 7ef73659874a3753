package metrics

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows of an experiment result and renders them as an
// aligned text table (for the terminal) or CSV (for plotting). It is the
// common output path for every figure regenerated by cmd/coic-bench.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
	notes   []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row. Values are formatted with %v; durations and
// floats should be pre-formatted by the caller when a specific precision
// is wanted.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", x)
		case float32:
			row[i] = fmt.Sprintf("%.2f", x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// AddNote attaches a free-text footnote printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// Rows returns a copy of the accumulated rows.
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = append([]string(nil), r...)
	}
	return out
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// TableJSON is the machine-readable form of a Table: what RenderJSON
// and cmd/coic-bench -json emit for scripts to parse. Rows are cell
// strings in column order, exactly as rendered.
type TableJSON struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// JSON returns the table's machine-readable form.
func (t *Table) JSON() TableJSON {
	return TableJSON{Title: t.Title, Columns: t.Columns, Rows: t.Rows(), Notes: append([]string(nil), t.notes...)}
}

// RenderJSON writes the table as one indented JSON object (title,
// columns, rows, notes) — the element format of cmd/coic-bench -json.
func (t *Table) RenderJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.JSON())
}

// RenderCSV writes the table as CSV with the header row first. The title
// and notes are not emitted: CSV output is for machines.
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
