// Package report renders experiment results as aligned text tables and
// CSV, for the cmd tools and the benchmark harness.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	title  string
	header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{title: title, header: header}
}

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		cells = cells[:len(t.header)]
	}
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// widths computes per-column display widths.
func (t *Table) widths() []int {
	w := make([]int, len(t.header))
	for i, h := range t.header {
		w[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "%s\n", t.title)
	}
	widths := t.widths()
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if total >= 2 {
		b.WriteString(strings.Repeat("-", total-2))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		line(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	if _, err := t.WriteTo(&b); err != nil {
		return ""
	}
	return b.String()
}

// CSV renders the table as comma-separated values (title omitted).
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored markdown table. The
// title is omitted — callers place their own headings — so the output
// can be pasted into EXPERIMENTS.md-style documents verbatim.
func (t *Table) Markdown() string {
	var b strings.Builder
	esc := func(c string) string {
		c = strings.ReplaceAll(c, "|", `\|`)
		// A literal newline would terminate the markdown row; <br> keeps
		// multi-line cells inside their table cell.
		c = strings.ReplaceAll(c, "\r\n", "\n")
		c = strings.ReplaceAll(c, "\r", "\n")
		return strings.ReplaceAll(c, "\n", "<br>")
	}
	writeRow := func(cells []string) {
		b.WriteByte('|')
		for _, c := range cells {
			b.WriteByte(' ')
			b.WriteString(esc(c))
			b.WriteString(" |")
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	b.WriteByte('|')
	for range t.header {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Title returns the table's title.
func (t *Table) Title() string { return t.title }

// Ratio formats a ratio with two decimals, or "-" for non-finite input.
func Ratio(v float64) string {
	if v != v || v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", v)
}

// Percent formats a fraction as a percentage with one decimal.
func Percent(v float64) string {
	return fmt.Sprintf("%.1f%%", 100*v)
}

// KB formats a byte count in binary kilobytes.
func KB(bytes int) string {
	return fmt.Sprintf("%dK", bytes>>10)
}

// NewRunTable returns the canonical per-run metric table shared by
// cmd/sweep and cmd/compare: one row per run, labeled by firstCol.
func NewRunTable(title, firstCol string) *Table {
	return NewTable(title, firstCol, "threads", "cycles", "IPC", "dram bytes", "energy (J)")
}

// RunRow formats one run's cells for NewRunTable. The formatting is the
// contract that keeps local and service-rendered tables byte-identical:
// callers on both sides feed exact round-tripped scalars through the
// same verbs.
func RunRow(label string, threads int, cycles int64, ipc float64, dramBytes int64, energyJoules float64) []string {
	return []string{label, fmt.Sprint(threads), fmt.Sprint(cycles),
		fmt.Sprintf("%.3f", ipc), fmt.Sprint(dramBytes), fmt.Sprintf("%.3e", energyJoules)}
}

// InfeasibleRunRow is RunRow for a configuration the kernel cannot fit.
func InfeasibleRunRow(label string) []string {
	return []string{label, "-", "infeasible", "-", "-", "-"}
}
