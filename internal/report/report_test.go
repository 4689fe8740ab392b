package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tab := NewTable("Title", "name", "value")
	tab.AddRow("short", "1")
	tab.AddRow("a-much-longer-name", "22")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "Title" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name") {
		t.Errorf("header = %q", lines[1])
	}
	// The value column must start at the same offset in every row.
	idx := strings.Index(lines[3], "1")
	if strings.Index(lines[4], "22") != idx {
		t.Errorf("columns not aligned:\n%s", out)
	}
}

func TestTableTruncatesExtraCells(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.AddRow("1", "2", "3")
	if strings.Contains(tab.String(), "3") {
		t.Error("extra cell should be dropped")
	}
}

func TestCSVEscaping(t *testing.T) {
	tab := NewTable("ignored", "a", "b")
	tab.AddRow(`with,comma`, `with"quote`)
	csv := tab.CSV()
	if !strings.Contains(csv, `"with,comma"`) || !strings.Contains(csv, `"with""quote"`) {
		t.Errorf("CSV escaping wrong: %s", csv)
	}
	if strings.Contains(csv, "ignored") {
		t.Error("CSV should omit the title")
	}
}

func TestFormatters(t *testing.T) {
	if Ratio(1.234) != "1.23" {
		t.Errorf("Ratio = %q", Ratio(1.234))
	}
	if Ratio(0) != "-" {
		t.Errorf("Ratio(0) = %q", Ratio(0))
	}
	nan := 0.0
	nan /= nan
	if Ratio(nan) != "-" {
		t.Errorf("Ratio(NaN) = %q", Ratio(nan))
	}
	if Percent(0.123) != "12.3%" {
		t.Errorf("Percent = %q", Percent(0.123))
	}
	if KB(64<<10) != "64K" {
		t.Errorf("KB = %q", KB(64<<10))
	}
}

func TestChartRendersSeries(t *testing.T) {
	c := NewChart("title", "x", "y")
	c.AddSeries("a", []float64{0, 1, 2}, []float64{0, 1, 4})
	c.AddSeries("b", []float64{0, 1, 2}, []float64{4, 1, 0})
	out := c.String()
	if !strings.Contains(out, "title") || !strings.Contains(out, "* a") || !strings.Contains(out, "o b") {
		t.Errorf("chart missing parts:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Errorf("markers not plotted:\n%s", out)
	}
}

func TestChartEmpty(t *testing.T) {
	c := NewChart("t", "x", "y")
	if !strings.Contains(c.String(), "no data") {
		t.Error("empty chart should say so")
	}
	c.AddSeries("nan", []float64{math.NaN()}, []float64{1})
	if !strings.Contains(c.String(), "no data") {
		t.Error("NaN-only series should be dropped")
	}
}

func TestChartDegenerateExtent(t *testing.T) {
	c := NewChart("t", "x", "y")
	c.AddSeries("point", []float64{5}, []float64{5})
	out := c.String()
	if strings.Contains(out, "no data") {
		t.Errorf("single point should plot:\n%s", out)
	}
}

func TestEmptyTables(t *testing.T) {
	// No columns at all: header and separator degenerate to blank lines,
	// but rendering must not panic (the separator is total-2 wide).
	empty := NewTable("only a title")
	if got := empty.String(); got != "only a title\n\n\n" {
		t.Errorf("zero-column table = %q", got)
	}
	if got := NewTable("").String(); got != "\n\n" {
		t.Errorf("fully empty table = %q", got)
	}
	// Columns but no rows: header and rule only.
	headerOnly := NewTable("t", "a", "b")
	if got := headerOnly.String(); got != "t\na  b\n----\n" {
		t.Errorf("rowless table = %q", got)
	}
	if got := headerOnly.Markdown(); got != "| a | b |\n|---|---|\n" {
		t.Errorf("rowless markdown = %q", got)
	}
	if got := headerOnly.CSV(); got != "a,b\n" {
		t.Errorf("rowless CSV = %q", got)
	}
}

func TestRaggedRows(t *testing.T) {
	tab := NewTable("", "a", "b", "c")
	tab.AddRow("1")           // short: padded to width
	tab.AddRow()              // empty: all cells blank
	tab.AddRow("x", "y", "z") // exact
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%q", len(lines), out)
	}
	width := len(lines[0])
	for i, l := range lines {
		if i == 1 {
			continue // the rule line is total-2 wide by design
		}
		if len(l) != width {
			t.Errorf("line %d width %d != %d:\n%q", i, len(l), width, out)
		}
	}
	md := tab.Markdown()
	for _, line := range strings.Split(strings.TrimRight(md, "\n"), "\n") {
		if strings.Count(line, "|")-strings.Count(line, `\|`) != 4 {
			t.Errorf("markdown row has wrong column count: %q", line)
		}
	}
}

func TestMarkdownEscapesCells(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.AddRow("pipe|cell", "multi\nline")
	tab.AddRow("crlf\r\ncell", "cr\rcell")
	got := tab.Markdown()
	want := "| a | b |\n|---|---|\n" +
		"| pipe\\|cell | multi<br>line |\n" +
		"| crlf<br>cell | cr<br>cell |\n"
	if got != want {
		t.Errorf("Markdown:\n%q\nwant:\n%q", got, want)
	}
}

func TestRunRowFormatting(t *testing.T) {
	got := RunRow("64K", 512, 123456, 3.14159, 98765, 0.00123)
	want := []string{"64K", "512", "123456", "3.142", "98765", "1.230e-03"}
	if len(got) != len(want) {
		t.Fatalf("RunRow = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("RunRow[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	inf := InfeasibleRunRow("8K")
	if inf[0] != "8K" || inf[2] != "infeasible" {
		t.Errorf("InfeasibleRunRow = %v", inf)
	}
	tab := NewRunTable("t", "capacity")
	tab.AddRow(got...)
	tab.AddRow(inf...)
	if !strings.Contains(tab.String(), "energy (J)") {
		t.Errorf("run table header missing: %s", tab.String())
	}
}

func TestMarkdown(t *testing.T) {
	tb := NewTable("Title ignored", "name", "value")
	tb.AddRow("plain", "1.00")
	tb.AddRow("pipe|cell", "2.00")
	got := tb.Markdown()
	want := "| name | value |\n|---|---|\n| plain | 1.00 |\n| pipe\\|cell | 2.00 |\n"
	if got != want {
		t.Errorf("Markdown:\n%q\nwant:\n%q", got, want)
	}
	if tb.Title() != "Title ignored" {
		t.Errorf("Title() = %q", tb.Title())
	}
}
