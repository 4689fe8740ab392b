package report

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Chart renders one or more (x, y) series as an ASCII scatter/line chart,
// used by cmd/paper -chart to show the paper's figures as plots rather
// than tables.
type Chart struct {
	title  string
	xLabel string
	yLabel string
	series []chartSeries
	width  int
	height int
}

type chartSeries struct {
	name   string
	marker byte
	xs, ys []float64
}

// seriesMarkers are assigned to series in order.
var seriesMarkers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// NewChart creates a chart with the given title and axis labels.
func NewChart(title, xLabel, yLabel string) *Chart {
	return &Chart{title: title, xLabel: xLabel, yLabel: yLabel, width: 64, height: 16}
}

// AddSeries appends a named series. xs and ys must have equal length;
// non-finite points are dropped.
func (c *Chart) AddSeries(name string, xs, ys []float64) {
	s := chartSeries{name: name, marker: seriesMarkers[len(c.series)%len(seriesMarkers)]}
	for i := range xs {
		if i >= len(ys) {
			break
		}
		if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) || math.IsNaN(ys[i]) || math.IsInf(ys[i], 0) {
			continue
		}
		s.xs = append(s.xs, xs[i])
		s.ys = append(s.ys, ys[i])
	}
	c.series = append(c.series, s)
}

// bounds returns the data extent across series, padded slightly.
func (c *Chart) bounds() (x0, x1, y0, y1 float64, ok bool) {
	x0, y0 = math.Inf(1), math.Inf(1)
	x1, y1 = math.Inf(-1), math.Inf(-1)
	for _, s := range c.series {
		for i := range s.xs {
			x0, x1 = math.Min(x0, s.xs[i]), math.Max(x1, s.xs[i])
			y0, y1 = math.Min(y0, s.ys[i]), math.Max(y1, s.ys[i])
		}
	}
	if x0 > x1 {
		return 0, 0, 0, 0, false
	}
	if x0 == x1 {
		x0, x1 = x0-1, x1+1
	}
	if y0 == y1 {
		y0, y1 = y0-1, y1+1
	}
	// Always show y=0 context for ratio plots that hover near 1.
	if y0 > 0 && y0 < 1.5 && y1 < 3 {
		y0 = 0
	}
	return x0, x1, y0, y1, true
}

// String renders the chart.
func (c *Chart) String() string {
	var b strings.Builder
	if c.title != "" {
		fmt.Fprintf(&b, "%s\n", c.title)
	}
	x0, x1, y0, y1, ok := c.bounds()
	if !ok {
		b.WriteString("(no data)\n")
		return b.String()
	}
	grid := make([][]byte, c.height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", c.width))
	}
	for _, s := range c.series {
		// Plot points sorted by x so overlapping series stay readable.
		idx := make([]int, len(s.xs))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool { return s.xs[idx[i]] < s.xs[idx[j]] })
		for _, i := range idx {
			col := int(math.Round((s.xs[i] - x0) / (x1 - x0) * float64(c.width-1)))
			row := c.height - 1 - int(math.Round((s.ys[i]-y0)/(y1-y0)*float64(c.height-1)))
			if col >= 0 && col < c.width && row >= 0 && row < c.height {
				grid[row][col] = s.marker
			}
		}
	}
	yTop := fmt.Sprintf("%.2f", y1)
	yBot := fmt.Sprintf("%.2f", y0)
	pad := len(yTop)
	if len(yBot) > pad {
		pad = len(yBot)
	}
	for r := range grid {
		label := strings.Repeat(" ", pad)
		switch r {
		case 0:
			label = fmt.Sprintf("%*s", pad, yTop)
		case c.height - 1:
			label = fmt.Sprintf("%*s", pad, yBot)
		case c.height / 2:
			label = fmt.Sprintf("%*s", pad, c.yLabel)
			if len(label) > pad {
				label = label[:pad]
			}
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(grid[r]))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", pad), strings.Repeat("-", c.width))
	left := fmt.Sprintf("%.0f", x0)
	right := fmt.Sprintf("%.0f", x1)
	gap := c.width - len(left) - len(right)
	if gap < 1 {
		gap = 1
	}
	fmt.Fprintf(&b, "%s  %s%s%s  (%s)\n", strings.Repeat(" ", pad), left,
		strings.Repeat(" ", gap), right, c.xLabel)
	for _, s := range c.series {
		fmt.Fprintf(&b, "%s    %c %s\n", strings.Repeat(" ", pad), s.marker, s.name)
	}
	return b.String()
}
