// Package metrics provides the measurement vocabulary of the paper's
// evaluation section: per-iteration time breakdowns (computation /
// compression / communication, Fig. 11), weak-scaling efficiency (Eq. 4,
// Fig. 10), system throughput (Table IV), and small helpers for loss
// curves and text tables used by the benchmark harness.
package metrics

import (
	"fmt"
	"strings"
	"time"
)

// Breakdown decomposes one training iteration the way Fig. 11 does.
type Breakdown struct {
	Compute  time.Duration // t_f + t_b: forward and backward passes
	Compress time.Duration // t_compr.: local top-k selection
	Comm     time.Duration // t_commu.: gradient aggregation
}

// Total returns the modelled iteration time t_iter.
func (b Breakdown) Total() time.Duration { return b.Compute + b.Compress + b.Comm }

// Fractions returns the (compute, compress, comm) shares of the total,
// each in [0,1]; zero-total breakdowns return all zeros.
func (b Breakdown) Fractions() (compute, compress, comm float64) {
	total := float64(b.Total())
	if total == 0 {
		return 0, 0, 0
	}
	return float64(b.Compute) / total, float64(b.Compress) / total, float64(b.Comm) / total
}

// ScalingEfficiency is the paper's Eq. 4 for weak scaling:
// e = (t_f + t_b) / t_iter. Compression counts against efficiency just as
// communication does (it is overhead absent from single-worker training).
func (b Breakdown) ScalingEfficiency() float64 {
	total := b.Total()
	if total == 0 {
		return 0
	}
	return float64(b.Compute) / float64(total)
}

// Throughput returns processed samples per second for P workers each
// consuming batch samples per iteration of duration iterTime.
func Throughput(p, batch int, iterTime time.Duration) float64 {
	if iterTime <= 0 {
		return 0
	}
	return float64(p*batch) / iterTime.Seconds()
}

// EpochMeans folds a per-iteration loss series into per-epoch means with
// the given number of iterations per epoch, mirroring how the paper plots
// training loss against epochs.
func EpochMeans(losses []float64, itersPerEpoch int) []float64 {
	if itersPerEpoch <= 0 || len(losses) == 0 {
		return nil
	}
	var out []float64
	for start := 0; start < len(losses); start += itersPerEpoch {
		end := start + itersPerEpoch
		if end > len(losses) {
			end = len(losses)
		}
		var s float64
		for _, v := range losses[start:end] {
			s += v
		}
		out = append(out, s/float64(end-start))
	}
	return out
}

// Table accumulates rows and renders an aligned text table, the output
// format of cmd/gtopk-bench (the "figures" of this reproduction are
// tables of series, one row per x-axis point).
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells beyond the header width are dropped and
// missing cells rendered empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf formats each cell with its own verb-free value via %v.
func (t *Table) AddRowf(cells ...interface{}) {
	s := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			s[i] = fmt.Sprintf("%.4g", v)
		case time.Duration:
			s[i] = formatDuration(v)
		default:
			s[i] = fmt.Sprintf("%v", c)
		}
	}
	t.AddRow(s...)
}

// String renders the aligned table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}

// formatDuration renders durations in the unit the paper uses (ms) with
// sub-ms precision where it matters.
func formatDuration(d time.Duration) string {
	ms := float64(d) / float64(time.Millisecond)
	switch {
	case ms >= 1000:
		return fmt.Sprintf("%.2fs", ms/1000)
	case ms >= 10:
		return fmt.Sprintf("%.1fms", ms)
	default:
		return fmt.Sprintf("%.3fms", ms)
	}
}
