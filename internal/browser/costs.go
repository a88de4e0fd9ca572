// Package browser implements the paper's two webpage-loading pipelines over
// the simulated radio (Section 4):
//
//   - the Original pipeline, which interleaves data-transmission computation
//     (parsing, script execution) with layout computation (image decoding,
//     CSS rule extraction, style formatting, layout calculation, rendering,
//     redraws and reflows) the way stock mobile browsers did; and
//   - the Energy-Aware pipeline, which runs all data-transmission
//     computation first so every object downloads as early as possible,
//     draws one cheap simplified intermediate display, forces the radio
//     dormant once the last byte arrives, and only then runs the layout
//     computation.
//
// Both pipelines process real markup (internal/htmlscan, internal/cssscan)
// and really execute scripts (internal/jsmini), so they discover work the
// way actual browsers do; only the *cost* of each operation comes from a
// calibrated model (CostModel) because the simulation stands in for a
// 2010-era smartphone CPU, not for the Go runtime.
package browser

import (
	"errors"
	"time"
)

// CostModel maps browser operations to simulated CPU time on the target
// device. The defaults are calibrated so the benchmark corpus reproduces the
// paper's measured behaviour: full-version pages load in tens of seconds
// with 40-70% of the time in layout computation (the Meyerovich/Bodik number
// the paper cites), mobile pages are network-bound, and the energy-aware
// reordering buys ≈27% of data-transmission time on the full benchmark.
type CostModel struct {
	// ScanHTMLPerKB is the cheap reference scan over HTML source.
	ScanHTMLPerKB time.Duration
	// ParseHTMLPerKB is full HTML parsing into the DOM tree.
	ParseHTMLPerKB time.Duration
	// ScanCSSPerKB is the cheap url()/@import scan over CSS source.
	ScanCSSPerKB time.Duration
	// ParseCSSPerKB is full CSS parsing and style-rule extraction.
	ParseCSSPerKB time.Duration
	// ExecJSPerKB is script execution cost per KB of script source, on top
	// of whatever compute() work the script itself requests.
	ExecJSPerKB time.Duration
	// DecodeImagePerKB is image decoding.
	DecodeImagePerKB time.Duration

	// StylePerNode is style formatting (matching CSS rules to a node).
	StylePerNode time.Duration
	// LayoutPerNode is layout calculation per node.
	LayoutPerNode time.Duration
	// RenderPerNode is painting per node.
	RenderPerNode time.Duration
	// RedrawPerNode is the cost, per DOM node, of a redraw (the browser
	// searches all nodes to determine what to repaint).
	RedrawPerNode time.Duration
	// SimpleDisplayPerNode is the energy-aware pipeline's text-only
	// intermediate display (no CSS rules, no styles, no images).
	SimpleDisplayPerNode time.Duration

	// JSComputeUnit converts a script's compute(n) units into CPU time.
	JSComputeUnit time.Duration

	// CPUActiveWatts is the extra power drawn while the CPU is busy. It is a
	// calibrated input of its own, not Table 5's fully running CPU (which
	// adds 0.45 W over the idle baseline; see DefaultCostModel).
	CPUActiveWatts float64

	// ChunkBytes is the incremental parsing granularity: the parser yields
	// (issuing fetches, updating the display) after each chunk.
	ChunkBytes int
}

// DefaultCostModel returns the calibrated cost model.
func DefaultCostModel() CostModel {
	return CostModel{
		ScanHTMLPerKB:        6 * time.Millisecond,
		ParseHTMLPerKB:       18 * time.Millisecond,
		ScanCSSPerKB:         6 * time.Millisecond,
		ParseCSSPerKB:        35 * time.Millisecond,
		ExecJSPerKB:          135 * time.Millisecond,
		DecodeImagePerKB:     4 * time.Millisecond,
		StylePerNode:         400 * time.Microsecond,
		LayoutPerNode:        200 * time.Microsecond,
		RenderPerNode:        160 * time.Microsecond,
		RedrawPerNode:        70 * time.Microsecond,
		SimpleDisplayPerNode: 90 * time.Microsecond,
		JSComputeUnit:        time.Millisecond,
		// Table 5 reports +0.45 W for a fully pegged CPU; browser workloads
		// average below that (the Fig. 9 traces oscillate well under the
		// DCH+CPU ceiling), so the busy-power is calibrated slightly lower.
		CPUActiveWatts: 0.35,
		ChunkBytes:     8 * 1024,
	}
}

// Validate checks the model for physical sense.
func (c CostModel) Validate() error {
	if c.ScanHTMLPerKB < 0 || c.ParseHTMLPerKB < 0 || c.ScanCSSPerKB < 0 ||
		c.ParseCSSPerKB < 0 || c.ExecJSPerKB < 0 || c.DecodeImagePerKB < 0 ||
		c.StylePerNode < 0 || c.LayoutPerNode < 0 || c.RenderPerNode < 0 ||
		c.RedrawPerNode < 0 || c.SimpleDisplayPerNode < 0 || c.JSComputeUnit < 0 {
		return errors.New("browser: negative cost in model")
	}
	if c.CPUActiveWatts < 0 {
		return errors.New("browser: negative CPU power")
	}
	if c.ChunkBytes <= 0 {
		return errors.New("browser: chunk size must be positive")
	}
	return nil
}

// perKB scales a per-KB cost by a byte count.
func perKB(cost time.Duration, bytes int) time.Duration {
	return time.Duration(float64(cost) * float64(bytes) / 1024)
}

// perNode scales a per-node cost by a node count.
func perNode(cost time.Duration, nodes int) time.Duration {
	return time.Duration(nodes) * cost
}
