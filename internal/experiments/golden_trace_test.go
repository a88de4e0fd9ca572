package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eabrowse/internal/browser"
	"eabrowse/internal/obs"
	"eabrowse/internal/rrc"
)

// update rewrites the committed golden files, and EXPERIMENTS.md's claims
// table, instead of comparing against them:
// go test ./internal/experiments -run TestGoldenTrace -update
var update = flag.Bool("update", false, "rewrite golden files and EXPERIMENTS.md's claims table")

const goldenTracePath = "testdata/golden_trace.jsonl"

// goldenTrace loads m.cnn.com under both pipelines (20 s reading window, as
// in Fig. 10) into a private collector and returns the merged trace bytes.
// Everything feeding the trace is simulated-time deterministic, so these
// bytes must be stable across runs, worker counts and architectures.
func goldenTrace(t *testing.T) []byte {
	t.Helper()
	c := obs.NewCollector()
	page, err := MCNNPage()
	if err != nil {
		t.Fatalf("MCNNPage: %v", err)
	}
	for _, mode := range []browser.Mode{browser.ModeOriginal, browser.ModeEnergyAware} {
		rec, err := c.NewRecorder("golden/" + mode.String())
		if err != nil {
			t.Fatalf("NewRecorder(%v): %v", mode, err)
		}
		if _, err := LoadPage(page, mode, Fig10ReadingTime, WithObsRecorder(rec)); err != nil {
			t.Fatalf("load %v: %v", mode, err)
		}
	}
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	return buf.Bytes()
}

// TestGoldenTrace is the regression guard for the whole observability path:
// any change to event kinds, field names, emission points, timestamps or the
// energy ledger shows up as a line-level diff against the committed trace.
// Behaviour changes that are intended update the file with -update and show
// the reviewer the exact event-stream delta in the commit.
func TestGoldenTrace(t *testing.T) {
	got := goldenTrace(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenTracePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTracePath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenTracePath, len(got))
		return
	}
	want, err := os.ReadFile(goldenTracePath)
	if err != nil {
		t.Fatalf("read golden file: %v\n(generate it with: go test ./internal/experiments -run TestGoldenTrace -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	t.Error(traceDiff(want, got))
}

// traceDiff renders a readable first-divergence diff between two traces: line
// counts, the first differing line number, and both versions of that line.
func traceDiff(want, got []byte) string {
	wantLines := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	gotLines := strings.Split(strings.TrimRight(string(got), "\n"), "\n")
	var b strings.Builder
	fmt.Fprintf(&b, "trace diverges from %s (want %d lines, got %d)\n",
		goldenTracePath, len(wantLines), len(gotLines))
	n := len(wantLines)
	if len(gotLines) < n {
		n = len(gotLines)
	}
	for i := 0; i < n; i++ {
		if wantLines[i] != gotLines[i] {
			fmt.Fprintf(&b, "first difference at line %d:\n  want: %s\n  got:  %s\n",
				i+1, wantLines[i], gotLines[i])
			b.WriteString("rerun with -update if the change is intended")
			return b.String()
		}
	}
	fmt.Fprintf(&b, "traces agree on the first %d lines; the longer one continues:\n", n)
	if len(gotLines) > n {
		fmt.Fprintf(&b, "  got line %d: %s\n", n+1, gotLines[n])
	} else {
		fmt.Fprintf(&b, "  want line %d: %s\n", n+1, wantLines[n])
	}
	b.WriteString("rerun with -update if the change is intended")
	return b.String()
}

// TestGoldenTraceStability regenerates the trace a second time in-process and
// requires byte equality — the determinism claim the golden file rests on.
func TestGoldenTraceStability(t *testing.T) {
	a := goldenTrace(t)
	b := goldenTrace(t)
	if !bytes.Equal(a, b) {
		t.Error(traceDiff(a, b))
	}
}

// goldenTraceFor is goldenTrace on an explicit radio backend: the same
// m.cnn.com double load, routed through WithRadioModel.
func goldenTraceFor(t *testing.T, profile string) []byte {
	t.Helper()
	spec, err := rrc.ProfileSpec(profile)
	if err != nil {
		t.Fatalf("ProfileSpec(%q): %v", profile, err)
	}
	c := obs.NewCollector()
	page, err := MCNNPage()
	if err != nil {
		t.Fatalf("MCNNPage: %v", err)
	}
	for _, mode := range []browser.Mode{browser.ModeOriginal, browser.ModeEnergyAware} {
		rec, err := c.NewRecorder("golden/" + mode.String())
		if err != nil {
			t.Fatalf("NewRecorder(%v): %v", mode, err)
		}
		_, err = LoadPage(page, mode, Fig10ReadingTime, WithRadioModel(spec), WithObsRecorder(rec))
		if err != nil {
			t.Fatalf("load %v on %s: %v", mode, profile, err)
		}
	}
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	return buf.Bytes()
}

// TestGoldenTraceBackends pins one golden trace per non-UMTS radio backend
// (UMTS is the main golden_trace.jsonl). Each backend's event stream —
// state names, tail timings, ledger columns — is its own committed contract.
func TestGoldenTraceBackends(t *testing.T) {
	for _, profile := range []string{"lte", "nr"} {
		t.Run(profile, func(t *testing.T) {
			path := fmt.Sprintf("testdata/golden_trace_%s.jsonl", profile)
			got := goldenTraceFor(t, profile)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden file: %v\n(generate it with: go test ./internal/experiments -run TestGoldenTraceBackends -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Error(traceDiff(want, got))
			}
		})
	}
}

// TestGoldenTraceUMTSExplicitMatchesDefault proves the named "umts" profile
// routed through the RadioModel interface is byte-identical to the default
// path pinned by golden_trace.jsonl — the refactor's no-regression contract
// at the event-stream level.
func TestGoldenTraceUMTSExplicitMatchesDefault(t *testing.T) {
	def := goldenTrace(t)
	explicit := goldenTraceFor(t, "umts")
	if !bytes.Equal(def, explicit) {
		t.Error(traceDiff(def, explicit))
	}
}
