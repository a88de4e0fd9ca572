package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"testing"
)

// update rewrites the committed golden output instead of comparing against
// it: go test ./cmd/eabrowse -run TestGoldenOutput -update
var update = flag.Bool("update", false, "rewrite the golden output file")

const goldenPath = "testdata/mcnn_both_timeline_residency.golden"

func TestListPages(t *testing.T) {
	if err := run([]string{"-list"}, io.Discard); err != nil {
		t.Fatalf("run(-list): %v", err)
	}
}

func TestUnknownPage(t *testing.T) {
	if err := run([]string{"-page", "no.such.page"}, io.Discard); err == nil {
		t.Fatal("unknown page accepted")
	}
}

func TestUnknownMode(t *testing.T) {
	if err := run([]string{"-mode", "warp"}, io.Discard); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestLoadMobilePage(t *testing.T) {
	if err := run([]string{"-page", "m.cnn.com", "-mode", "both", "-reading", "5s"}, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestTimeline(t *testing.T) {
	if err := run([]string{"-page", "m.ebay.com", "-mode", "energy-aware", "-timeline"}, io.Discard); err != nil {
		t.Fatalf("run(-timeline): %v", err)
	}
}

// TestGoldenOutput pins the whole report of both pipelines on m.cnn.com with
// a 20 s reading window: the summary table, both event timelines and both
// radio-residency blocks. Any change to the load, the reading window or the
// residency accounting shows up as a line diff.
func TestGoldenOutput(t *testing.T) {
	var got bytes.Buffer
	args := []string{"-page", "m.cnn.com", "-mode", "both", "-reading", "20s", "-timeline", "-residency"}
	if err := run(args, &got); err != nil {
		t.Fatalf("run: %v", err)
	}
	if *update {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", goldenPath, got.Bytes(), want)
	}
}
