package experiments

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

func testShardSet(t *testing.T, cfg FleetConfig) []FleetShardResult {
	t.Helper()
	outs, err := RunFleetShards(cfg, 0, FleetShardCount(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

func TestFleetWireRoundTrip(t *testing.T) {
	cfg := FleetConfig{Users: 120, HoursPerUser: 0.05, Seed: 99}
	outs := testShardSet(t, cfg)
	var buf bytes.Buffer
	if err := WriteFleetShards(&buf, outs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFleetShards(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, outs) {
		t.Fatal("wire round trip changed the shard set")
	}
	// Re-encoding must reproduce the identical bytes (the determinism matrix
	// depends on the wire being bit-exact, not just value-preserving).
	var buf2 bytes.Buffer
	if err := WriteFleetShards(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-encode differs")
	}
}

func TestFleetWireRejectsCorrupt(t *testing.T) {
	cfg := FleetConfig{Users: 8, HoursPerUser: 0.05, Seed: 1}
	outs := testShardSet(t, cfg)
	var buf bytes.Buffer
	if err := WriteFleetShards(&buf, outs); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()

	bad := append([]byte(nil), enc...)
	copy(bad, "NOPE")
	if _, err := ReadFleetShards(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte(nil), enc...)
	bad[4] = 0xFF // version
	if _, err := ReadFleetShards(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad version accepted")
	}
	if _, err := ReadFleetShards(bytes.NewReader(enc[:len(enc)-3])); err == nil {
		t.Fatal("truncated stream accepted")
	}
	if _, err := ReadFleetShards(bytes.NewReader(enc[:7])); err == nil {
		t.Fatal("truncated header accepted")
	}
	bad = append([]byte(nil), enc...)
	bad[10] = 0x01 // first frame length corrupted
	if _, err := ReadFleetShards(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt frame length accepted")
	}
}

// TestFleetMultiProcMatchesInProcess runs the coordinator against real child
// processes (cat-ing precomputed worker outputs, so the test exercises the
// full pipe/merge path without re-execing the test binary) and checks the
// merged result equals the in-process run exactly.
func TestFleetMultiProcMatchesInProcess(t *testing.T) {
	cfg := FleetConfig{Users: 300, HoursPerUser: 0.05, Seed: 20130709}
	want, err := Fleet(cfg)
	if err != nil {
		t.Fatal(err)
	}

	total := FleetShardCount(cfg)
	dir := t.TempDir()
	const procs = 4
	for p := 0; p < procs; p++ {
		lo := p * total / procs
		hi := (p + 1) * total / procs
		outs, err := RunFleetShards(cfg, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteFleetShards(&buf, outs); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, workerFile(p)), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p := 0
	got, err := FleetMultiProc(cfg, procs, func(lo, hi int) (*exec.Cmd, error) {
		cmd := exec.Command("cat", filepath.Join(dir, workerFile(p)))
		p++
		return cmd, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("multi-process result differs:\n got %+v\nwant %+v", got, want)
	}

	if _, err := FleetMultiProc(cfg, 0, nil); err == nil {
		t.Fatal("zero workers accepted")
	}
}

func workerFile(p int) string {
	return "worker" + string(rune('0'+p)) + ".bin"
}

// FuzzReadFleetShards feeds arbitrary bytes to the coordinator's reader of
// worker output. Whatever it accepts, WriteFleetShards must re-encode to
// exactly the bytes it consumed. The seeds are real worker output, built
// at a small sketch budget so they stay near a kilobyte (a full-budget
// shard set is hundreds of kB, too large for the fuzzer to mutate well).
func FuzzReadFleetShards(f *testing.F) {
	oldBudget := fleetSketchBudget
	fleetSketchBudget = 4
	cfg := FleetConfig{Users: 2000, HoursPerUser: 0.05, Seed: 20130709}
	outs, err := RunFleetShards(cfg, 0, 2)
	fleetSketchBudget = oldBudget
	if err != nil {
		f.Fatal(err)
	}
	for _, set := range [][]FleetShardResult{outs, outs[1:], nil} {
		var buf bytes.Buffer
		if err := WriteFleetShards(&buf, set); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		outs, err := ReadFleetShards(r)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFleetShards(&buf, outs); err != nil {
			t.Fatal(err)
		}
		if consumed := b[:len(b)-r.Len()]; !bytes.Equal(buf.Bytes(), consumed) {
			t.Fatalf("re-encode (%d bytes) differs from the %d consumed bytes", buf.Len(), len(consumed))
		}
	})
}
