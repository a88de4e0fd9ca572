package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os/exec"
	"sort"
	"sync"

	"eabrowse/internal/stats"
)

// Multi-process fleet protocol. A coordinator splits the shard range across
// N workers (re-execs of the same binary); each worker replays its shards
// and streams the accumulators back over stdout in one length-prefixed
// binary message. Everything is little-endian and bit-exact — float fields
// travel as their IEEE-754 bits — so a merged multi-process run is
// byte-identical to the single-process run.
//
//	header:     "EAFL"  u16 version  u32 shard count
//	per shard:  u32 frame length, then within the frame:
//	            u32 shard  i64 visits  i64 switches  i64 predictions
//	            f64 origJ  f64 awareJ  f64 predJ
//	            sketch origTrans  sketch awareTrans     (stats codec)
//	            sketch origVisitJ  sketch awareVisitJ   (v2)
//
// Version 2 appended the two per-visit energy sketches. Workers are re-execs
// of the coordinator binary, so the version check is strict — there is no
// cross-version negotiation to support.

const (
	fleetWireMagic   = "EAFL"
	fleetWireVersion = 2
	// fleetWireMaxFrame bounds one shard frame so a corrupt length field
	// cannot drive an unbounded allocation: four max-size sketches plus the
	// fixed fields fit comfortably.
	fleetWireMaxFrame = 1 << 28
)

// WriteFleetShards encodes a shard result set onto w.
func WriteFleetShards(w io.Writer, outs []FleetShardResult) error {
	head := make([]byte, 0, 16)
	head = append(head, fleetWireMagic...)
	head = binary.LittleEndian.AppendUint16(head, fleetWireVersion)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(outs)))
	if _, err := w.Write(head); err != nil {
		return err
	}
	var buf []byte
	for i := range outs {
		o := &outs[i]
		buf = buf[:0]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(o.Shard))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(o.Visits))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(o.Switches))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(o.Predictions))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.OrigJ))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.AwareJ))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.PredJ))
		buf = o.OrigTrans.AppendBinary(buf)
		buf = o.AwareTrans.AppendBinary(buf)
		buf = o.OrigVisitJ.AppendBinary(buf)
		buf = o.AwareVisitJ.AppendBinary(buf)
		var frame [4]byte
		binary.LittleEndian.PutUint32(frame[:], uint32(len(buf)))
		if _, err := w.Write(frame[:]); err != nil {
			return err
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadFleetShards decodes a shard result set from r, validating framing and
// field structure. Shards are returned in wire order.
func ReadFleetShards(r io.Reader) ([]FleetShardResult, error) {
	var head [10]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("fleet wire: header: %w", err)
	}
	if string(head[:4]) != fleetWireMagic {
		return nil, fmt.Errorf("fleet wire: bad magic %q", head[:4])
	}
	if v := binary.LittleEndian.Uint16(head[4:]); v != fleetWireVersion {
		return nil, fmt.Errorf("fleet wire: version %d, want %d", v, fleetWireVersion)
	}
	count := int(binary.LittleEndian.Uint32(head[6:]))
	if count > fleetShards {
		return nil, fmt.Errorf("fleet wire: %d shards exceeds maximum %d", count, fleetShards)
	}
	outs := make([]FleetShardResult, 0, count)
	var frame bytes.Buffer
	for i := 0; i < count; i++ {
		var lenb [4]byte
		if _, err := io.ReadFull(r, lenb[:]); err != nil {
			return nil, fmt.Errorf("fleet wire: shard %d length: %w", i, err)
		}
		n := int(binary.LittleEndian.Uint32(lenb[:]))
		if n < 56 || n > fleetWireMaxFrame {
			return nil, fmt.Errorf("fleet wire: shard %d frame length %d out of range", i, n)
		}
		// The buffer grows with the bytes that actually arrive, so a
		// corrupt length on a short stream costs no frame-sized allocation.
		frame.Reset()
		if _, err := io.CopyN(&frame, r, int64(n)); err != nil {
			return nil, fmt.Errorf("fleet wire: shard %d frame: %w", i, err)
		}
		buf := frame.Bytes()
		var o FleetShardResult
		o.Shard = int(int32(binary.LittleEndian.Uint32(buf)))
		o.Visits = int64(binary.LittleEndian.Uint64(buf[4:]))
		o.Switches = int64(binary.LittleEndian.Uint64(buf[12:]))
		o.Predictions = int64(binary.LittleEndian.Uint64(buf[20:]))
		o.OrigJ = math.Float64frombits(binary.LittleEndian.Uint64(buf[28:]))
		o.AwareJ = math.Float64frombits(binary.LittleEndian.Uint64(buf[36:]))
		o.PredJ = math.Float64frombits(binary.LittleEndian.Uint64(buf[44:]))
		rest := buf[52:]
		var err error
		if o.OrigTrans, rest, err = stats.DecodeSketch(rest); err != nil {
			return nil, fmt.Errorf("fleet wire: shard %d orig sketch: %w", i, err)
		}
		if o.AwareTrans, rest, err = stats.DecodeSketch(rest); err != nil {
			return nil, fmt.Errorf("fleet wire: shard %d aware sketch: %w", i, err)
		}
		if o.OrigVisitJ, rest, err = stats.DecodeSketch(rest); err != nil {
			return nil, fmt.Errorf("fleet wire: shard %d orig visit sketch: %w", i, err)
		}
		if o.AwareVisitJ, rest, err = stats.DecodeSketch(rest); err != nil {
			return nil, fmt.Errorf("fleet wire: shard %d aware visit sketch: %w", i, err)
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("fleet wire: shard %d frame has %d trailing bytes", i, len(rest))
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// FleetMultiProc runs the fleet across procs worker processes. spawn must
// return a ready-to-start command computing shards [lo, hi) and writing the
// wire format to its stdout (eabench wires this to a re-exec of itself with
// -fleet-worker). Worker outputs merge sorted by shard index, so the result
// is byte-identical to Fleet() at any process count.
func FleetMultiProc(cfg FleetConfig, procs int, spawn func(lo, hi int) (*exec.Cmd, error)) (*FleetResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if procs < 1 {
		return nil, fmt.Errorf("fleet: need at least one worker process, got %d", procs)
	}
	total := FleetShardCount(cfg)
	if procs > total {
		procs = total
	}

	type workerOut struct {
		outs []FleetShardResult
		err  error
	}
	results := make([]workerOut, procs)
	var wg sync.WaitGroup
	cmds := make([]*exec.Cmd, procs)
	for p := 0; p < procs; p++ {
		lo := p * total / procs
		hi := (p + 1) * total / procs
		cmd, err := spawn(lo, hi)
		if err != nil {
			return nil, fmt.Errorf("fleet worker %d: %w", p, err)
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, fmt.Errorf("fleet worker %d: %w", p, err)
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("fleet worker %d: %w", p, err)
		}
		cmds[p] = cmd
		wg.Add(1)
		go func(p int, r io.Reader) {
			defer wg.Done()
			results[p].outs, results[p].err = ReadFleetShards(r)
		}(p, stdout)
	}
	wg.Wait()
	var firstErr error
	for p := 0; p < procs; p++ {
		if err := cmds[p].Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("fleet worker %d: %w", p, err)
		}
		if results[p].err != nil && firstErr == nil {
			firstErr = fmt.Errorf("fleet worker %d: %w", p, results[p].err)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	all := make([]FleetShardResult, 0, total)
	for p := range results {
		all = append(all, results[p].outs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Shard < all[j].Shard })
	return FleetFromShards(cfg, all)
}
