package serve

import (
	"math"
	"net/http/httptest"
	"testing"

	"eabrowse/internal/features"
	"eabrowse/internal/rrc"
)

// Differential fuzzing of the fast JSON layer against its contract: for any
// body, each fast parser either refuses it with errFallback or yields exactly
// the values the encoding/json fallback (decodeBodyBytes) decodes from it.
//
//	go test ./internal/serve -fuzz=FuzzFastPredict -fuzztime=20s

// legacyDecode runs the handlers' fallback decoder and reports whether it
// accepted body.
func legacyDecode(body []byte, v any) bool {
	return decodeBodyBytes(httptest.NewRecorder(), body, v)
}

// sameBits compares float slices bit for bit (so -0 differs from 0).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// addFeatureSeeds seeds f with the shared wire bodies plus one single-number
// features array per numberCorpus entry.
func addFeatureSeeds(f *testing.F, bodies []string) {
	for _, b := range bodies {
		f.Add([]byte(b))
	}
	for _, tc := range wireErrCases {
		f.Add([]byte(tc.body))
	}
	for _, n := range numberCorpus {
		f.Add([]byte(`{"features":[` + n + `]}`))
	}
}

func FuzzFastPredict(f *testing.F) {
	addFeatureSeeds(f, predictVariants)
	names := rrc.Profiles()
	f.Fuzz(func(t *testing.T, body []byte) {
		feats, radio, err := parseFastPredict(body, nil, names)
		if err != nil {
			if err != errFallback {
				t.Fatalf("parseFastPredict(%q): %v, want errFallback", body, err)
			}
			return
		}
		var req predictRequest
		if !legacyDecode(body, &req) {
			t.Fatalf("fast parser accepted %q, encoding/json refuses it", body)
		}
		if !sameBits(feats, req.Features) || radio != req.Radio {
			t.Fatalf("%q: fast (%v, %q), encoding/json (%v, %q)",
				body, feats, radio, req.Features, req.Radio)
		}
	})
}

func FuzzFastDecide(f *testing.F) {
	addFeatureSeeds(f, decideVariants)
	f.Fuzz(func(t *testing.T, body []byte) {
		feats, mode, err := parseFastDecide(body, nil, decideModeNames)
		if err != nil {
			if err != errFallback {
				t.Fatalf("parseFastDecide(%q): %v, want errFallback", body, err)
			}
			return
		}
		var req decideRequest
		if !legacyDecode(body, &req) {
			t.Fatalf("fast parser accepted %q, encoding/json refuses it", body)
		}
		if !sameBits(feats, req.Features) || mode != req.Mode {
			t.Fatalf("%q: fast (%v, %q), encoding/json (%v, %q)",
				body, feats, mode, req.Features, req.Mode)
		}
	})
}

func FuzzFastBatch(f *testing.F) {
	for _, tc := range batchBadCases {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(`{"features":[` + wireFeatsJSON + `,[1,2,3,4,5,6,7,8,9,10]]}`))
	f.Add([]byte(`{"features" : [ ` + wireFeatsJSON + ` , [ 1e3 , -0 ] ] }`))
	f.Add([]byte(`{"features":[[1]],"features":[` + wireFeatsJSON + `]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		sc := new(scratch)
		rows, err := parseFastBatch(body, sc)
		if err != nil {
			if err != errFallback {
				t.Fatalf("parseFastBatch(%q): %v, want errFallback", body, err)
			}
			return
		}
		var req batchRequest
		if !legacyDecode(body, &req) {
			t.Fatalf("fast parser accepted %q, encoding/json refuses it", body)
		}
		if rows != len(req.Features) || (rows > 0 && len(sc.rowLens) != rows) {
			t.Fatalf("%q: fast %d rows (%d arities), encoding/json %d",
				body, rows, len(sc.rowLens), len(req.Features))
		}
		for i, row := range req.Features {
			if sc.rowLens[i] != len(row) {
				t.Fatalf("%q row %d: fast arity %d, encoding/json %d", body, i, sc.rowLens[i], len(row))
			}
			if i >= maxBatchRows {
				continue // syntax-checked, not stored
			}
			n := min(len(row), features.Num)
			if !sameBits(sc.vecs[i][:n], row[:n]) {
				t.Fatalf("%q row %d: fast %v, encoding/json %v", body, i, sc.vecs[i][:n], row[:n])
			}
		}
	})
}
