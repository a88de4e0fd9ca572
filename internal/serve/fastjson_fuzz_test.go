package serve

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"eabrowse/internal/features"
	"eabrowse/internal/policy"
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
	f.Fuzz(func(t *testing.T, body []byte) {
		feats, radio, err := parseFastVector(body, nil, "radio")
		if err != nil {
			if err != errFallback {
				t.Fatalf("parseFastVector(%q, radio): %v, want errFallback", body, err)
			}
			return
		}
		var req predictRequest
		if !legacyDecode(body, &req) {
			t.Fatalf("fast parser accepted %q, encoding/json refuses it", body)
		}
		if !sameBits(feats, req.Features) || string(radio) != req.Radio {
			t.Fatalf("%q: fast (%v, %q), encoding/json (%v, %q)",
				body, feats, radio, req.Features, req.Radio)
		}
	})
}

func FuzzFastDecide(f *testing.F) {
	addFeatureSeeds(f, decideVariants)
	f.Fuzz(func(t *testing.T, body []byte) {
		feats, mode, err := parseFastVector(body, nil, "mode")
		if err != nil {
			if err != errFallback {
				t.Fatalf("parseFastVector(%q, mode): %v, want errFallback", body, err)
			}
			return
		}
		var req decideRequest
		if !legacyDecode(body, &req) {
			t.Fatalf("fast parser accepted %q, encoding/json refuses it", body)
		}
		if !sameBits(feats, req.Features) || string(mode) != req.Mode {
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

// fuzzEndpoints are the prediction endpoints FuzzPredictEndpoints drives.
var fuzzEndpoints = []string{"/v1/predict", "/v1/decide", "/v1/predict_batch"}

// FuzzPredictEndpoints drives the prediction endpoints through the full
// Handler and requires the status, Content-Type and body bytes to equal
// referenceServe's for the same (endpoint, body).
//
//	go test ./internal/serve -run=FuzzPredictEndpoints -fuzz=FuzzPredictEndpoints -fuzztime=20s
func FuzzPredictEndpoints(f *testing.F) {
	for _, b := range predictVariants {
		f.Add(uint8(0), []byte(b))
	}
	for _, b := range decideVariants {
		f.Add(uint8(1), []byte(b))
	}
	for _, tc := range wireErrCases {
		f.Add(uint8(slices.Index(fuzzEndpoints, tc.path)), []byte(tc.body))
	}
	for _, tc := range batchBadCases {
		f.Add(uint8(2), []byte(tc.body))
	}
	s := newFastServer(f)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		if int64(len(body)) > s.cfg.MaxBodyBytes {
			return // readBody's 413 comes before any endpoint logic
		}
		path := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		got := httptest.NewRecorder()
		h.ServeHTTP(got, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		want := referenceServe(s, path, body)
		if got.Code != want.Code ||
			got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
			!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%s %q:\n got %d %q %q\nwant %d %q %q", path, body,
				got.Code, got.Header().Get("Content-Type"), got.Body.Bytes(),
				want.Code, want.Header().Get("Content-Type"), want.Body.Bytes())
		}
	})
}

// referenceServe answers one prediction request on encoding/json alone:
// decodeBodyBytes → parseFeatures → name check → core → json.Encoder, with
// no fast parser or appender anywhere. It is the oracle the handlers match.
func referenceServe(s *Server, path string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	st := &s.stripes[0]
	switch path {
	case "/v1/predict":
		var req predictRequest
		var vec features.Vector
		if !decodeBodyBytes(w, body, &req) || !parseFeatures(w, req.Features, &vec) {
			return w
		}
		radio := req.Radio
		if radio == "" {
			radio = "umts"
		}
		if _, err := rrc.ProfileSpec(radio); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return w
		}
		res, err := s.predictCoreStripe(&vec, st)
		if err != nil {
			s.writeWorkError(w, err)
			return w
		}
		writeJSON(w, http.StatusOK, predictResponse{
			ReadingSeconds: res.seconds, ModelGeneration: res.gen, Radio: radio,
		})
	case "/v1/decide":
		var req decideRequest
		var vec features.Vector
		if !decodeBodyBytes(w, body, &req) || !parseFeatures(w, req.Features, &vec) {
			return w
		}
		var mode policy.Mode
		switch req.Mode {
		case "", "delay", "delay-driven":
			mode = policy.ModeDelay
		case "power", "power-driven":
			mode = policy.ModePower
		default:
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("unknown mode %q (want \"delay\" or \"power\")", req.Mode))
			return w
		}
		res, err := s.decideCoreStripe(&vec, mode, st)
		if err != nil {
			s.writeWorkError(w, err)
			return w
		}
		writeJSON(w, http.StatusOK, decideResponse{
			ReadingSeconds:  res.seconds,
			Switch:          res.d.Switch,
			Reason:          res.d.Reason,
			Mode:            mode.String(),
			TpSeconds:       res.tp.Seconds(),
			TdSeconds:       res.td.Seconds(),
			ModelGeneration: res.gen,
		})
	case "/v1/predict_batch":
		var req batchRequest
		if !decodeBodyBytes(w, body, &req) {
			return w
		}
		switch n := len(req.Features); {
		case n == 0:
			writeError(w, http.StatusBadRequest, "empty batch: need at least one feature vector")
			return w
		case n > maxBatchRows:
			writeError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d vectors exceeds %d", n, maxBatchRows))
			return w
		}
		for i, row := range req.Features {
			if len(row) != features.Num {
				writeError(w, http.StatusBadRequest, fmt.Sprintf(
					"vector %d: need exactly %d features (Table 1 order), got %d", i, features.Num, len(row)))
				return w
			}
		}
		resp := batchResponse{ReadingSeconds: make([]float64, len(req.Features))}
		for i, row := range req.Features {
			var vec features.Vector
			copy(vec[:], row)
			res, err := s.predictCoreStripe(&vec, st)
			if err != nil {
				s.writeWorkError(w, err)
				return w
			}
			resp.ReadingSeconds[i], resp.ModelGeneration = res.seconds, res.gen
		}
		writeJSON(w, http.StatusOK, resp)
	}
	return w
}
