package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eabrowse/internal/features"
	"eabrowse/internal/policy"
)

// overflowVec goes right at the root of every golden tree; the zero vector
// (the load-time probe) goes left at every one, since each root threshold
// is the midpoint of two distinct non-negative feature values.
var overflowVec = features.Vector{1e9, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9}

// overflowModel writes the golden predictor with leaf values set to 1e308,
// so the forest's sum overflows to +Inf: every leaf when all is set,
// otherwise only the leaves under each root's right child — a model that
// passes the load-time probe and overflows on overflowVec.
func overflowModel(t *testing.T, all bool) string {
	t.Helper()
	raw, err := os.ReadFile(goldenModelPath)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	for _, tree := range doc["model"].(map[string]any)["trees"].([]any) {
		nodes := tree.(map[string]any)["nodes"].([]any)
		node := func(i json.Number) map[string]any {
			n, err := i.Int64()
			if err != nil {
				t.Fatal(err)
			}
			return nodes[n].(map[string]any)
		}
		var poison func(n map[string]any)
		poison = func(n map[string]any) {
			if n["leaf"].(bool) {
				n["value"] = json.Number("1e308")
				return
			}
			poison(node(n["left"].(json.Number)))
			poison(node(n["right"].(json.Number)))
		}
		if root := nodes[0].(map[string]any); all || root["leaf"].(bool) {
			poison(root)
		} else {
			poison(node(root["right"].(json.Number)))
		}
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "overflow.json")
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestNonFinitePredictionAnswers500 serves a model that overflows on some
// inputs: those requests answer 500 with a JSON error on every prediction
// endpoint, instead of a 200 with an empty body, while inputs the model
// answers finitely keep answering 200.
func TestNonFinitePredictionAnswers500(t *testing.T) {
	s := loadedServer(t, overflowModel(t, false))
	s.accepting.Store(true)
	h := s.Handler()
	vec := func(v features.Vector) string {
		b, err := json.Marshal(v[:])
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	good, bad := vec(features.Vector{}), vec(overflowVec)
	for _, tc := range []struct {
		path, ok, fail string
	}{
		{"/v1/predict", `{"features":` + good + `}`, `{"features":` + bad + `}`},
		{"/v1/decide", `{"features":` + good + `,"mode":"power"}`, `{"features":` + bad + `,"mode":"power"}`},
		{"/v1/predict_batch", `{"features":[` + good + `]}`, `{"features":[` + good + `,` + bad + `]}`},
	} {
		serve := func(body string) *httptest.ResponseRecorder {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(body)))
			return w
		}
		if w := serve(tc.ok); w.Code != http.StatusOK || w.Body.Len() == 0 {
			t.Fatalf("%s finite: %d %q", tc.path, w.Code, w.Body.Bytes())
		}
		w := serve(tc.fail)
		var e errorResponse
		if w.Code != http.StatusInternalServerError || w.Header().Get("Content-Type") != "application/json" ||
			json.Unmarshal(w.Body.Bytes(), &e) != nil || !strings.Contains(e.Error, "non-finite") {
			t.Fatalf("%s overflowing: %d %q %q, want 500 with a JSON error",
				tc.path, w.Code, w.Header().Get("Content-Type"), w.Body.Bytes())
		}
	}
}

// TestCoresRefuseNonFinite checks the refusal at its source: both cores
// return errNonFinite, and count nothing, for an overflowing prediction.
func TestCoresRefuseNonFinite(t *testing.T) {
	s := loadedServer(t, overflowModel(t, false))
	st := &s.stripes[0]
	v := overflowVec
	if _, err := s.predictCoreStripe(&v, st); !errors.Is(err, errNonFinite) {
		t.Fatalf("predictCoreStripe: %v, want errNonFinite", err)
	}
	if _, err := s.decideCoreStripe(&v, policy.ModeDelay, st); !errors.Is(err, errNonFinite) {
		t.Fatalf("decideCoreStripe: %v, want errNonFinite", err)
	}
	if n := st.counters[cPredict].Load() + st.counters[cDecide].Load(); n != 0 {
		t.Fatalf("refused predictions were counted: %d", n)
	}
}

// TestReloadRejectsInfiniteProbe swaps the model file for one that predicts
// +Inf on the probe vector: the reload fails and the old generation keeps
// serving.
func TestReloadRejectsInfiniteProbe(t *testing.T) {
	golden, err := os.ReadFile(goldenModelPath)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	s := loadedServer(t, path)
	v := probeVec
	before, err := s.predictCoreStripe(&v, &s.stripes[0])
	if err != nil {
		t.Fatal(err)
	}
	poisoned, err := os.ReadFile(overflowModel(t, true))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, poisoned, 0o644); err != nil {
		t.Fatal(err)
	}
	if gen, err := s.Reload(); err == nil || gen != before.gen {
		t.Fatalf("reload to an infinite model: generation %d, err %v; want the old generation and an error", gen, err)
	}
	after, err := s.predictCoreStripe(&v, &s.stripes[0])
	if err != nil || after != before {
		t.Fatalf("after the failed reload: %+v, %v; want %+v", after, err, before)
	}
}
