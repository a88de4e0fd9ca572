package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"testing"
	"time"
)

// --- JSON bit-identity ------------------------------------------------------

// jsonEncode runs v through the exact encoder writeJSON uses (json.Encoder,
// trailing newline, HTML escaping on).
func jsonEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("encode %v: %v", v, err)
	}
	return buf.Bytes()
}

// floatCorpus covers the encoding edge cases: the 'f'/'e' format boundary at
// 1e-6 and 1e21, the e-0X exponent cleanup, negative zero, subnormals, and
// extreme magnitudes.
var floatCorpus = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, -0.1, 3.5, 36.82798051958943,
	1e-6, 9.999999e-7, 1e-7, 1e-5, -1e-7, 2.5e-8, 1e-21,
	1e21, 9.99999999e20, 1.00000001e21, -1e21, 2.3e42, 7e100,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64, 4.9e-324, 2.2250738585072014e-308,
	1.7976931348623157e308, 1e-300, 1e300, 123456789.123456789,
	0.30000000000000004, 1. / 3., math.Pi, math.E, 1e15, 1e16, 1e17,
	-2.5, 1024, 65535.5, 1e-1, 5e-324,
}

func TestAppendJSONFloatBitIdentity(t *testing.T) {
	check := func(f float64) {
		t.Helper()
		got := appendJSONFloat(nil, f)
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("json.Marshal(%v): %v", f, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("appendJSONFloat(%v) = %q, encoding/json = %q", f, got, want)
		}
	}
	for _, f := range floatCorpus {
		check(f)
	}
	// Random sweep: uniform bit patterns (skipping non-finite) plus
	// mantissa×10^exp values across the whole exponent range.
	rng := rand.New(rand.NewSource(20130709))
	for i := 0; i < 20000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		check(f)
	}
	for i := 0; i < 20000; i++ {
		f := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
		check(f)
	}
}

func TestAppendJSONStringBitIdentity(t *testing.T) {
	corpus := []string{
		"", "umts", "beyond-Td", "delay-driven", "plain ascii",
		`quote " and \ backslash`, "newline\nand\ttab\rand more",
		"html <b>&amp;</b>", "ctrl \x01\x1f bytes", "héllo wörld",
		"日本語テキスト", "emoji 🙂 ok", "invalid \xff utf8", "trunc \xe2\x82",
		"line sep \u2028 and para \u2029 end", "\u2028", "mixed <\n\xffé\u2029>",
	}
	for _, s := range corpus {
		got := appendJSONString(nil, s)
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("json.Marshal(%q): %v", s, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %q, encoding/json = %q", s, got, want)
		}
	}
}

func TestFastResponseBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randFloat := func() float64 {
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(40)-20))
	}
	for i := 0; i < 2000; i++ {
		sec := randFloat()
		gen := rng.Uint64()
		pr := predictResponse{ReadingSeconds: sec, ModelGeneration: gen, Radio: "umts"}
		got := appendPredictResponse(nil, sec, gen, "umts")
		if want := jsonEncode(t, pr); !bytes.Equal(got, want) {
			t.Fatalf("predict response:\n fast %q\n json %q", got, want)
		}

		dr := decideResponse{
			ReadingSeconds:  sec,
			Switch:          rng.Intn(2) == 1,
			Reason:          []string{"beyond-Td", "beyond-Tp", "keep"}[rng.Intn(3)],
			Mode:            []string{"delay", "power"}[rng.Intn(2)],
			TpSeconds:       randFloat(),
			TdSeconds:       randFloat(),
			ModelGeneration: gen,
		}
		got = appendDecideResponse(nil, &dr)
		if want := jsonEncode(t, dr); !bytes.Equal(got, want) {
			t.Fatalf("decide response:\n fast %q\n json %q", got, want)
		}

		preds := make([]float64, rng.Intn(5)+1)
		for j := range preds {
			preds[j] = randFloat()
		}
		got = appendBatchResponse(nil, preds, gen)
		want := jsonEncode(t, batchResponse{ReadingSeconds: preds, ModelGeneration: gen})
		if !bytes.Equal(got, want) {
			t.Fatalf("batch response:\n fast %q\n json %q", got, want)
		}
	}
}

// numberCorpus covers the number parser's Clinger fast path, its strconv
// spill and the out-of-range refusals.
var numberCorpus = []string{
	"0", "-0", "1", "12", "340", "0.8", "2800", "-2.5", "1e3", "1E3",
	"1e+3", "1e-3", "0.1", "123.456", "1e22", "1e23", "-1e-22", "1e-23",
	"9007199254740992", "9007199254740993", "18446744073709551615",
	"184467440737095516159", "0.30000000000000004", "1e-308", "1e-320",
	"2.2250738585072014e-308", "1.7976931348623157e308",
	"123456789012345678901234567890.5", "3.141592653589793",
	"5e-324", "4.9e-324", "1e-325",
}

// TestFastNumberParseBitIdentity checks the fast number parser agrees with
// strconv.ParseFloat (which is what encoding/json uses) on every number it
// accepts, across both the Clinger fast path and the strconv spill.
func TestFastNumberParseBitIdentity(t *testing.T) {
	corpus := append([]string(nil), numberCorpus...)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		corpus = append(corpus, strconv.FormatFloat(f, 'g', -1, 64))
	}
	for _, s := range corpus {
		p := fastParser{b: []byte(s)}
		got, ok := p.number()
		want, err := strconv.ParseFloat(s, 64)
		if err != nil {
			// Out of range: the fast parser must refuse too (fallback).
			if ok {
				t.Fatalf("number(%q) accepted what strconv refused", s)
			}
			continue
		}
		if !ok {
			t.Fatalf("number(%q) refused a valid number", s)
		}
		if p.i != len(s) {
			t.Fatalf("number(%q) stopped at %d", s, p.i)
		}
		if got != want || math.Signbit(got) != math.Signbit(want) {
			t.Fatalf("number(%q) = %v, strconv = %v", s, got, want)
		}
	}
	// Invalid JSON numbers the fast parser must reject.
	for _, s := range []string{"01", "+1", ".5", "1.", "1e", "1e+", "-", "abc", "1e999", "NaN", "Infinity"} {
		p := fastParser{b: []byte(s)}
		if f, ok := p.number(); ok && p.i == len(s) {
			t.Fatalf("number(%q) = %v, want reject", s, f)
		}
	}
}

// --- wire-level fast/fallback parity ---------------------------------------

// wireFeatsJSON is the feature vector the wire corpora below share.
const wireFeatsJSON = `[12,340,25,4,9,120,0.8,3,2800,320]`

// predictVariants spells one /v1/predict request canonically (the first
// entry, fast path) and non-canonically (fallback: spread whitespace,
// reordered keys, escaped radio, odd key case, duplicate key).
var predictVariants = []string{
	`{"features":` + wireFeatsJSON + `}`,
	`{"features":` + wireFeatsJSON + `,"radio":"umts"}`,
	` { "features" : ` + wireFeatsJSON + ` , "radio" : "umts" } `,
	`{"radio":"umts","features":` + wireFeatsJSON + `}`,
	`{"features":` + wireFeatsJSON + `,"radio":"\u0075mts"}`,
	`{"Features":` + wireFeatsJSON + `,"Radio":"umts"}`,
	`{"features":[1],"features":` + wireFeatsJSON + `}`, // duplicate key: last wins
}

// decideVariants spells one /v1/decide request canonically and reordered.
var decideVariants = []string{
	`{"features":` + wireFeatsJSON + `,"mode":"power"}`,
	`{"mode":"power","features": ` + wireFeatsJSON + `}`,
}

// wireErrCases are bodies that ride the fallback to a legacy 400.
var wireErrCases = []struct {
	path, body string
	status     int
	substr     string
}{
	{"/v1/predict", `{"features":[1,2,3]}`, http.StatusBadRequest, "need exactly"},
	{"/v1/predict", `{"bogus":1}`, http.StatusBadRequest, "unknown field"},
	{"/v1/predict", `{"features":` + wireFeatsJSON + `}{"again":true}`, http.StatusBadRequest, "trailing data"},
	{"/v1/predict", `{"features":[1e999]}`, http.StatusBadRequest, "cannot unmarshal number"},
	{"/v1/predict", `not json`, http.StatusBadRequest, "bad request body"},
	{"/v1/predict", `{"features":` + wireFeatsJSON + `,"radio":"5g"}`, http.StatusBadRequest, "unknown radio profile"},
	{"/v1/decide", `{"features":` + wireFeatsJSON + `,"mode":"warp"}`, http.StatusBadRequest, "unknown mode"},
}

// TestFastPathWireParity drives a running server with canonical and
// non-canonical bodies and checks the response bytes equal what the
// encoding/json pipeline produces for the same answer — i.e. the fast path
// is invisible on the wire.
func TestFastPathWireParity(t *testing.T) {
	_, base := startServer(t, Config{ModelPath: goldenModelPath})

	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("POST %s: Content-Type %q", path, ct)
		}
		return resp.StatusCode, data
	}

	canonical := predictVariants[0]
	code0, want := post("/v1/predict", canonical)
	if code0 != http.StatusOK {
		t.Fatalf("canonical predict: %d (%s)", code0, want)
	}
	var pr predictResponse
	if err := json.Unmarshal(want, &pr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, jsonEncode(t, pr)) {
		t.Fatalf("fast predict body %q is not encoding/json-identical", want)
	}
	for _, body := range predictVariants[1:] {
		code, got := post("/v1/predict", body)
		if code != http.StatusOK {
			t.Fatalf("predict %q: status %d (%s)", body, code, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("predict %q:\n got %q\nwant %q", body, got, want)
		}
	}

	// Decide: fast and fallback spellings agree byte for byte.
	code0, dwant := post("/v1/decide", decideVariants[0])
	if code0 != http.StatusOK {
		t.Fatalf("canonical decide: %d (%s)", code0, dwant)
	}
	var dr decideResponse
	if err := json.Unmarshal(dwant, &dr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dwant, jsonEncode(t, dr)) {
		t.Fatalf("fast decide body %q is not encoding/json-identical", dwant)
	}
	if code, got := post("/v1/decide", decideVariants[1]); code != http.StatusOK || !bytes.Equal(got, dwant) {
		t.Fatalf("decide fallback spelling: %d %q want %q", code, got, dwant)
	}

	// Error bodies ride the fallback and keep the legacy statuses/messages.
	for _, tc := range wireErrCases {
		code, got := post(tc.path, tc.body)
		if code != tc.status {
			t.Fatalf("%s %q: status %d want %d (%s)", tc.path, tc.body, code, tc.status, got)
		}
		if !bytes.Contains(got, []byte(tc.substr)) {
			t.Fatalf("%s %q: body %q missing %q", tc.path, tc.body, got, tc.substr)
		}
	}
}

// --- /v1/predict_batch ------------------------------------------------------

type batchBadCase struct {
	name, body string
	substr     string
}

// batchBadCases are /v1/predict_batch bodies that must 400.
var batchBadCases = []batchBadCase{
	{"empty object", `{}`, "empty batch"},
	{"empty rows", `{"features":[]}`, "empty batch"},
	{"short row", `{"features":[[1,2,3]]}`, "vector 0: need exactly"},
	{"second row short", `{"features":[[1,2,3,4,5,6,7,8,9,10],[1]]}`, "vector 1: need exactly"},
	{"unknown field", `{"rows":[[1]]}`, "unknown field"},
	{"not json", `nope`, "bad request body"},
}

func TestPredictBatch(t *testing.T) {
	_, base := startServer(t, Config{ModelPath: goldenModelPath})

	// Batch answers must match per-row /v1/predict answers exactly.
	rows := [][]float64{
		probeVec[:],
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		{40, 1200, 80, 9, 2, 300, 0.1, 1, 5000, 100},
	}
	var want []float64
	for _, row := range rows {
		var pr predictResponse
		if code := postJSON(t, base+"/v1/predict", predictRequest{Features: row}, &pr); code != http.StatusOK {
			t.Fatalf("predict row: %d", code)
		}
		want = append(want, pr.ReadingSeconds)
	}
	var br batchResponse
	if code := postJSON(t, base+"/v1/predict_batch", batchRequest{Features: rows}, &br); code != http.StatusOK {
		t.Fatalf("predict_batch: %d", code)
	}
	if len(br.ReadingSeconds) != len(want) {
		t.Fatalf("batch returned %d rows, want %d", len(br.ReadingSeconds), len(want))
	}
	for i, w := range want {
		if br.ReadingSeconds[i] != w {
			t.Fatalf("batch row %d: %v, single predict %v", i, br.ReadingSeconds[i], w)
		}
	}
	if br.ModelGeneration != 1 {
		t.Fatalf("batch generation %d", br.ModelGeneration)
	}

	// The fallback (encoding/json) spelling answers the same bytes.
	raw, _ := json.Marshal(batchRequest{Features: rows})
	resp, err := http.Post(base+"/v1/predict_batch", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	fastBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	spread := bytes.ReplaceAll(raw, []byte(","), []byte(" , "))
	resp, err = http.Post(base+"/v1/predict_batch", "application/json", bytes.NewReader(spread))
	if err != nil {
		t.Fatal(err)
	}
	slowBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(fastBody, slowBody) {
		t.Fatalf("batch fast/fallback bytes differ:\n%q\n%q", fastBody, slowBody)
	}

	// Validation contract.
	var huge bytes.Buffer
	huge.WriteString(`{"features":[`)
	for i := 0; i <= maxBatchRows; i++ {
		if i > 0 {
			huge.WriteByte(',')
		}
		huge.WriteString(`[0,0,0,0,0,0,0,0,0,0]`)
	}
	huge.WriteString(`]}`)
	bad := append(batchBadCases, batchBadCase{
		"too many rows", huge.String(), fmt.Sprintf("exceeds %d", maxBatchRows),
	})
	for _, tc := range bad {
		resp, err := http.Post(base+"/v1/predict_batch", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s)", tc.name, resp.StatusCode, data)
		}
		if !bytes.Contains(data, []byte(tc.substr)) {
			t.Fatalf("%s: body %q missing %q", tc.name, data, tc.substr)
		}
	}

	// Metrics count batches and items separately.
	var m Metrics
	if code := postJSON(t, base+"/metrics", nil, nil); code == 0 {
		t.Fatal("unreachable")
	}
	resp2, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if m.Obs.Counters[counterBatch] < 3 {
		t.Fatalf("batch counter: %+v", m.Obs.Counters)
	}
	if m.Obs.Counters[counterBatchItems] < int64(3*len(rows)) {
		t.Fatalf("batch items counter: %+v", m.Obs.Counters)
	}
	if m.Obs.Histograms[latencyBatch].Count < 3 {
		t.Fatalf("batch histogram: %+v", m.Obs.Histograms)
	}
}

// --- zero-allocation gates --------------------------------------------------

// benchWriter is a reusable ResponseWriter that only counts bytes; the header
// map is allocated once and reused across requests like a live connection's.
type benchWriter struct {
	h      http.Header
	status int
	n      int
}

func newBenchWriter() *benchWriter { return &benchWriter{h: make(http.Header, 4)} }

func (w *benchWriter) Header() http.Header         { return w.h }
func (w *benchWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }
func (w *benchWriter) WriteHeader(c int)           { w.status = c }
func (w *benchWriter) reset()                      { w.status = 0; w.n = 0 }

// benchBody is a rewindable request body.
type benchBody struct {
	data []byte
	off  int
}

func (b *benchBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func (b *benchBody) Close() error { return nil }
func (b *benchBody) rewind()      { b.off = 0 }

// newFastServer builds an unstarted server with a loaded model — handlers
// work without a listener.
func newFastServer(t testing.TB) *Server {
	t.Helper()
	s, err := New(Config{ModelPath: goldenModelPath})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.model.load(goldenModelPath); err != nil {
		t.Fatal(err)
	}
	s.accepting.Store(true)
	return s
}

// handlerAllocs measures steady-state allocations per request for one
// endpoint served through the full Handler (router, middleware, body read,
// parse, predict, encode, write).
func handlerAllocs(t *testing.T, s *Server, path, body string) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool; alloc gates hold only in normal builds")
	}
	h := s.Handler()
	w := newBenchWriter()
	rb := &benchBody{data: []byte(body)}
	req := &http.Request{
		Method: http.MethodPost,
		URL:    &url.URL{Path: path},
		Body:   rb,
	}
	run := func() {
		rb.rewind()
		w.reset()
		h.ServeHTTP(w, req)
		if w.status != 0 && w.status != http.StatusOK {
			t.Fatalf("%s: status %d", path, w.status)
		}
	}
	// Warm the scratch/connection state like a live keep-alive connection.
	for i := 0; i < 100; i++ {
		run()
	}
	return testing.AllocsPerRun(500, run)
}

func TestServePredictZeroAllocs(t *testing.T) {
	s := newFastServer(t)
	body := `{"features":[12,340,25,4,9,120,0.8,3,2800,320]}`
	if got := handlerAllocs(t, s, "/v1/predict", body); got != 0 {
		t.Fatalf("/v1/predict allocates %v per request, want 0", got)
	}
}

func TestServeDecideZeroAllocs(t *testing.T) {
	s := newFastServer(t)
	body := `{"features":[12,340,25,4,9,120,0.8,3,2800,320],"mode":"power"}`
	if got := handlerAllocs(t, s, "/v1/decide", body); got != 0 {
		t.Fatalf("/v1/decide allocates %v per request, want 0", got)
	}
}

func TestServePredictBatchSteadyAllocs(t *testing.T) {
	s := newFastServer(t)
	var b bytes.Buffer
	b.WriteString(`{"features":[`)
	for i := 0; i < 64; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `[12,%d,25,4,9,120,0.8,3,2800,320]`, 340+i)
	}
	b.WriteString(`]}`)
	if got := handlerAllocs(t, s, "/v1/predict_batch", b.String()); got != 0 {
		t.Fatalf("/v1/predict_batch allocates %v per request, want 0", got)
	}
}

// BenchmarkServePredict measures the full end-to-end request path without a
// socket: router, middleware, body read, fast parse, forest walk, fast
// encode, write. The allocs/op report is the headline 0.
func BenchmarkServePredict(b *testing.B) {
	s := newFastServer(b)
	h := s.Handler()
	w := newBenchWriter()
	rb := &benchBody{data: []byte(`{"features":[12,340,25,4,9,120,0.8,3,2800,320]}`)}
	req := &http.Request{Method: http.MethodPost, URL: &url.URL{Path: "/v1/predict"}, Body: rb}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.rewind()
		w.reset()
		h.ServeHTTP(w, req)
	}
	if w.status != 0 && w.status != http.StatusOK {
		b.Fatalf("status %d", w.status)
	}
}

func BenchmarkServeDecide(b *testing.B) {
	s := newFastServer(b)
	h := s.Handler()
	w := newBenchWriter()
	rb := &benchBody{data: []byte(`{"features":[12,340,25,4,9,120,0.8,3,2800,320],"mode":"power"}`)}
	req := &http.Request{Method: http.MethodPost, URL: &url.URL{Path: "/v1/decide"}, Body: rb}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.rewind()
		w.reset()
		h.ServeHTTP(w, req)
	}
}

func BenchmarkServePredictBatch64(b *testing.B) {
	s := newFastServer(b)
	var body bytes.Buffer
	body.WriteString(`{"features":[`)
	for i := 0; i < 64; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `[12,%d,25,4,9,120,0.8,3,2800,320]`, 340+i)
	}
	body.WriteString(`]}`)
	h := s.Handler()
	w := newBenchWriter()
	rb := &benchBody{data: body.Bytes()}
	req := &http.Request{Method: http.MethodPost, URL: &url.URL{Path: "/v1/predict_batch"}, Body: rb}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.rewind()
		w.reset()
		h.ServeHTTP(w, req)
	}
}

// --- concurrency ------------------------------------------------------------

// TestStripedStateHammer pounds the fast lane from many goroutines while
// reloads swap the model and /metrics folds the stripes — run under -race
// this proves the striped counters, COW maps and atomic model snapshot are
// data-race free.
func TestStripedStateHammer(t *testing.T) {
	s := newFastServer(t)
	h := s.Handler()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	bodies := []struct{ path, body string }{
		{"/v1/predict", `{"features":[12,340,25,4,9,120,0.8,3,2800,320]}`},
		{"/v1/decide", `{"features":[12,340,25,4,9,120,0.8,3,2800,320],"mode":"power"}`},
		{"/v1/predict_batch", `{"features":[[12,340,25,4,9,120,0.8,3,2800,320],[1,2,3,4,5,6,7,8,9,10]]}`},
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := newBenchWriter()
			rb := &benchBody{}
			tc := bodies[g%len(bodies)]
			rb.data = []byte(tc.body)
			req := &http.Request{Method: http.MethodPost, URL: &url.URL{Path: tc.path}, Body: rb}
			for {
				select {
				case <-stop:
					return
				default:
				}
				rb.rewind()
				w.reset()
				h.ServeHTTP(w, req)
				if w.status != 0 && w.status != http.StatusOK {
					t.Errorf("%s: status %d", tc.path, w.status)
					return
				}
			}
		}(g)
	}
	// Concurrent reloads and metrics snapshots.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Reload(); err != nil {
				t.Errorf("reload: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := s.MetricsSnapshot()
			if m.Obs.Counters[counterPredict] < 0 {
				t.Error("negative counter")
				return
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Every request landed in some stripe: totals are consistent.
	m := s.MetricsSnapshot()
	total := m.Obs.Counters[counterPredict] + m.Obs.Counters[counterDecide] + m.Obs.Counters[counterBatch]
	if total == 0 {
		t.Fatal("hammer recorded no requests")
	}
}

// TestPredictDuringSlowReload holds a reload at the publish seam and checks
// the read path keeps answering from the old snapshot instead of blocking
// behind the reload — the contract that lets operators reload a saturated
// server.
func TestPredictDuringSlowReload(t *testing.T) {
	s := newFastServer(t)
	gen0 := s.model.generation()

	entered := make(chan struct{})
	release := make(chan struct{})
	modelReadHook = func() {
		close(entered)
		<-release
	}
	defer func() { modelReadHook = nil }()

	done := make(chan error, 1)
	go func() {
		_, err := s.Reload()
		done <- err
	}()
	<-entered

	// The reload is wedged mid-flight; predictions must not block.
	vec := probeVec
	for i := 0; i < 100; i++ {
		start := time.Now()
		res, err := s.predictCoreStripe(&vec, &s.stripes[0])
		if err != nil {
			t.Fatalf("predict during reload: %v", err)
		}
		if res.gen != gen0 {
			t.Fatalf("predict during reload saw generation %d, want %d", res.gen, gen0)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("predict blocked %v behind a wedged reload", d)
		}
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("reload: %v", err)
	}
	if g := s.model.generation(); g != gen0+1 {
		t.Fatalf("generation after reload %d, want %d", g, gen0+1)
	}
}

// TestScratchStripeAssignment checks the pool deals stripes round-robin so
// counts spread instead of all landing on stripe 0.
func TestScratchStripeAssignment(t *testing.T) {
	s := newFastServer(t)
	if len(s.stripes)&(len(s.stripes)-1) != 0 {
		t.Fatalf("stripe count %d is not a power of two", len(s.stripes))
	}
	seen := make(map[*stripe]bool)
	var scs []*scratch
	for i := 0; i < 4*len(s.stripes); i++ {
		sc := s.getScratch()
		scs = append(scs, sc)
		seen[sc.st] = true
	}
	for _, sc := range scs {
		s.putScratch(sc)
	}
	if len(seen) != len(s.stripes) {
		t.Fatalf("scratches covered %d/%d stripes", len(seen), len(s.stripes))
	}
}
