package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"eabrowse/internal/features"
	"eabrowse/internal/policy"
)

// The fast lane: /v1/predict, /v1/decide and /v1/predict_batch run inline
// on the connection goroutine — the compute is a sub-microsecond forest
// walk, so a queue hop would cost more than the work — through pooled
// scratch buffers and the hand-rolled JSON layer. The steady-state path
// allocates nothing (TestServePredictZeroAllocs pins 0 allocs/op end to end).
// /v1/simulate keeps the bounded worker queue: simulations run for
// milliseconds, which is what backpressure and deadlines are for.

// jsonCTValue is the shared Content-Type value; assigning the slice
// directly avoids Header().Set's per-call []string allocation.
var jsonCTValue = []string{"application/json"}

// decideModeNames are the wire names the fast parser resolves "mode"
// against; anything else falls back (and 400s like it always has).
var decideModeNames = []string{"delay", "delay-driven", "power", "power-driven"}

// maxBatchRows caps one predict_batch request.
const maxBatchRows = 8192

// fastGate is the fast lane's admission check: bounded work is guaranteed
// by construction here — the body is size-capped, the compute is one pass
// over the compiled forest per row — so admission is just "are we
// accepting", one atomic load, plus in-flight accounting for /metrics.
func (s *Server) fastGate(w http.ResponseWriter) bool {
	if !s.accepting.Load() {
		s.rejects.Add(1)
		s.writeWorkError(w, errShuttingDown)
		return false
	}
	return true
}

// readBody reads the whole request body into sc.in, enforcing the method
// and size contracts (405, 413) for every endpoint that takes a body.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, sc *scratch) ([]byte, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return nil, false
	}
	buf := sc.in[:0]
	maxBytes := s.cfg.MaxBodyBytes
	for {
		if int64(len(buf)) > maxBytes {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes", maxBytes))
			return nil, false
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return nil, false
		}
	}
	sc.in = buf
	if int64(len(buf)) > maxBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("body exceeds %d bytes", maxBytes))
		return nil, false
	}
	return buf, true
}

// decodeBodyBytes is the encoding/json decoder over a buffered body:
// /v1/simulate's only decoder and the fast lane's fallback. Unknown fields
// and trailing data are 400s; readBody already enforced the size cap.
func decodeBodyBytes(w http.ResponseWriter, body []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, "trailing data after JSON body")
		return false
	}
	return true
}

// writeFast sends a prebuilt JSON body on the 200 path without allocating:
// the Content-Type header value is shared, and bodies that fit net/http's
// 2 KiB write buffer get their Content-Length computed by net/http for
// free. Only oversized (large-batch) responses pay for an explicit header,
// which keeps them framed with Content-Length instead of chunked encoding.
func writeFast(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonCTValue
	if len(body) > 2048 {
		h.Set("Content-Length", strconv.Itoa(len(body)))
	}
	_, _ = w.Write(body)
}

// --- /v1/predict ------------------------------------------------------------

func (s *Server) handlePredictFast(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if !s.fastGate(w) {
		return
	}
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	sc := s.getScratch()
	defer s.putScratch(sc)
	body, ok := s.readBody(w, r, sc)
	if !ok {
		return
	}
	feats, radio, err := parseFastPredict(body, sc.feats, s.radioNames)
	sc.feats = feats[:0]
	if err != nil {
		s.legacyPredict(w, body, start, sc.st)
		return
	}
	if radio == "" {
		radio = "umts"
	}
	var vec features.Vector
	if !parseFeatures(w, feats, &vec) {
		return
	}
	res, cerr := s.predictCoreStripe(&vec, sc.st)
	if cerr != nil {
		s.writeWorkError(w, cerr)
		return
	}
	sc.st.observe(hPredict, start)
	out, eok := appendPredictResponse(sc.out[:0], res.seconds, res.gen, radio)
	sc.out = out[:0]
	if !eok {
		writeJSON(w, http.StatusOK, predictResponse{
			ReadingSeconds: res.seconds, ModelGeneration: res.gen, Radio: radio,
		})
		return
	}
	writeFast(w, out)
}

// legacyPredict replays the pre-fast-path handler over the buffered body,
// reproducing its statuses, messages and bytes exactly.
func (s *Server) legacyPredict(w http.ResponseWriter, body []byte, start time.Time, st *stripe) {
	var req predictRequest
	if !decodeBodyBytes(w, body, &req) {
		return
	}
	var vec features.Vector
	if !parseFeatures(w, req.Features, &vec) {
		return
	}
	radio, ok := parseRadio(w, req.Radio)
	if !ok {
		return
	}
	res, err := s.predictCoreStripe(&vec, st)
	if err != nil {
		s.writeWorkError(w, err)
		return
	}
	st.observe(hPredict, start)
	writeJSON(w, http.StatusOK, predictResponse{
		ReadingSeconds:  res.seconds,
		ModelGeneration: res.gen,
		Radio:           radio,
	})
}

// --- /v1/decide -------------------------------------------------------------

func (s *Server) handleDecideFast(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if !s.fastGate(w) {
		return
	}
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	sc := s.getScratch()
	defer s.putScratch(sc)
	body, ok := s.readBody(w, r, sc)
	if !ok {
		return
	}
	feats, modeName, err := parseFastDecide(body, sc.feats, decideModeNames)
	sc.feats = feats[:0]
	if err != nil {
		s.legacyDecide(w, body, start, sc.st)
		return
	}
	mode := policy.ModeDelay
	if modeName == "power" || modeName == "power-driven" {
		mode = policy.ModePower
	}
	var vec features.Vector
	if !parseFeatures(w, feats, &vec) {
		return
	}
	res, cerr := s.decideCoreStripe(&vec, mode, sc.st)
	if cerr != nil {
		s.writeWorkError(w, cerr)
		return
	}
	sc.st.observe(hDecide, start)
	resp := decideResponse{
		ReadingSeconds:  res.seconds,
		Switch:          res.d.Switch,
		Reason:          res.d.Reason,
		Mode:            mode.String(),
		TpSeconds:       res.tp.Seconds(),
		TdSeconds:       res.td.Seconds(),
		ModelGeneration: res.gen,
	}
	out, eok := appendDecideResponse(sc.out[:0], &resp)
	sc.out = out[:0]
	if !eok {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	writeFast(w, out)
}

func (s *Server) legacyDecide(w http.ResponseWriter, body []byte, start time.Time, st *stripe) {
	var req decideRequest
	if !decodeBodyBytes(w, body, &req) {
		return
	}
	var vec features.Vector
	if !parseFeatures(w, req.Features, &vec) {
		return
	}
	mode, ok := parsePolicyMode(w, req.Mode)
	if !ok {
		return
	}
	res, err := s.decideCoreStripe(&vec, mode, st)
	if err != nil {
		s.writeWorkError(w, err)
		return
	}
	st.observe(hDecide, start)
	writeJSON(w, http.StatusOK, decideResponse{
		ReadingSeconds:  res.seconds,
		Switch:          res.d.Switch,
		Reason:          res.d.Reason,
		Mode:            mode.String(),
		TpSeconds:       res.tp.Seconds(),
		TdSeconds:       res.td.Seconds(),
		ModelGeneration: res.gen,
	})
}

// --- /v1/predict_batch ------------------------------------------------------

type batchRequest struct {
	// Features holds one Table 1 vector per row.
	Features [][]float64 `json:"features"`
}

type batchResponse struct {
	ReadingSeconds  []float64 `json:"reading_seconds"`
	ModelGeneration uint64    `json:"model_generation"`
}

// batchRowError formats per-row validation failures identically for the
// fast and fallback paths.
func batchRowError(w http.ResponseWriter, i, arity int) {
	writeError(w, http.StatusBadRequest,
		fmt.Sprintf("vector %d: need exactly %d features (Table 1 order), got %d", i, features.Num, arity))
}

// checkBatchShape validates the row count and arities shared by both paths.
func checkBatchShape(w http.ResponseWriter, rows int, arity func(int) int) bool {
	if rows == 0 {
		writeError(w, http.StatusBadRequest, "empty batch: need at least one feature vector")
		return false
	}
	if rows > maxBatchRows {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d vectors exceeds %d", rows, maxBatchRows))
		return false
	}
	for i := 0; i < rows; i++ {
		if n := arity(i); n != features.Num {
			batchRowError(w, i, n)
			return false
		}
	}
	return true
}

func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if !s.fastGate(w) {
		return
	}
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	sc := s.getScratch()
	defer s.putScratch(sc)
	body, ok := s.readBody(w, r, sc)
	if !ok {
		return
	}
	rows, err := parseFastBatch(body, sc)
	if err != nil {
		s.legacyPredictBatch(w, body, start, sc)
		return
	}
	if !checkBatchShape(w, rows, func(i int) int { return sc.rowLens[i] }) {
		return
	}
	s.finishBatch(w, start, sc, rows)
}

func (s *Server) legacyPredictBatch(w http.ResponseWriter, body []byte, start time.Time, sc *scratch) {
	var req batchRequest
	if !decodeBodyBytes(w, body, &req) {
		return
	}
	rows := len(req.Features)
	if !checkBatchShape(w, rows, func(i int) int { return len(req.Features[i]) }) {
		return
	}
	for len(sc.vecs) < rows {
		sc.vecs = append(sc.vecs, features.Vector{})
	}
	for i, row := range req.Features {
		copy(sc.vecs[i][:], row)
	}
	s.finishBatch(w, start, sc, rows)
}

// finishBatch runs the validated rows through the zero-alloc batch
// predictor and renders the response. Rows may carry non-finite values
// only via the fallback path (JSON cannot express them on the fast path),
// and the forest tolerates any finite input, so no per-value check runs
// here — parseFeatures' finiteness rule is about single-vector parity.
func (s *Server) finishBatch(w http.ResponseWriter, start time.Time, sc *scratch, rows int) {
	lm := s.model.current()
	if lm == nil {
		s.writeWorkError(w, errNoModel)
		return
	}
	for cap(sc.preds) < rows {
		sc.preds = append(sc.preds[:cap(sc.preds)], 0)
	}
	sc.preds = sc.preds[:rows]
	var err error
	sc.xs, err = lm.pred.PredictBatchVecSeconds(sc.vecs[:rows], sc.preds, sc.xs)
	if err != nil {
		s.writeWorkError(w, err)
		return
	}
	sc.st.count(cBatch)
	sc.st.add(cBatchItems, int64(rows))
	sc.st.observe(hBatch, start)
	out, eok := appendBatchResponse(sc.out[:0], sc.preds, lm.gen)
	sc.out = out[:0]
	if !eok {
		writeJSON(w, http.StatusOK, batchResponse{ReadingSeconds: sc.preds, ModelGeneration: lm.gen})
		return
	}
	writeFast(w, out)
}
