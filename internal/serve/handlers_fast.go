package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"eabrowse/internal/features"
)

// The fast lane: /v1/predict, /v1/decide and /v1/predict_batch run inline
// on the connection goroutine — the compute is microseconds over the
// compiled forest, so a queue hop would cost more than the work — through pooled
// scratch buffers and the hand-rolled JSON layer. The steady-state path
// allocates nothing (TestServePredictZeroAllocs pins 0 allocs/op end to end).
// /v1/simulate keeps the bounded worker queue: simulations run for
// milliseconds, which is what backpressure and deadlines are for.

// jsonCTValue is the shared Content-Type value; assigning the slice
// directly avoids Header().Set's per-call []string allocation.
var jsonCTValue = []string{"application/json"}

// maxBatchRows caps one predict_batch request.
const maxBatchRows = 8192

// fastEndpoint is one prediction endpoint's body handler: decode (fast
// parser, else encoding/json), then its single validate → core → encode
// tail.
type fastEndpoint func(s *Server, w http.ResponseWriter, sc *scratch, body []byte, start time.Time)

// serveFast runs a prediction endpoint. Admission is just "are we
// accepting", one atomic load — bounded work is guaranteed by construction
// here (the body is size-capped, the compute is one pass over the compiled
// forest per row) — plus in-flight accounting for /metrics, a pooled
// scratch and the buffered body.
func (s *Server) serveFast(w http.ResponseWriter, r *http.Request, endpoint fastEndpoint) {
	start := time.Now()
	if !s.accepting.Load() {
		s.rejects.Add(1)
		s.writeWorkError(w, errShuttingDown)
		return
	}
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	sc := s.getScratch()
	defer s.putScratch(sc)
	if body, ok := s.readBody(w, r, sc); ok {
		endpoint(s, w, sc, body, start)
	}
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
// /v1/simulate's only decoder and the fast lane's fallback decoder. Unknown fields
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
// the Content-Type header value is shared. The connection loop buffers the
// whole answer and frames it with Content-Length, whatever its size.
func writeFast(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = jsonCTValue
	_, _ = w.Write(body)
}

// --- /v1/predict ------------------------------------------------------------

func (s *Server) predict(w http.ResponseWriter, sc *scratch, body []byte, start time.Time) {
	feats, radioName, err := parseFastVector(body, sc.feats, "radio")
	sc.feats = feats[:0]
	if err != nil {
		var req predictRequest
		if !decodeBodyBytes(w, body, &req) {
			return
		}
		feats, radioName = req.Features, []byte(req.Radio)
	}
	var vec features.Vector
	if !parseFeatures(w, feats, &vec) {
		return
	}
	radio, ok := s.parseRadio(w, radioName)
	if !ok {
		return
	}
	res, err := s.predictCoreStripe(&vec, sc.st)
	if err != nil {
		s.writeWorkError(w, err)
		return
	}
	sc.st.observe(hPredict, start)
	sc.out = appendPredictResponse(sc.out[:0], res.seconds, res.gen, radio)
	writeFast(w, sc.out)
}

// --- /v1/decide -------------------------------------------------------------

func (s *Server) decide(w http.ResponseWriter, sc *scratch, body []byte, start time.Time) {
	feats, modeName, err := parseFastVector(body, sc.feats, "mode")
	sc.feats = feats[:0]
	if err != nil {
		var req decideRequest
		if !decodeBodyBytes(w, body, &req) {
			return
		}
		feats, modeName = req.Features, []byte(req.Mode)
	}
	var vec features.Vector
	if !parseFeatures(w, feats, &vec) {
		return
	}
	mode, ok := parsePolicyMode(w, modeName)
	if !ok {
		return
	}
	res, err := s.decideCoreStripe(&vec, mode, sc.st)
	if err != nil {
		s.writeWorkError(w, err)
		return
	}
	sc.st.observe(hDecide, start)
	sc.out = appendDecideResponse(sc.out[:0], &decideResponse{
		ReadingSeconds:  res.seconds,
		Switch:          res.d.Switch,
		Reason:          res.d.Reason,
		Mode:            mode.String(),
		TpSeconds:       res.tp.Seconds(),
		TdSeconds:       res.td.Seconds(),
		ModelGeneration: res.gen,
	})
	writeFast(w, sc.out)
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

func (s *Server) predictBatch(w http.ResponseWriter, sc *scratch, body []byte, start time.Time) {
	rows, err := parseFastBatch(body, sc)
	if err != nil {
		var req batchRequest
		if !decodeBodyBytes(w, body, &req) {
			return
		}
		sc.rowLens = sc.rowLens[:0]
		for _, row := range req.Features {
			sc.addRow(row)
		}
		rows = len(req.Features)
	}
	if !checkBatchShape(w, sc.rowLens[:rows]) {
		return
	}
	lm := s.model.current()
	if lm == nil {
		s.writeWorkError(w, errNoModel)
		return
	}
	for cap(sc.preds) < rows {
		sc.preds = append(sc.preds[:cap(sc.preds)], 0)
	}
	sc.preds = sc.preds[:rows]
	sc.xs, err = lm.pred.PredictBatchVecSeconds(sc.vecs[:rows], sc.preds, sc.xs)
	if err != nil {
		s.writeWorkError(w, err)
		return
	}
	for _, sec := range sc.preds {
		if !finite(sec) {
			s.writeWorkError(w, errNonFinite)
			return
		}
	}
	sc.st.count(cBatch)
	sc.st.add(cBatchItems, int64(rows))
	sc.st.observe(hBatch, start)
	sc.out = appendBatchResponse(sc.out[:0], sc.preds, lm.gen)
	writeFast(w, sc.out)
}

// checkBatchShape validates the row count and every row's arity. Rows
// carry finite values only: JSON cannot spell anything else, and the
// forest answers any finite input.
func checkBatchShape(w http.ResponseWriter, rowLens []int) bool {
	switch rows := len(rowLens); {
	case rows == 0:
		writeError(w, http.StatusBadRequest, "empty batch: need at least one feature vector")
		return false
	case rows > maxBatchRows:
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d vectors exceeds %d", rows, maxBatchRows))
		return false
	}
	for i, n := range rowLens {
		if n != features.Num {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("vector %d: need exactly %d features (Table 1 order), got %d", i, features.Num, n))
			return false
		}
	}
	return true
}
