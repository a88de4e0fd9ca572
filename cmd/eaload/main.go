// Command eaload is the load harness for easerd: it drives the service's
// HTTP endpoints at a fixed open-loop arrival rate — the coordinated-
// omission-safe way to measure a server — or in a closed-loop saturation
// mode that answers "how many requests per second can this box serve".
//
//	eaload -inprocess -rate 20000 -duration 10s        # open loop, 20k req/s
//	eaload -addr 127.0.0.1:8723 -duration 10s          # closed-loop saturation
//	eaload -addr ... -endpoint predict_batch -batch 64 # amortized batch calls
//
// Open loop: arrivals are scheduled on a fixed clock (request i fires at
// start + i/rate) and latency is measured from the *scheduled* start, not
// the send. A stalled server therefore charges its queueing delay to every
// request that should have been sent meanwhile, instead of silently slowing
// the generator down — the coordinated-omission trap most naive harnesses
// fall into. Arrivals are spread round-robin across -conns persistent
// connections, so at most -conns requests are outstanding: a true open loop
// up to that bound.
//
// Closed loop: -conns workers issue requests back to back with no think
// time. Throughput at saturation is what TestServeSaturation gates
// (go test -tags servebench); the percentiles tell how much latency that
// throughput costs.
//
// Latency is accumulated in mergeable internal/stats sketches (one per
// connection, merged deterministically in connection order), reported as
// p50/p95/p99/p999 with the sketch's worst-case error receipt alongside.
// The generator speaks a minimal HTTP/1.1 dialect over persistent
// connections (preformatted request bytes, Content-Length responses) so the
// client side costs as little as possible — on a small box the harness
// shares the CPU with the server under test.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"eabrowse/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "eaload:", err)
		}
		os.Exit(1)
	}
}

// probeFeatures is the Table 1 feature vector every generated request
// carries (batch requests perturb one feature per vector so the forest sees
// distinct inputs).
var probeFeatures = [10]float64{12, 340, 25, 4, 9, 120, 0.8, 3, 2800, 320}

// endpointPath maps the -endpoint names onto URL paths.
var endpointPath = map[string]string{
	"predict":       "/v1/predict",
	"decide":        "/v1/decide",
	"predict_batch": "/v1/predict_batch",
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("eaload", flag.ContinueOnError)
	addr := fs.String("addr", "", "server address host:port (or use -inprocess)")
	endpoint := fs.String("endpoint", "predict", "endpoint to drive: predict, decide or predict_batch")
	rate := fs.Float64("rate", 0, "open-loop arrival rate in req/s (0: closed-loop saturation)")
	duration := fs.Duration("duration", 10*time.Second, "measured run length (after warmup)")
	warmup := fs.Duration("warmup", 2*time.Second, "warmup window excluded from the report")
	conns := fs.Int("conns", 16, "persistent connections (open loop: max outstanding; closed loop: workers)")
	batch := fs.Int("batch", 16, "vectors per predict_batch request")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request client timeout")
	body := fs.String("body", "", "raw JSON request body overriding the generated one")
	jsonOut := fs.Bool("json", false, "report as one JSON object instead of text")
	inproc := fs.Bool("inprocess", false, "start an in-process easerd with a freshly trained demo model and drive that")
	budget := fs.Int("sketch-budget", 2048, "latency sketch centroid budget per connection")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path, ok := endpointPath[*endpoint]
	if !ok {
		return fmt.Errorf("unknown endpoint %q (want predict, decide or predict_batch)", *endpoint)
	}
	if *conns < 1 || *conns > 4096 {
		return fmt.Errorf("conns %d out of range [1, 4096]", *conns)
	}
	if *batch < 1 || *batch > 4096 {
		return fmt.Errorf("batch %d out of range [1, 4096]", *batch)
	}
	if *duration <= 0 || *warmup < 0 {
		return fmt.Errorf("duration must be positive and warmup non-negative")
	}

	if *inproc {
		stop, a, err := startInprocess()
		if err != nil {
			return err
		}
		defer stop()
		*addr = a
	}
	if *addr == "" {
		return errors.New("need -addr (or -inprocess)")
	}

	payload := *body
	if payload == "" {
		payload = requestBody(*endpoint, *batch)
	}
	cfg := loadConfig{
		addr:     *addr,
		path:     path,
		body:     []byte(payload),
		rate:     *rate,
		duration: *duration,
		warmup:   *warmup,
		conns:    *conns,
		timeout:  *timeout,
		budget:   *budget,
	}
	rep, err := runLoad(cfg)
	if err != nil {
		return err
	}
	rep.Endpoint = path
	if *endpoint == "predict_batch" {
		rep.ItemsPerSec = rep.AchievedRPS * float64(*batch)
	}
	if *jsonOut {
		return rep.writeJSON(w)
	}
	rep.writeText(w)
	return nil
}

// requestBody builds the canonical JSON body for an endpoint.
func requestBody(endpoint string, batch int) string {
	vec := func(perturb float64) string {
		var sb strings.Builder
		sb.WriteByte('[')
		for i, f := range probeFeatures {
			if i > 0 {
				sb.WriteByte(',')
			}
			if i == 1 { // content size, a feature where variation is natural
				f += perturb
			}
			sb.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
		}
		sb.WriteByte(']')
		return sb.String()
	}
	switch endpoint {
	case "decide":
		return `{"features":` + vec(0) + `,"mode":"power"}`
	case "predict_batch":
		var sb strings.Builder
		sb.WriteString(`{"features":[`)
		for i := 0; i < batch; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(vec(float64(i)))
		}
		sb.WriteString(`]}`)
		return sb.String()
	default:
		return `{"features":` + vec(0) + `}`
	}
}

// Report is the harness's machine-readable result.
type Report struct {
	Endpoint    string  `json:"endpoint"`
	Mode        string  `json:"mode"` // "open" or "closed"
	TargetRPS   float64 `json:"target_rps,omitempty"`
	Conns       int     `json:"conns"`
	DurationS   float64 `json:"duration_s"`
	WarmupS     float64 `json:"warmup_s"`
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`
	Non2xx      int64   `json:"non_2xx"`
	AchievedRPS float64 `json:"achieved_rps"`
	// ItemsPerSec is AchievedRPS x batch for predict_batch runs.
	ItemsPerSec float64   `json:"items_per_sec,omitempty"`
	Latency     LatencyUS `json:"latency_us"`
}

// LatencyUS summarizes the latency sketch in microseconds.
type LatencyUS struct {
	P50        float64 `json:"p50"`
	P95        float64 `json:"p95"`
	P99        float64 `json:"p99"`
	P999       float64 `json:"p999"`
	Mean       float64 `json:"mean"`
	ErrorBound float64 `json:"error_bound"`
}

func (r *Report) writeText(w io.Writer) {
	fmt.Fprintf(w, "eaload: %s %s, %d conns, %.0fs measured (%.0fs warmup)\n",
		r.Mode, r.Endpoint, r.Conns, r.DurationS, r.WarmupS)
	if r.Mode == "open" {
		fmt.Fprintf(w, "target rate %.0f req/s\n", r.TargetRPS)
	}
	fmt.Fprintf(w, "%d requests, %d errors, %d non-2xx\n", r.Requests, r.Errors, r.Non2xx)
	fmt.Fprintf(w, "throughput %.1f req/s", r.AchievedRPS)
	if r.ItemsPerSec > 0 {
		fmt.Fprintf(w, " (%.1f vectors/s)", r.ItemsPerSec)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "latency us: p50 %.1f  p95 %.1f  p99 %.1f  p99.9 %.1f  mean %.1f  (sketch error <= %.1f)\n",
		r.Latency.P50, r.Latency.P95, r.Latency.P99, r.Latency.P999, r.Latency.Mean, r.Latency.ErrorBound)
}

// writeJSON emits the report as one indented JSON object. Hand-formatted so
// the field order is stable for awk/jq consumers either way.
func (r *Report) writeJSON(w io.Writer) error {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var sb strings.Builder
	sb.WriteString("{\n")
	fmt.Fprintf(&sb, "  %q: %q,\n", "endpoint", r.Endpoint)
	fmt.Fprintf(&sb, "  %q: %q,\n", "mode", r.Mode)
	if r.TargetRPS > 0 {
		fmt.Fprintf(&sb, "  %q: %s,\n", "target_rps", f(r.TargetRPS))
	}
	fmt.Fprintf(&sb, "  %q: %d,\n", "conns", r.Conns)
	fmt.Fprintf(&sb, "  %q: %s,\n", "duration_s", f(r.DurationS))
	fmt.Fprintf(&sb, "  %q: %s,\n", "warmup_s", f(r.WarmupS))
	fmt.Fprintf(&sb, "  %q: %d,\n", "requests", r.Requests)
	fmt.Fprintf(&sb, "  %q: %d,\n", "errors", r.Errors)
	fmt.Fprintf(&sb, "  %q: %d,\n", "non_2xx", r.Non2xx)
	fmt.Fprintf(&sb, "  %q: %s,\n", "achieved_rps", f(r.AchievedRPS))
	if r.ItemsPerSec > 0 {
		fmt.Fprintf(&sb, "  %q: %s,\n", "items_per_sec", f(r.ItemsPerSec))
	}
	fmt.Fprintf(&sb, "  %q: {", "latency_us")
	fmt.Fprintf(&sb, "%q: %s, ", "p50", f(r.Latency.P50))
	fmt.Fprintf(&sb, "%q: %s, ", "p95", f(r.Latency.P95))
	fmt.Fprintf(&sb, "%q: %s, ", "p99", f(r.Latency.P99))
	fmt.Fprintf(&sb, "%q: %s, ", "p999", f(r.Latency.P999))
	fmt.Fprintf(&sb, "%q: %s, ", "mean", f(r.Latency.Mean))
	fmt.Fprintf(&sb, "%q: %s}\n", "error_bound", f(r.Latency.ErrorBound))
	sb.WriteString("}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// startInprocess trains a small demo model and boots a serve.Server around
// it, returning a teardown closure and the bound address.
func startInprocess() (func(), string, error) {
	dir, err := os.MkdirTemp("", "eaload")
	if err != nil {
		return nil, "", err
	}
	cleanupDir := func() { _ = os.RemoveAll(dir) }
	modelPath := filepath.Join(dir, "model.json")
	if _, _, _, err := serve.TrainDemoModel(modelPath); err != nil {
		cleanupDir()
		return nil, "", err
	}
	srv, err := serve.New(serve.Config{Addr: "127.0.0.1:0", ModelPath: modelPath})
	if err != nil {
		cleanupDir()
		return nil, "", err
	}
	if err := srv.Start(context.Background()); err != nil {
		cleanupDir()
		return nil, "", err
	}
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		cleanupDir()
	}
	return stop, srv.Addr(), nil
}
