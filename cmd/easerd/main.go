// Command easerd is the resident energy-aware prediction service: it loads a
// trained GBRT reading-time model and serves the paper's predict/decide loop
// (and on-demand page-load simulations) over HTTP until told to stop.
//
// Start it against a model file, then drive it with curl:
//
//	easerd -train-demo model.json        # train a demo model and exit
//	easerd -model model.json -addr :8723
//
//	curl -s localhost:8723/v1/predict -d '{"features":[12,340,25,4,9,120,0.8,3,2800,320]}'
//	curl -s localhost:8723/v1/decide  -d '{"features":[...],"mode":"power"}'
//	curl -s localhost:8723/v1/simulate -d '{"page":"m.cnn.com","radio":"lte","reading_s":20}'
//	curl -s -X POST localhost:8723/admin/reload
//
// predict and simulate accept an optional "radio" profile name ("umts",
// "lte", "nr"; default "umts"): simulate runs the load on that backend,
// predict validates and echoes it so mixed-RAN clients can correlate
// responses. /metrics lists the registered profiles.
//
// SIGHUP reloads the model file in place (validate-then-swap; a bad file is
// rejected and the old model keeps serving). SIGINT/SIGTERM shut down
// gracefully: readiness flips first, in-flight requests drain, and the final
// metrics snapshot is flushed to stderr (or -metrics-out).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"eabrowse/internal/serve"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "easerd:", err)
		}
		os.Exit(1)
	}
}

// run is the testable entry point. When ready is non-nil it receives the
// bound listen address once the service is accepting (tests use it to find
// the port and to shut down via the returned context).
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("easerd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8723", "listen address (host:port)")
	model := fs.String("model", "", "trained predictor file (see -train-demo); empty starts not-ready until a reload")
	workers := fs.Int("workers", 0, "prediction worker-pool size (<= 0: GOMAXPROCS)")
	queue := fs.Int("queue", 0, "bounded backlog between HTTP front and workers (<= 0: 256); full queue answers 429")
	timeout := fs.Duration("timeout", 0, "per-request deadline (<= 0: 5s); clients may shorten it via X-Request-Timeout-Ms")
	maxBody := fs.Int64("max-body", 0, "request-body size cap in bytes (<= 0: 1 MiB)")
	metricsOut := fs.String("metrics-out", "", "write the final metrics snapshot to this file on shutdown (default: stderr)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight requests")
	trainDemo := fs.String("train-demo", "", "train a predictor on the synthetic dataset, save it to this path, and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trainDemo != "" {
		return trainDemoModel(*trainDemo)
	}

	srv, err := serve.New(serve.Config{
		Addr:           *addr,
		ModelPath:      *model,
		Workers:        *workers,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
	})
	if err != nil {
		return err
	}
	// Signals are registered before the service comes up so a reload or stop
	// arriving in the startup window is queued, not fatal.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(stop)

	if err := srv.Start(context.Background()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "easerd: serving on %s (model %q, ready=%v)\n", srv.Addr(), *model, srv.Ready())
	if ready != nil {
		ready <- srv.Addr()
	}

	for {
		select {
		case <-hup:
			if gen, err := srv.Reload(); err != nil {
				fmt.Fprintf(os.Stderr, "easerd: reload rejected (still serving generation %d): %v\n", gen, err)
			} else {
				fmt.Fprintf(os.Stderr, "easerd: reloaded model, now serving generation %d\n", gen)
			}
		case sig := <-stop:
			fmt.Fprintf(os.Stderr, "easerd: %v, draining for up to %v\n", sig, *drain)
			ctx, cancel := context.WithTimeout(context.Background(), *drain)
			err := srv.Shutdown(ctx)
			cancel()
			if ferr := flushMetrics(srv, *metricsOut); ferr != nil && err == nil {
				err = ferr
			}
			return err
		}
	}
}

// flushMetrics writes the final snapshot to the given path, or stderr.
func flushMetrics(srv *serve.Server, path string) error {
	if path == "" {
		return srv.WriteMetrics(os.Stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := srv.WriteMetrics(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// trainDemoModel trains and saves the demo predictor, so the curl cookbook
// is self-contained, and reports its holdout accuracy.
func trainDemoModel(path string) error {
	p, train, test, err := serve.TrainDemoModel(path)
	if err != nil {
		return err
	}
	acc, err := p.Evaluate(test, 0.5, true)
	if err != nil {
		return err
	}
	fmt.Printf("easerd: trained %d-tree predictor on %d visits (holdout accuracy %.1f%%), saved to %s\n",
		p.NumTrees(), len(train), acc.Pct(), path)
	return nil
}
