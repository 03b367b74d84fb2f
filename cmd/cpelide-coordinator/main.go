// Command cpelide-coordinator fronts a fleet of cpelide-server workers as
// one experiment farm: jobs and job reads are routed by content hash with
// rendezvous hashing over the healthy workers, and dead workers are
// detected by health polling. The coordinator keeps no state per job: a job
// whose worker died answers 404 and the client resubmits it. Workers
// register themselves at startup and every second after
// (cpelide-server -coordinator), or via POST /v1/workers/register, so a
// restarted coordinator relearns them within a second.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
)

func main() {
	var (
		addr          = flag.String("addr", ":8070", "listen address")
		healthEvery   = flag.Duration("health-interval", 250*time.Millisecond, "worker health-probe period")
		failThreshold = flag.Int("fail-threshold", 2, "consecutive failed probes before a worker is marked dead")
		proxyTimeout  = flag.Duration("proxy-timeout", 30*time.Second, "per-request bound for proxied calls")
		hedgeAfter    = flag.Duration("hedge-after", 0, "re-issue a slow submit to the job's second-ranked worker after this delay (0 = no hedging)")
		logJSON       = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	)
	flag.Parse()

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler).With("component", "cpelide-coordinator")

	reg := metrics.NewRegistry()
	coord := cluster.NewCoordinator(cluster.Options{
		HealthInterval: *healthEvery,
		FailThreshold:  *failThreshold,
		ProxyTimeout:   *proxyTimeout,
		Metrics:        reg,
		Logger:         logger,
		HedgeAfter:     *hedgeAfter,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: coord.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "health_interval", *healthEvery)

	select {
	case err := <-errc:
		logger.Error("listener failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("signal received, shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("http shutdown", "err", err)
	}
	coord.Close()
}
