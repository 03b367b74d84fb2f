// Command cpelide-server runs the experiment-farm HTTP server
// (internal/server) and serves health checks at /healthz.
//
// With -store, results are persisted to a content-addressed on-disk store
// under the in-memory LRU; on startup the cache is warmed from the most
// recently written entries, so a restarted server serves prior results
// without re-simulating.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/diskstore"
	"repro/internal/farm"
	"repro/internal/metrics"
	"repro/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		debugAddr = flag.String("debug-addr", "", "optional debug listen address serving net/http/pprof (e.g. localhost:6060); empty disables")
		workers   = flag.Int("workers", 0, "farm worker goroutines (0 = all CPUs)")
		queueCap  = flag.Int("queue", 64, "accepted jobs allowed beyond the farm workers before submissions get 429")
		cacheCap  = flag.Int("cache", farm.DefaultCacheEntries, "result cache entries, failed runs included (0 = default); a job evicted from it answers 404")
		jobTO     = flag.Duration("job-timeout", 0, "deadline for one simulation (0 = none)")
		logJSON   = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
		storeDir  = flag.String("store", "", "persistent result-store directory (empty disables)")
	)
	flag.Parse()

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler).With("component", "cpelide-server")
	if *cacheCap < 0 {
		logger.Error("bad -cache: want >= 0", "cache", *cacheCap)
		os.Exit(2)
	}

	reg := metrics.NewRegistry()
	opts := farm.Options{
		Workers:      *workers,
		CacheEntries: *cacheCap,
		JobTimeout:   *jobTO,
		Metrics:      reg,
	}

	var store *diskstore.Store
	if *storeDir != "" {
		var err error
		if store, err = diskstore.Open(*storeDir); err != nil {
			logger.Error("open result store", "dir", *storeDir, "err", err)
			os.Exit(1)
		}
		corrupt := reg.Counter("store_corrupt_total",
			"Store entries that failed integrity validation and were quarantined.")
		store.OnCorrupt = func(key string) {
			corrupt.Inc()
			logger.Warn("store entry quarantined", "key", key)
		}
		opts.Store = store
	}

	eng := farm.New(opts)
	if store != nil {
		// Warm the LRU from the store's freshest entries so a restart
		// starts hot instead of cold.
		capacity := *cacheCap
		if capacity == 0 {
			capacity = farm.DefaultCacheEntries
		}
		keys, err := store.RecentKeys(capacity)
		if err != nil {
			logger.Warn("scan result store for warm-start", "err", err)
		} else if n := eng.Warm(keys); n > 0 {
			logger.Info("cache warmed from store", "dir", *storeDir, "entries", n)
		}
	}

	s := server.New(eng, *queueCap)
	s.Instrument(reg, logger)
	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "workers", eng.Workers(), "queue", *queueCap)

	var debugSrv *http.Server
	if *debugAddr != "" {
		// The profiling surface is a separate listener so it can stay bound
		// to localhost while the API listens publicly.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Addr: *debugAddr, Handler: dmux}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		logger.Info("pprof listening", "addr", *debugAddr)
	}

	select {
	case err := <-errc:
		logger.Error("listener failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections, let queued jobs finish,
	// then stop the farm workers.
	logger.Info("signal received, draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("http shutdown", "err", err)
	}
	if debugSrv != nil {
		_ = debugSrv.Shutdown(shutdownCtx)
	}
	s.Drain()
	eng.Close()
	c := eng.Counters()
	logger.Info("drained", "jobs", c.Jobs, "runs", c.Runs, "cache_hits", c.CacheHits,
		"store_hits", c.StoreHits, "errors", c.Errors)
}
