// Command famserve is the long-lived serving front end of the fam
// library: it loads a set of datasets into a fam.Engine (shared worker
// pool, preprocessing cache, result cache) and serves selection and
// evaluation queries over JSON/HTTP.
//
// Usage:
//
//	famserve -addr :8080 -datasets hotels:200
//	famserve -datasets "hotels:500,catalog=synthetic:10000:6:anticorrelated:3" -workers 8
//
// Endpoints: GET /v1/datasets, POST /v1/datasets (CSV upload),
// POST /v1/select, POST /v1/evaluate, GET /v1/stats (frozen v1 shims),
// and the v2 surface: the batched POST /v2/select (array of semantic
// queries + one exec policy block with per-request priority, deadline,
// and max_queue; per-member error slots) plus GET /v2/datasets,
// POST /v2/datasets, and GET /v2/stats with the typed {code, message}
// error envelope. Scheduling is also reachable via the X-Fam-Priority /
// X-Fam-Deadline-Ms / X-Fam-Max-Queue headers on any query endpoint;
// shed requests answer 429. The server shuts down gracefully on
// SIGINT/SIGTERM: in-flight requests get -shutdown-grace to finish
// before the listener and the engine close.
//
//	curl -s localhost:8080/v1/select -d '{"dataset":"hotels","k":5,"seed":7}'
//	curl -s localhost:8080/v2/select -d '{"queries":[{"dataset":"hotels","k":3,"seed":7},{"dataset":"hotels","k":5,"seed":7}]}'
//	curl -s 'localhost:8080/v1/datasets?name=mine' --data-binary @mine.csv
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	fam "github.com/regretlab/fam"
	"github.com/regretlab/fam/internal/load"
	"github.com/regretlab/fam/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "famserve:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("famserve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		workers  = fs.Int("workers", 0, "shared worker-pool size multiplexed across all queries (0 = all CPUs)")
		prepMB   = fs.Int64("prep-cache-mb", 0, "preprocessing cache byte budget in MiB (0 = default 1024, negative = unbounded)")
		resMB    = fs.Int64("result-cache-mb", 0, "byte budget in MiB of the result cache and, separately, the trajectory cache (0 = default 64, negative = unbounded)")
		uploadMB = fs.Int64("max-upload-mb", 0, "CSV upload size cap in MiB for POST /v1/datasets (0 = default 32, negative = uploads disabled)")
		batchCap = fs.Int("max-batch", 0, "maximum queries per POST /v2/select batch (0 = default 256)")
		maxQueue = fs.Int("max-queue", 0, "shed requests (429) arriving while more helper requests than this are queued, unless the request sets its own max_queue (0 = no server-side bound)")
		specs    = fs.String("datasets", "hotels:200", "comma-separated dataset specs: [name=]kind[:n[:seed]] or [name=]synthetic[:n[:d[:corr[:seed]]]]")
		ces      = fs.Float64("ces", 0, "use CES utilities with this rho for every dataset (0 = uniform linear)")
		trace    = fs.String("trace", "", "record every accepted query request to this JSONL file (replayable with famload -replay)")
		traceLog = fs.String("trace-log", "", "sink sampled and slow-query span trees to this JSONL file")
		sample   = fs.Int("trace-sample", 0, "sink every Nth query request's span tree to -trace-log (0 = slow queries only)")
		slowMS   = fs.Int64("slow-query-ms", 0, "trace every query request and always sink those slower than this many milliseconds (0 = off)")
		pprofA   = fs.String("pprof-addr", "", "serve net/http/pprof on this separate listener (empty = disabled)")
		grace    = fs.Duration("shutdown-grace", 10*time.Second, "graceful-shutdown window for in-flight requests")
		logger   = slog.New(slog.NewJSONHandler(out, nil))
	)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return err
	}

	engine, infos, err := load.BuildEngine(engineConfig(*workers, *prepMB, *resMB), *specs, *ces)
	if err != nil {
		return err
	}
	defer engine.Close()
	for _, info := range infos {
		logger.Info("dataset", "name", info.Name, "n", info.N, "dim", info.Dim, "dist", info.Distribution)
	}

	maxUpload := *uploadMB << 20
	if *uploadMB < 0 {
		maxUpload = -1
	}
	cfg := serve.HandlerConfig{
		MaxUploadBytes:  maxUpload,
		MaxBatchQueries: *batchCap,
		MaxQueue:        *maxQueue,
		TraceSample:     *sample,
		SlowQuery:       time.Duration(*slowMS) * time.Millisecond,
		Log:             logger,
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			return fmt.Errorf("opening trace file: %w", err)
		}
		defer f.Close()
		cfg.Trace = f
		logger.Info("recording request trace", "path", *trace)
	}
	if *traceLog != "" {
		f, err := os.Create(*traceLog)
		if err != nil {
			return fmt.Errorf("opening trace log: %w", err)
		}
		defer f.Close()
		cfg.TraceLog = f
		logger.Info("sinking span trees", "path", *traceLog, "sample", *sample, "slow_query_ms", *slowMS)
	}
	handler := serve.NewHandlerConfig(engine, cfg)
	srv := &http.Server{Addr: *addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *pprofA != "" {
		psrv := &http.Server{Addr: *pprofA, Handler: pprofHandler()}
		defer psrv.Close()
		go func() {
			logger.Info("pprof listening", "addr", *pprofA)
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof server", "err", err.Error())
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "pool_workers", engine.Stats().PoolWorkers)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down", "grace", grace.String())
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// engineConfig maps the pool and cache-budget flags, budgets in MiB, onto
// an EngineConfig: 0 keeps the default budget, a negative one stays
// negative, unbounded.
func engineConfig(workers int, prepMB, resMB int64) fam.EngineConfig {
	return fam.EngineConfig{Workers: workers, PrepCacheBytes: prepMB << 20, ResultCacheBytes: resMB << 20}
}

// pprofHandler exposes net/http/pprof on an explicit mux — never on
// the API listener, so profiling stays separable (and firewallable)
// from serving.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
