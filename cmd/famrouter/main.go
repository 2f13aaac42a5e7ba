// Command famrouter is the cluster front end over N famserve
// replicas: one address that terminates the whole famserve API and
// routes every request to a replica chosen by instance-key affinity:
// queries that share a preprocessing instance go to one owner replica
// (the least-loaded one when the owner is down or shedding), so the
// cluster pays a dataset's ~half-second cold preprocessing once
// instead of once per replica — the distributed analogue of the
// engine's batch planner.
//
// Usage:
//
//	famrouter -replicas http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083
//	famrouter -addr :8070 -replicas ... -shed-cooldown 5s
//
// The router polls each replica's GET /healthz on -health-interval;
// a replica is marked down after -fail-threshold consecutive failed
// probes (or immediately on a transport error while forwarding) and
// marked up again after one good probe. v2 batches scatter across
// replicas by instance-key group and gather in order; dataset uploads
// broadcast to every routable replica. GET /metrics exposes
// famrouter_* series: per-replica routed/retried/failed/transition
// counters, health gauges, and route-decision counts by reason.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/regretlab/fam/internal/cluster"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "famrouter:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("famrouter", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8070", "listen address")
		replicas = fs.String("replicas", "", "comma-separated replica base URLs, e.g. http://127.0.0.1:8081,http://127.0.0.1:8082")
		interval = fs.Duration("health-interval", 500*time.Millisecond, "period between replica health-check rounds")
		timeout  = fs.Duration("health-timeout", 2*time.Second, "per-replica health probe timeout")
		failN    = fs.Int("fail-threshold", 2, "consecutive failed probes that mark a replica down")
		retries  = fs.Int("retries", 1, "additional replicas to try after a transport failure")
		cooldown = fs.Duration("shed-cooldown", 2*time.Second, "how long one observed 429/503 steers affinity away from a replica")
		shedMax  = fs.Float64("shed-threshold", 0.5, "health-check shed rate above which affinity avoids the owner replica")
		grace    = fs.Duration("shutdown-grace", 10*time.Second, "graceful-shutdown window for in-flight requests")
		logger   = slog.New(slog.NewJSONHandler(out, nil))
	)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *replicas == "" {
		return fmt.Errorf("missing -replicas (comma-separated base URLs)")
	}
	urls := strings.Split(*replicas, ",")
	for i := range urls {
		urls[i] = strings.TrimSpace(urls[i])
	}
	reg, err := cluster.NewRegistry(urls)
	if err != nil {
		return err
	}
	policy := cluster.NewAffinity(reg.Replicas())
	policy.ShedCooldown = *cooldown
	policy.ShedThreshold = *shedMax

	checker := cluster.NewHealthChecker(reg, nil)
	checker.Interval = *interval
	checker.Timeout = *timeout
	checker.FailThreshold = *failN
	checker.Log = logger
	// One synchronous round so the first request already has routable
	// replicas (replicas that are genuinely down just stay down).
	checker.CheckOnce(context.Background())
	checker.Start()
	defer checker.Stop()

	router := cluster.NewRouter(reg, cluster.RouterConfig{
		Policy:  policy,
		Retries: *retries,
		Log:     logger,
	})
	srv := &http.Server{Addr: *addr, Handler: router}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		up := len(reg.UpReplicas())
		logger.Info("listening", "addr", *addr, "policy", policy.Name(), "replicas", len(reg.Replicas()), "up", up)
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
