// Command abftd runs the resident fault-tolerant solve service: an
// HTTP/JSON API over the protected-operator layer with a bounded worker
// pool, a content-addressed cache of protected operators shared across
// requests, and a background scrub daemon patrolling the cached
// operators.
//
// Usage:
//
//	abftd -addr :8080 -workers 8 -cache 32 -scrub 5s
//	abftd -log-level debug -debug-addr 127.0.0.1:6060
//
// Endpoints:
//
//	POST /v1/solve             submit a solve (append ?wait=1 to block)
//	GET  /v1/jobs/{id}         poll a job
//	GET  /v1/jobs/{id}/trace   per-stage solve trace with residual history
//	GET  /v1/events            recent fault events (scrubs, rollbacks, retries)
//	GET  /healthz              liveness
//	GET  /metrics              Prometheus text metrics
//
// With -debug-addr set, a second listener serves net/http/pprof under
// /debug/pprof/ and expvar under /debug/vars — kept off the service
// address so profiling endpoints are never exposed where solves are.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"abft/internal/obs"
	"abft/internal/service"
)

// Connection limits of both listeners. Headers and request bodies
// must arrive within their deadlines, idle keep-alive connections are
// reaped, and header blocks are capped well below the library default.
// There is deliberately no write timeout: a ?wait=1 solve holds its
// response open for the whole solve.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

// newHTTPServer returns a server for h carrying the connection limits.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "abftd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and serves until ctx is cancelled. When ready
// is non-nil it receives the bound listen address once the socket is
// open (the hook the smoke tests use to find an ephemeral port).
func run(ctx context.Context, args []string, stdout io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("abftd", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr    = fs.String("addr", ":8080", "listen address")
		workers = fs.Int("workers", 4, "solve worker pool size")
		queue   = fs.Int("queue", 64, "job queue depth")
		cache   = fs.Int("cache", 16, "max resident protected operators")
		scrub   = fs.Duration("scrub", 5*time.Second, "scrub daemon interval (0 disables)")
		maxw    = fs.Int("maxworkers", 8, "per-job kernel goroutine cap")
		history = fs.Int("history", 1024, "finished jobs kept queryable")
		drain   = fs.Duration("drain", 10*time.Second, "graceful-shutdown deadline for draining queued and running jobs")
		debug   = fs.String("debug-addr", "", "serve pprof and expvar debug endpoints on this address (empty disables)")
		logLvl  = fs.String("log-level", "info", "minimum structured-log level: debug, info, warn or error")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLvl)); err != nil {
		return fmt.Errorf("-log-level: %w", err)
	}

	srv := service.New(service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheOperators:  *cache,
		ScrubInterval:   *scrub,
		MaxSolveWorkers: *maxw,
		JobHistory:      *history,
		Logger:          obs.NewLogger(stdout, level),
	})
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	fmt.Fprintf(stdout, "abftd listening on %s (workers=%d queue=%d cache=%d scrub=%v)\n",
		ln.Addr(), *workers, *queue, *cache, *scrub)

	if *debug != "" {
		// The debug listener is separate from the service socket on
		// purpose: pprof and expvar stay bindable to loopback while the
		// API faces the network. Only the default expvar vars (memstats,
		// cmdline) are published — no expvar.Publish, which would panic
		// on re-registration when run is invoked twice in one process.
		dln, err := net.Listen("tcp", *debug)
		if err != nil {
			return fmt.Errorf("-debug-addr: %w", err)
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/debug/vars", expvar.Handler())
		ds := newHTTPServer(dmux)
		go ds.Serve(dln)
		defer ds.Close()
		if ready != nil {
			ready <- dln.Addr().String()
		}
		fmt.Fprintf(stdout, "abftd debug endpoints on %s\n", dln.Addr())
	}

	hs := newHTTPServer(srv)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		// Graceful shutdown: close the listener and finish in-flight
		// HTTP exchanges, then stop admission and drain the worker
		// pool — queued jobs run to completion unless the deadline
		// expires — and finally flush the scrub daemon.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			srv.Shutdown(shutdownCtx)
			return err
		}
		<-errc
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(stdout, "abftd: drain deadline expired with jobs still running")
			return err
		}
		fmt.Fprintln(stdout, "abftd: drained and shut down")
		return nil
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
