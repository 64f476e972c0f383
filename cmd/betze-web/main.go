// Command betze-web serves the BETZE web interface (Fig. 4 of the paper)
// and a durable benchmark-as-a-service API. The interactive side is
// unchanged: a configuration page generates an exploratory session and
// shows its dependency graph, queries and downloads. The service side
// accepts whole benchmark campaigns over REST:
//
//	betze-web -addr :8080 -data ./betze-data -workers 2
//	curl -XPOST localhost:8080/api/campaigns -d '{
//	    "dataset": {"source": "twitter", "docs": 2000, "seed": 1},
//	    "preset": "expert", "seeds": [1, 2], "engines": ["joda", "jq"]}'
//	curl -N localhost:8080/api/campaigns/c000001/events   # SSE progress
//	curl localhost:8080/api/campaigns/c000001/artifact    # final results
//
// Campaigns are journaled through a write-ahead log before they are
// acknowledged: kill the server at any point — SIGKILL included — and the
// next start replays the journal, requeues in-flight campaigns and resumes
// them from their last per-unit checkpoint, publishing byte-identical
// artifacts. Admission control (bounded queue, per-tenant token buckets)
// sheds overload with 429/503 plus Retry-After instead of queueing without
// bound, and SIGTERM drains gracefully: stop claiming, checkpoint and
// release running campaigns, end open event streams, close the journal.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// newHTTPServer wraps the handler in an http.Server with the production
// timeouts: slowloris and stuck-peer protection. Handlers that legitimately
// outlive WriteTimeout (the SSE streams) extend their own deadline per
// write through http.NewResponseController.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "betze-web:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("betze-web", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8080", "listen address")
	var cfg config
	fs.StringVar(&cfg.dataDir, "data", "betze-web-data", "data directory (campaign journal, artifacts, scratch)")
	fs.IntVar(&cfg.workers, "workers", 2, "campaign worker pool size")
	fs.IntVar(&cfg.maxQueued, "max-queued", 64, "campaign queue depth bound (beyond: 503)")
	fs.Float64Var(&cfg.quotaRate, "quota-rate", 4, "per-tenant campaign submissions per second (beyond burst: 429)")
	fs.IntVar(&cfg.quotaBurst, "quota-burst", 8, "per-tenant submission burst capacity")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget before open connections are cut")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Listen before replaying the journal: a long recovery must not look
	// like a dead service. Until recoverQueue finishes, the campaign
	// endpoints answer 503 with Retry-After.
	srv := newServerHandler(cfg)
	hs := newHTTPServer(srv)
	// An explicit listener so ":0" resolves to a real port before the
	// "listening" line is printed (the crash-resume integration test parses
	// it to find its child).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() {
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	go func() {
		if err := srv.recoverQueue(); err != nil {
			errc <- fmt.Errorf("recovering campaign journal: %w", err)
			return
		}
		srv.start(ctx)
	}()
	fmt.Fprintf(out, "BETZE web service listening on http://%s (data: %s)\n", ln.Addr(), cfg.dataDir)

	select {
	case err := <-errc:
		srv.drain()
		return err
	case <-ctx.Done():
	}
	// Graceful drain: admission control sheds new campaigns, in-flight
	// executors are cancelled and their campaigns released back to the
	// journal with checkpoints, then the queue closes: every open event
	// stream ends, so Shutdown below is not held up by SSE clients.
	log.Println("betze-web: draining")
	srv.drain()
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		hs.Close()
	}
	return nil
}
