// wirserve is the simulation-as-a-service daemon: a persistent process that
// accepts machine configs and client kernels over a REST/JSON job API
// (wir-serve/1), runs each job as one simulation on a bounded worker pool, and
// remembers every result in a disk-backed content-addressed store — so any
// configuration that has ever been simulated, by this process or a previous
// one, is answered without simulating again. Figures come from wirbench -exp.
//
//	wirserve -addr :8177 -store /var/lib/wirserve &
//	curl -d '{"kind":"run","bench":"KM"}' localhost:8177/v1/jobs
//
// On SIGINT/SIGTERM the server drains: running jobs finish, the queued
// remainder is persisted next to the store for the next process, and wirserve
// exits with the repo-wide "interrupted" code 4.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"github.com/wirsim/wir/internal/graceful"
	"github.com/wirsim/wir/internal/serve"
)

// Listener timeouts. A client that never finishes its request headers, or
// parks an idle keep-alive connection, is cut off instead of holding the
// connection forever. There is deliberately no write timeout: /events
// streams for as long as a job runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr     = flag.String("addr", ":8177", "listen address")
		sms      = flag.Int("sms", 15, "default number of SMs for jobs that do not choose")
		workers  = flag.Int("jobs", 2, "concurrent job executions")
		queue    = flag.Int("queue", 256, "max queued jobs before submissions get 503")
		storeDir = flag.String("store", "wirserve-store", "result store directory")
		storeMax = flag.Int64("store-max-bytes", 0, "result store size cap in bytes (0 = unlimited)")
		quiet    = flag.Bool("q", false, "suppress progress logging")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "wirserve: unexpected arguments %q\n", flag.Args())
		return 2
	}

	logf := log.New(os.Stderr, "", log.LstdFlags).Printf
	if *quiet {
		logf = nil
	}
	srv, err := serve.New(serve.Options{
		SMs:           *sms,
		Workers:       *workers,
		QueueDepth:    *queue,
		StoreDir:      *storeDir,
		StoreMaxBytes: *storeMax,
		Logf:          logf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "wirserve: %v\n", err)
		return 1
	}

	guard := graceful.New("wirserve")
	guard.OnInterrupt(srv.Drain)
	guard.Watch()

	if logf != nil {
		logf("wirserve: %s listening on %s (store %s, %d workers)", serve.Schema, *addr, *storeDir, *workers)
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	if err := hs.ListenAndServe(); err != nil {
		fmt.Fprintf(os.Stderr, "wirserve: %v\n", err)
		return 1
	}
	return 0
}
