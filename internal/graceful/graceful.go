// Package graceful gives long-running commands a SIGINT/SIGTERM story: on the
// first signal, registered flushers write whatever partial artifacts exist
// (fuzz failure lists, raw-run CSVs) and the process exits with a distinct
// code, so CI and operators can tell "interrupted with partial artifacts"
// apart from both success and real failure.
package graceful

import (
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// ExitCode is the process exit status after a graceful interrupt. It extends
// the repo-wide taxonomy (0 ok, 1 runtime error, 2 usage error, 3 run judged
// bad) with "interrupted; partial artifacts were flushed".
const ExitCode = 4

// Guard coordinates interrupt-time flushing. The zero value is not usable;
// call New.
type Guard struct {
	name string

	mu          sync.Mutex
	flushers    []func()
	interrupted bool
}

// New returns a guard that, once Watch is called, flushes and exits on
// SIGINT/SIGTERM. name prefixes the stderr notice.
func New(name string) *Guard { return &Guard{name: name} }

// Watch installs the signal handler. Call once, early in main.
func (g *Guard) Watch() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		// A second signal during flushing kills the process the default way.
		signal.Stop(ch)
		fmt.Fprintf(os.Stderr, "%s: %v — flushing partial artifacts\n", g.name, sig)
		g.fire(true)
	}()
}

// OnInterrupt registers a flusher to run if the process is interrupted.
// Flushers run in registration order under the guard lock. All Guard methods
// are nil-safe, so code shared between a guarded driver and an unguarded
// context (a test, say) can take a *Guard without checking.
func (g *Guard) OnInterrupt(f func()) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.flushers = append(g.flushers, f)
	g.mu.Unlock()
}

// Protect runs f under the guard lock, so state a flusher will read is never
// mid-mutation when the signal lands.
func (g *Guard) Protect(f func()) {
	if g == nil {
		f()
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	f()
}

// Interrupted reports whether the guard has fired. Loops can poll it between
// units of work to stop early (the flushers still run on the signal
// goroutine).
func (g *Guard) Interrupted() bool {
	if g == nil {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.interrupted
}

// fire runs the flushers once; with exit it then terminates the process.
func (g *Guard) fire(exit bool) {
	g.mu.Lock()
	already := g.interrupted
	g.interrupted = true
	flushers := g.flushers
	if !already {
		for _, f := range flushers {
			f()
		}
	}
	g.mu.Unlock()
	if exit {
		os.Exit(ExitCode)
	}
}
