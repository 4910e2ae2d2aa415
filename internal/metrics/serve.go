package metrics

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler returns an http.Handler exposing the registry at /metrics in the
// Prometheus text exposition format, plus the standard net/http/pprof
// profiling endpoints under /debug/pprof/ so the simulator itself can be
// profiled while it runs. The handler reads only atomic instrument state, so
// it is safe to serve concurrently with the simulation loop.
//
// Note the live view is exactly what the simulation has published: counters
// and histograms fed by the hot paths update continuously, while interval
// gauges and stall counters advance at sampler boundaries.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("wirsim telemetry\n\n/metrics        Prometheus text format\n/debug/pprof/   Go runtime profiles\n"))
	})
	return mux
}

// Serve binds addr, then serves the registry on it in a new goroutine and
// returns the server, whose Addr is the bound address (the real port when
// addr asks for port 0), so the caller can report and shut it down. A
// failure to bind is returned; errors after startup (including normal
// shutdown) are discarded, and callers that need them should construct their
// own server around Handler.
func Serve(addr string, reg *Registry) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: Handler(reg)}
	go func() { _ = srv.Serve(ln) }()
	return srv, nil
}
