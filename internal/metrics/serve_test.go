package metrics

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerServesMetricsAndPprof(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("wir_cycles").Add(42)
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	get := func(path string) (int, string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, ctype := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "wir_cycles 42") {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}
	if !strings.Contains(ctype, "text/plain") {
		t.Fatalf("/metrics content type = %q", ctype)
	}
	if code, body, _ := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "profile") {
		t.Fatalf("/debug/pprof/: code=%d", code)
	}
	if code, body, _ := get("/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: code=%d body=%q", code, body)
	}
}

// TestServeReportsBindFailure: an address another listener holds is an
// error at Serve, not a server that silently never starts; port 0 is not,
// and the server reports the port it bound and answers on it.
func TestServeReportsBindFailure(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	if srv, err := Serve(held.Addr().String(), NewRegistry()); err == nil {
		srv.Close()
		t.Fatalf("Serve on held address %s returned no error", held.Addr())
	}
	srv, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatalf("Serve on 127.0.0.1:0: %v", err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics on bound address %s: %v", srv.Addr, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics on %s: status %d", srv.Addr, resp.StatusCode)
	}
}
