package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wirsim/wir/internal/serve"
)

// drainWait bounds how long closing a server waits for running jobs, so a
// wedged job cannot keep the benchmark from exiting.
const drainWait = 30 * time.Second

// server is wirserve as a user runs it: serve.New with its defaults (two
// workers, 15 SMs) behind a loopback HTTP listener, plus the benchmark's
// HTTP client, with as many connections as clients.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan struct{}
}

func startServer(storeDir string) (*server, error) {
	srv, err := serve.New(serve.Options{StoreDir: storeDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	s := &server{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients(),
			MaxIdleConnsPerHost: clients(),
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

func (s *server) close() {
	drained := make(chan struct{})
	go func() {
		s.srv.Drain()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(drainWait):
	}
	s.hs.Close()
	<-s.served
	s.client.CloseIdleConnections()
}

// clients is the closed loop's width: as many clients as CPUs, which is
// also the default wirserve worker count on the 2-CPU reference machine.
func clients() int { return runtime.NumCPU() }

// reply is what one served op saw.
type reply struct {
	view  serve.JobView  // the submit response
	final serve.JobEvent // the done line of /events
	stats []byte         // the downloaded stats.json
}

// do runs one served op the way a script that waits for its result does:
// POST the job, follow /events to the done line, then GET stats.json.
func (s *server) do(ctx context.Context, req *serve.JobRequest, tr *tracer, opID, parent int64) (*reply, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var rep reply
	sp := tr.begin("http.submit", opID, parent)
	err = s.submit(ctx, body, &rep.view)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	sp = tr.begin("http.events", opID, parent)
	err = s.follow(ctx, rep.view.ID, &rep.final)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("events %s: %w", rep.view.ID, err)
	}
	if rep.final.State != serve.StateDone {
		msg := rep.final.State
		if rep.final.Err != nil {
			msg += ": " + rep.final.Err.Error
		}
		return nil, fmt.Errorf("job %s: %s", rep.view.ID, msg)
	}
	sp = tr.begin("http.download", opID, parent)
	rep.stats, err = s.get(ctx, "/v1/jobs/"+rep.view.ID+"/artifacts/"+serve.ArtStats)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("download %s: %w", rep.view.ID, err)
	}
	return &rep, nil
}

func (s *server) submit(ctx context.Context, body []byte, v *serve.JobView) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// follow reads the job's JSONL progress stream until its done line.
func (s *server) follow(ctx context.Context, id string, last *serve.JobEvent) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev serve.JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("bad event line %q: %w", sc.Text(), err)
		}
		if ev.Done {
			*last = ev
			// Drain the (empty) rest so the connection is reused.
			_, _ = io.Copy(io.Discard, resp.Body)
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("event stream ended without a done line")
}

func (s *server) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// status fetches /v1/status.
func (s *server) status() (*serve.Status, error) {
	data, err := s.get(context.Background(), "/v1/status")
	if err != nil {
		return nil, err
	}
	var st serve.Status
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// closedLoop runs clients() clients until d has passed or next reports no
// more work. Each client waits for its op's result before starting the
// next. next, called under a lock, returns the next op's spec and its
// index, or false.
func (s *server) closedLoop(d time.Duration, tr *tracer, next func() (int, *servedSpec, bool)) *phaseResult {
	ph := &phaseResult{}
	start := time.Now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				mu.Lock()
				idx, spec, ok := next()
				mu.Unlock()
				if !ok {
					return
				}
				id := nextOpID()
				root := tr.begin("op", id, 0)
				ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
				t0 := time.Now()
				rep, err := s.do(ctx, &spec.Req, tr, id, root)
				dur := time.Since(t0)
				cancel()
				tr.end(root)
				mu.Lock()
				ph.ops = append(ph.ops, op{id: id, spec: idx, class: spec.Class, start: t0.Sub(start), dur: dur, err: err, rep: rep})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	return ph
}

var opIDs atomic.Int64

func nextOpID() int64 { return opIDs.Add(1) }
